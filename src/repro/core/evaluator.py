"""Configuration evaluator — turns one execution profile into the paper's
numbers for any Table-II configuration.

The evaluation works bottom-up over the loop-invocation tree:

1. each invocation's *effective* iteration costs are its raw spans minus the
   parallel savings of the child invocations nested in each iteration
   (multi-level nested parallelism, as LP inherits from SWARM/T4);
2. the configuration decides which register LCDs constrain the loop
   (``reduc``/``dep`` flags), which call sites do (``fn`` flags), and the
   execution model turns the surviving constraints into a parallel cost
   (:mod:`repro.runtime.cost_models`);
3. loops are *statically marked* serial the way the paper describes —
   DOALL: any conflict ever; PDOALL: aggregate conflicting-iteration rate
   above 80 %; HELIX: no aggregate gain — and the evaluation re-runs until
   the marking set is stable (marking only grows, so this terminates).

Producer/consumer skews were recorded against serial timestamps; when inner
parallelism shrinks an invocation they are scaled by the invocation's
overall shrink factor (documented approximation; see DESIGN.md).

The evaluation is columnar. :class:`ProfileCache` reads the profile's
record-ordered columns (one record per invocation, every child before its
parent) and derives the rest from them. A leaf invocation — 99 % of them
— has no children, so its effective costs are its raw spans and its
outcome under a configuration is a mask over outcomes precomputed per
``(model, reduc, dep)``. Leaf costs
are integer IR-instruction counts, so their sums and maxima are exact in
float64 in any order. Invocations with children keep a per-record path,
run in record order after the leaves, because their costs depend on their
children's outcomes and are fractional.
"""

from __future__ import annotations

import itertools

import numpy as np

from ..predictors.hybrid import perfect_hybrid_flags
from ..runtime import cost_models
from ..runtime.cost_models import (
    doall_cost,
    helix_cost,
    pdoall_cost,
    pdoall_phase_breaks,
)
from .static_info import PHI_NONCOMPUTABLE, PHI_REDUCTION

#: Outcome reasons by code. Code 0 is a parallel outcome; codes 1-5 are the
#: masks, in the order of precedence in which they serialize an invocation.
_REASONS = (
    "", "untracked", "outer-loop", "marked", "fn", "register-lcd",
    "conflict", "conflict-rate", "no-gain", "sync-bound",
)
_CODE = {reason: code for code, reason in enumerate(_REASONS)}
(_UNTRACKED, _OUTER_LOOP, _MARKED, _FN, _REGISTER_LCD, _CONFLICT,
 _CONFLICT_RATE, _NO_GAIN, _SYNC_BOUND) = range(1, len(_REASONS))


class ProfileCache:
    """Evaluation columns of one profile, shared across configurations.

    Records are the profile's records, in its order (every child before
    its parent). The profile's own columns are read as they are; the
    columns derived from them, and those that depend on the static info
    (untracked, ``fn_serial``, the register-LCD keys), are built on the
    first evaluation. Per-leaf outcomes are memoized per ``(model, reduc,
    dep)``, since they depend neither on ``fn`` nor on the loops marked
    serial. Nothing here changes a result — only how often it is computed
    — so cold and warm-start evaluations stay bit-identical.
    """

    def __init__(self, profile):
        self.profile = profile
        self._static = None
        self.costs = None  # set with the rest of the profile columns

    def prepare(self, static_info):
        """Build the columns for ``static_info`` unless they exist."""
        if self._static is static_info:
            return
        if self.costs is None:
            self._profile_columns()
        self._static_columns(static_info)
        self._flags = None
        self._skews = {}
        self._recorded_breaks = None
        self._variants = {}
        self._static = static_info

    def _profile_columns(self):
        """The columns that depend on the profile alone."""
        profile = self.profile
        count = len(profile.loop_of)
        self.loop_ids = profile.loop_table
        self.loop_index = {loop_id: index
                           for index, loop_id in enumerate(self.loop_ids)}
        self.loop_of = profile.loop_of
        self.parent = profile.parent
        self.parent_iter = profile.parent_iter
        self.n = profile.n
        self.conflict_count = profile.conflict_count
        self.mem_skew = profile.max_mem_skew
        self.pair_count = profile.pair_count
        #: The flat iteration-cost array: record r owns
        #: costs[offsets[r] : offsets[r] + n[r]] (n >= 1 by construction).
        self.offsets = profile.start_offsets
        starts = profile.starts
        last = self.offsets + self.n - 1
        spans = np.empty(len(starts), dtype=np.int64)
        spans[:-1] = np.diff(starts)
        spans[last] = profile.end_ts - starts[last]
        self.costs = spans.astype(np.float64)
        serial_cost = profile.end_ts - starts[self.offsets]
        self.serial_cost = serial_cost.astype(np.float64)
        #: Flat mask of each record's first iteration.
        self.first = np.zeros(len(self.costs), dtype=bool)
        self.first[self.offsets] = True
        self.raw_serial = np.add.reduceat(self.costs, self.offsets)
        self.raw_max = np.maximum.reduceat(self.costs, self.offsets)

        leaf = np.ones(count, dtype=bool)
        leaf[self.parent[self.parent >= 0]] = False
        #: Records with children, in record order (the per-record path).
        self.parents = np.flatnonzero(~leaf).tolist()
        children = {}
        parent = self.parent.tolist()
        for kid in np.flatnonzero(self.parent >= 0)[::-1].tolist():
            children.setdefault(parent[kid], []).append(kid)
        #: Per parent: its children in invocation order, and their
        #: savings' layers.
        self.children = {
            record: (np.array(kids, dtype=np.int64),
                     _saving_layers(kids, self.parent_iter, self.n[record]))
            for record, kids in children.items()
        }

        #: Flat mask of the recorded conflict consumers (``0 < c < n``).
        self.recorded = np.zeros(len(self.costs), dtype=bool)
        owner = np.repeat(np.arange(count), self.pair_count)
        consumers = profile.pair_consumer
        inside = (consumers > 0) & (consumers < self.n[owner])
        self.recorded[self.offsets[owner[inside]] + consumers[inside]] = True
        self.pair_leaves = np.flatnonzero(leaf & (self.pair_count > 0)).tolist()

        #: Top-level records, in profile (invocation) order.
        self.top = np.flatnonzero(self.parent < 0)[::-1]
        self.top_serial = serial_cost[self.top].astype(np.float64).tolist()
        loops = len(self.loop_ids)
        self.loop_invocations = np.bincount(self.loop_of, minlength=loops).tolist()
        self.loop_iterations = np.bincount(
            self.loop_of, weights=self.n, minlength=loops
        ).astype(np.int64).tolist()

    def _static_columns(self, static_info):
        """Static facts per loop, spread to its records."""
        facts = [_loop_facts(static_info.loops.get(loop_id))
                 for loop_id in self.loop_ids]
        loop_untracked = np.array([fact[0] for fact in facts], dtype=bool)
        loop_fn = np.array([fact[1] for fact in facts], dtype=bool).reshape(-1, 4)
        loop_keys = np.array(
            [(len(fact[2]) + len(fact[3]), len(fact[2])) for fact in facts],
            dtype=np.int64,
        ).reshape(-1, 2)
        self.untracked = loop_untracked[self.loop_of]
        #: ``fn_serial[fn]``: the loop's calls serialize it under ``fn``.
        self.fn_serial = loop_fn.T[:, self.loop_of]
        #: ``has_keys[reduc]``: register LCDs constrain the loop.
        self.has_keys = loop_keys.T[:, self.loop_of] > 0
        lcd_rec, lcd_phi, lcd_reduction = [], [], []
        loop_of = self.loop_of.tolist()
        for record in np.flatnonzero(self.has_keys[0]).tolist():
            _, _, noncomputable, reductions = facts[loop_of[record]]
            for phi_key in noncomputable:
                lcd_rec.append(record)
                lcd_phi.append(phi_key)
                lcd_reduction.append(False)
            for phi_key in reductions:
                lcd_rec.append(record)
                lcd_phi.append(phi_key)
                lcd_reduction.append(True)
        #: One entry per (record, register-LCD phi) pair.
        self.lcd_rec = np.array(lcd_rec, dtype=np.int64)
        self.lcd_phi = lcd_phi
        self.lcd_reduction = np.array(lcd_reduction, dtype=bool)

    # -- per-leaf variants ------------------------------------------------------

    def _price_leaves(self, model, reduc, dep):
        """Leaf outcomes under ``(model, reduc, dep)``, before the masks."""
        serial = self.raw_serial
        if model == "helix":
            reg_delta = self._reg_delta(reduc, dep)
            raw_total = self.serial_cost
            known = raw_total > 0
            scale = np.where(known, serial / np.where(known, raw_total, 1.0), 1.0)
            delta = np.maximum(self.mem_skew, reg_delta) * scale
            cost = self.raw_max + delta * self.n
            gain = cost < serial
            return _Variant(
                np.where(gain, cost, serial), np.where(gain, 0, _SYNC_BOUND),
                self.pair_count, reg_delta=reg_delta,
            )
        if model == "doall":
            # DOALL combines only with dep0, so no conflict is injected.
            conflict = self.conflict_count > 0
            return _Variant(
                np.where(conflict, serial, self.raw_max),
                np.where(conflict, _CONFLICT, 0), self.pair_count,
            )
        injected = self._injected(reduc, dep)
        consumers = self.recorded if injected is None else self.recorded | injected
        conflicts = self._count(consumers)
        total = self._phase_total(injected)
        gain = total < serial
        return _Variant(
            np.where(gain, total, serial), np.where(gain, 0, _NO_GAIN),
            conflicts, rate=conflicts / self.n, injected=injected,
        )

    def _count(self, mask):
        """Per-record number of set positions of a flat mask."""
        return np.add.reduceat(mask, self.offsets, dtype=np.int64)

    def _injected(self, reduc, dep):
        """Flat mask of the adjacent conflicts that register LCDs inject
        under PDOALL: every consumer under ``dep1``, mispredicted ones
        under ``dep2``; ``None`` when none are injected."""
        if dep == 1:
            return np.repeat(self.has_keys[reduc], self.n) & ~self.first
        if dep != 2:
            return None
        positions, reduction = self._mispredicted()
        injected = np.zeros(len(self.costs), dtype=bool)
        injected[positions if reduc == 0 else positions[~reduction]] = True
        return injected

    def _phase_total(self, injected):
        """Per-record sum of phase maxima under Partial-DOALL, for leaves.

        In a leaf without recorded conflicts every injected consumer is a
        phase break (its producer is the iteration just before it); leaves
        with recorded conflicts take their breaks from
        :func:`pdoall_phase_breaks`.
        """
        if self._recorded_breaks is None:
            self._recorded_breaks = np.zeros(len(self.costs), dtype=bool)
            for record in self.pair_leaves:
                self._mark_breaks(
                    self._recorded_breaks, record,
                    self.profile.pairs_of(record),
                )
        if injected is None:
            breaks = self._recorded_breaks
        else:
            breaks = self._recorded_breaks | injected
            for record in self.pair_leaves:
                extra = self.consumers_of(injected, record)
                if extra:
                    pairs = _with_adjacent(
                        self.profile.pairs_of(record), extra
                    )
                    self._mark_breaks(breaks, record, pairs)
        starts = np.flatnonzero(breaks | self.first)
        phase_max = np.maximum.reduceat(self.costs, starts)
        return np.add.reduceat(phase_max, np.searchsorted(starts, self.offsets))

    def _mark_breaks(self, breaks, record, pairs):
        low = self.offsets[record]
        n = self.n[record]
        breaks[low:low + n] = False
        breaks[low + np.array(pdoall_phase_breaks(pairs, n), dtype=np.int64)] = True

    def consumers_of(self, mask, record):
        """The iterations of ``record`` set in a flat mask."""
        low = self.offsets[record]
        return np.flatnonzero(mask[low:low + self.n[record]]).tolist()

    # -- register LCDs ----------------------------------------------------------

    def _predictor_flags(self):
        """Perfect-hybrid correctness flags per register-LCD pair."""
        if self._flags is None:
            self._flags = [
                perfect_hybrid_flags(values)
                for values in self.profile.lcd_streams(
                    "values", self.lcd_rec.tolist(), self.lcd_phi)
            ]
        return self._flags

    def _mispredicted(self):
        """Flat positions of mispredicted consumers (``values[i]`` feeds
        iteration ``i+1``), and whether each comes from a reduction phi."""
        lengths, hits = _flat_flags(self._predictor_flags())
        missed = np.flatnonzero(~hits)
        pair = np.repeat(np.arange(len(lengths)), lengths)[missed]
        consumer = missed - (np.cumsum(lengths) - lengths)[pair] + 1
        record = self.lcd_rec[pair]
        inside = consumer < self.n[record]
        return (self.offsets[record[inside]] + consumer[inside],
                self.lcd_reduction[pair[inside]])

    def _reg_delta(self, reduc, dep):
        """Per-record HELIX register skew: the largest over the LCDs that
        ``reduc`` keeps, all consumers under ``dep1``, mispredicted ones
        under ``dep2``, none otherwise."""
        reg_delta = np.zeros(len(self.n))
        if dep in (1, 2):
            restricted = dep == 2
            skews = self._skews.get(restricted)
            if skews is None:
                skews = self._skews[restricted] = _register_skews(
                    self.profile, self.lcd_rec, self.lcd_phi,
                    self._predictor_flags() if restricted else None)
            kept = slice(None) if reduc == 0 else ~self.lcd_reduction
            np.maximum.at(reg_delta, self.lcd_rec[kept], skews[kept])
        return reg_delta

    # -- per configuration ------------------------------------------------------

    def leaf_outcomes(self, config):
        """``(cost, reason, conflicts, variant)``: per-record leaf outcomes
        under ``config`` with every mask but ``marked`` applied, and the
        variant the parent path reads. The cut-off is read now."""
        key = (config.model, config.reduc, config.dep)
        variant = self._variants.get(key)
        if variant is None:
            variant = self._variants[key] = self._price_leaves(*key)
        serial = self.raw_serial
        cost, reason = variant.cost, variant.reason
        if variant.rate is not None:
            over = variant.rate > cost_models.PDOALL_SERIAL_THRESHOLD
            cost = np.where(over, serial, cost)
            reason = np.where(over, _CONFLICT_RATE, reason)
        register_lcd = (self.has_keys[config.reduc] if config.dep == 0
                        else np.zeros(len(serial), dtype=bool))
        fn = self.fn_serial[config.fn]
        masked = self.untracked | fn | register_lcd
        reason = np.select(
            [self.untracked, fn, register_lcd],
            [_UNTRACKED, _FN, _REGISTER_LCD], reason,
        )
        return (np.where(masked, serial, cost), reason,
                np.where(masked, 0, variant.conflicts), variant)

    def marked(self, forced_serial):
        """Per-record mask of the loops marked serial."""
        loops = np.zeros(len(self.loop_ids), dtype=bool)
        loops[[self.loop_index[loop_id] for loop_id in forced_serial]] = True
        return loops[self.loop_of]


class _Variant:
    """Leaf outcomes of one ``(model, reduc, dep)``, and what the parent
    path needs from it: the injected conflicts (PDOALL) or the register
    skews (HELIX). ``rate`` is PDOALL's conflicting-iteration
    rate, compared with the cut-off per evaluation."""

    __slots__ = ("cost", "reason", "conflicts", "rate", "injected",
                 "reg_delta")

    def __init__(self, cost, reason, conflicts, rate=None, injected=None,
                 reg_delta=None):
        self.cost = cost
        self.reason = reason
        self.conflicts = conflicts
        self.rate = rate
        self.injected = injected
        self.reg_delta = reg_delta


def _loop_facts(static):
    """``(untracked, fn_serial[0..3], noncomputable phis, reduction phis)``."""
    if static is None or not static.trackable:
        return True, (False, False, False, False), (), ()
    return (
        False,
        (static.serial_under_fn(0), static.serial_under_fn(1),
         static.serial_under_fn(2), False),
        tuple(static.phis_of_class(PHI_NONCOMPUTABLE)),
        tuple(static.phis_of_class(PHI_REDUCTION)),
    )


def _saving_layers(kids, parent_iter, n):
    """``(children, parent iterations)`` array pairs, one per layer: layer
    ``k`` holds the ``k``-th child, in invocation order, of each parent
    iteration. Applying the layers in turn subtracts each iteration's
    savings in the order a child-by-child walk does; a child outside the
    parent's iterations saves nothing."""
    layers = []
    seen = {}
    for kid in kids:
        at = parent_iter[kid]
        if 0 <= at < n:
            depth = seen[at] = seen.get(at, -1) + 1
            if depth == len(layers):
                layers.append(([], []))
            layers[depth][0].append(kid)
            layers[depth][1].append(at)
    return [(np.array(layer_kids, dtype=np.int64),
             np.array(layer_at, dtype=np.int64))
            for layer_kids, layer_at in layers]


def _with_adjacent(pairs, consumers):
    """``pairs`` plus an adjacent conflict (producer ``c - 1``) into each
    consumer ``c``, keeping the latest producer."""
    pairs = dict(pairs)
    for consumer in consumers:
        if pairs.get(consumer, -1) < consumer - 1:
            pairs[consumer] = consumer - 1
    return pairs


def _register_skews(profile, records, phi_keys, flags=None):
    """Per register-LCD pair: the largest producer->consumer skew of the
    LCD lowered to memory, 0.0 when none is positive.

    Producer: the definition of the latch value in iteration ``i`` (the
    def-offset stream); consumer: the first use of the phi in iteration
    ``i+1`` (the use-offset stream). Iterations without an observed use
    (``None``) impose no wait. With predictor ``flags`` (``dep2``) only
    mispredicted consumers wait: ``flags[i]`` is False. Offsets are
    integer instruction counts, so the maxima are exact.
    """
    defs, uses = profile.defs, profile.uses
    pairs = len(records)
    def_stream = profile.stream_index("defs", records, phi_keys)
    use_stream = profile.stream_index("uses", records, phi_keys)
    # Producers 0 .. count-1 of each pair, flat.
    count = np.maximum(0, np.minimum(_lengths(defs, def_stream),
                                     _lengths(uses, use_stream) - 1))
    pair = np.repeat(np.arange(pairs), count)
    producer = np.arange(len(pair)) - np.repeat(np.cumsum(count) - count, count)
    def_at = defs.offsets[def_stream[pair]] + producer
    use_at = uses.offsets[use_stream[pair]] + producer + 1
    waits = (np.ones(len(pair), dtype=bool) if uses.missing is None
             else ~uses.missing[use_at])
    if flags is not None:
        lengths, hits = _flat_flags(flags)
        flagged = producer < lengths[pair]
        hit = np.zeros(len(pair), dtype=bool)
        hit[flagged] = hits[(np.cumsum(lengths) - lengths)[pair[flagged]]
                            + producer[flagged]]
        waits &= flagged & ~hit
    best = np.zeros(pairs, dtype=np.int64)
    np.maximum.at(best, pair[waits],
                  defs.data[def_at[waits]] - uses.data[use_at[waits]])
    return best.astype(np.float64)


def _flat_flags(flags):
    """Per-pair predictor flags as ``(length per pair, flat hits)``."""
    lengths = np.array([len(pair_flags) for pair_flags in flags],
                       dtype=np.int64)
    hits = np.fromiter(itertools.chain.from_iterable(flags), dtype=bool,
                       count=int(lengths.sum()))
    return lengths, hits


def _lengths(streams, index):
    """The length of each stream in ``index``; 0 where it is -1."""
    lengths = np.zeros(len(index), dtype=np.int64)
    found = index >= 0
    lengths[found] = streams.length[index[found]]
    return lengths


class LoopSummary:
    """Aggregate outcome for one static loop under one configuration."""

    __slots__ = (
        "loop_id", "invocations", "parallel_invocations", "serial_cost",
        "parallel_cost", "iterations", "conflicting_iterations", "reasons",
    )

    def __init__(self, loop_id):
        self.loop_id = loop_id
        self.invocations = 0
        self.parallel_invocations = 0
        self.serial_cost = 0.0
        self.parallel_cost = 0.0
        self.iterations = 0
        self.conflicting_iterations = 0
        self.reasons = {}

    @property
    def speedup(self):
        if self.parallel_cost <= 0:
            return 1.0
        return self.serial_cost / self.parallel_cost

    @property
    def is_parallel(self):
        return self.parallel_invocations > 0

    def note_reason(self, reason):
        if reason:
            self.reasons[reason] = self.reasons.get(reason, 0) + 1

    def to_dict(self):
        """JSON-safe form (builtin ints and floats only)."""
        return {
            "loop_id": self.loop_id,
            "invocations": self.invocations,
            "parallel_invocations": self.parallel_invocations,
            "serial_cost": self.serial_cost,
            "parallel_cost": self.parallel_cost,
            "iterations": self.iterations,
            "conflicting_iterations": self.conflicting_iterations,
            "reasons": dict(self.reasons),
        }

    def __repr__(self):
        return (
            f"<LoopSummary {self.loop_id} x{self.invocations} "
            f"speedup={self.speedup:.2f}>"
        )


class EvaluationResult:
    """Whole-program outcome for one configuration."""

    def __init__(self, config, total_serial, total_parallel, coverage, loops):
        self.config = config
        self.total_serial = total_serial
        self.total_parallel = total_parallel
        self.coverage = coverage
        self.loops = loops  # {loop_id: LoopSummary}

    @property
    def speedup(self):
        if self.total_parallel <= 0:
            return 1.0
        return self.total_serial / self.total_parallel

    def to_dict(self):
        """JSON-safe form of the whole result, loop summaries included;
        tests compare results through it."""
        return {
            "config": self.config.name,
            "total_serial": self.total_serial,
            "total_parallel": self.total_parallel,
            "coverage": self.coverage,
            "loops": {
                loop_id: summary.to_dict()
                for loop_id, summary in self.loops.items()
            },
        }

    def __repr__(self):
        return (
            f"<EvaluationResult {self.config.name}: speedup={self.speedup:.2f} "
            f"coverage={self.coverage * 100:.1f}%>"
        )


def _price_parent(cache, record, config, variant, costs, serial, marked,
                  innermost_only):
    """``(cost, reason code, conflicting iterations)`` of an invocation with
    children, from its effective ``costs``: the masks in the leaves' order
    of precedence, then the execution model."""
    if cache.untracked[record]:
        return serial, _UNTRACKED, 0
    if innermost_only:
        # Related-work mode (Kejariwal et al., §V): only innermost loops are
        # candidates; outer-loop and nested parallelization are disabled.
        return serial, _OUTER_LOOP, 0
    if marked:
        return serial, _MARKED, 0
    if cache.fn_serial[config.fn, record]:
        return serial, _FN, 0
    if config.dep == 0 and cache.has_keys[config.reduc, record]:
        return serial, _REGISTER_LCD, 0
    if config.model == "helix":
        # Scale serial-time skews by the invocation's shrink factor.
        raw_total = float(cache.serial_cost[record])
        scale = (serial / raw_total) if raw_total > 0 else 1.0
        delta = max(float(cache.mem_skew[record]),
                    variant.reg_delta[record]) * scale
        outcome = helix_cost(costs, delta, serial)
        conflicts = int(cache.pair_count[record])
    else:
        pairs = cache.profile.pairs_of(record)
        if variant.injected is not None:
            extra = cache.consumers_of(variant.injected, record)
            if extra:
                pairs = _with_adjacent(pairs, extra)
        if config.model == "doall":
            outcome = doall_cost(costs, cache.conflict_count[record] > 0,
                                 serial)
            conflicts = len(pairs)
        else:
            n = len(costs)
            # The 80 % cutoff is on conflicting *iterations*, not phase
            # breaks: conflicts absorbed by an earlier break still count.
            conflicts = sum(1 for consumer in pairs if 0 < consumer < n)
            outcome = pdoall_cost(
                costs, pdoall_phase_breaks(pairs, n), serial,
                conflicts=conflicts,
            )
    reason = 0 if outcome.parallel else _CODE[outcome.reason]
    return outcome.cost, reason, conflicts


def _evaluate_round(profile, cache, config, leaves, forced_serial,
                    innermost_only):
    """One evaluation with ``forced_serial`` marked: the leaves by mask,
    then every parent in record order, then the per-loop aggregate."""
    leaf_cost, leaf_reason, leaf_conflicts, variant = leaves
    marked = cache.marked(forced_serial)
    serial = cache.raw_serial.copy()
    # A record's effective cost is its outcome's cost: a serial outcome
    # costs the serial time.
    cost = np.where(marked, serial, leaf_cost)
    reason = np.where(marked & ~cache.untracked, _MARKED, leaf_reason)
    conflicts = np.where(marked, 0, leaf_conflicts)
    covered = np.where(reason == 0, cache.serial_cost, 0.0)

    for record in cache.parents:
        low = cache.offsets[record]
        n = cache.n[record]
        costs = cache.costs[low:low + n].copy()
        kids, layers = cache.children[record]
        for layer_kids, at in layers:
            saving = cache.serial_cost[layer_kids] - cost[layer_kids]
            costs[at] = np.maximum(0.0, costs[at] - saving)
        # Covered costs are whole instruction counts: any order is exact.
        child_covered = float(np.sum(covered[kids]))
        record_serial = float(np.sum(costs)) if n else 0.0
        outcome = _price_parent(
            cache, record, config, variant, costs, record_serial,
            marked[record], innermost_only,
        )
        serial[record] = record_serial
        cost[record], reason[record], conflicts[record] = outcome
        covered[record] = (cache.serial_cost[record] if outcome[1] == 0
                           else child_covered)

    loops = len(cache.loop_ids)
    loop_of = cache.loop_of
    parallel = reason == 0
    parallel_invocations = np.bincount(loop_of[parallel], minlength=loops)
    conflicting = np.bincount(loop_of, weights=conflicts, minlength=loops)
    # Fractional costs: accumulate per loop in record order, as a walk would.
    serial_costs = np.zeros(loops)
    np.add.at(serial_costs, loop_of, serial)
    parallel_costs = np.zeros(loops)
    np.add.at(parallel_costs, loop_of, cost)
    per_loop = zip(
        cache.loop_invocations, parallel_invocations.tolist(),
        serial_costs.tolist(), parallel_costs.tolist(), cache.loop_iterations,
        conflicting.astype(np.int64).tolist(),
    )
    by_index = []
    for loop_id, values in zip(cache.loop_ids, per_loop):
        summary = LoopSummary(loop_id)
        (summary.invocations, summary.parallel_invocations,
         summary.serial_cost, summary.parallel_cost, summary.iterations,
         summary.conflicting_iterations) = values
        by_index.append(summary)
    # Reasons per loop, each dict in first-occurrence record order.
    serial_records = np.flatnonzero(~parallel)
    keys = loop_of[serial_records] * len(_REASONS) + reason[serial_records]
    unique, first, counts = np.unique(keys, return_index=True,
                                      return_counts=True)
    order = np.argsort(first)
    for key, count in zip(unique[order].tolist(), counts[order].tolist()):
        loop, code = divmod(key, len(_REASONS))
        by_index[loop].reasons[_REASONS[code]] = count
    summaries = {summary.loop_id: summary for summary in by_index}

    # Builtin sums over the top-level records, in profile order.
    top_effective = cost[cache.top].tolist()
    saved = sum(
        serial_cost - effective
        for serial_cost, effective in zip(cache.top_serial, top_effective)
    )
    total_parallel = max(1.0, profile.total_cost - saved)
    total_covered = sum(covered[cache.top].tolist())
    coverage = (total_covered / profile.total_cost) if profile.total_cost else 0.0
    return EvaluationResult(
        config, float(profile.total_cost), total_parallel, coverage, summaries
    )


def _violations(result, config, forced_serial):
    """Static serial-marking rules applied to the aggregate (paper §III-B)."""
    newly = set()
    for loop_id, summary in result.loops.items():
        if loop_id in forced_serial or not summary.is_parallel:
            continue
        if config.model == "doall":
            # "Mark the loop as suitable for serial execution only" on the
            # first conflict: one conflicting invocation serializes them all.
            if summary.conflicting_iterations > 0:
                newly.add(loop_id)
            continue
        if config.model == "pdoall" and summary.iterations > 0:
            rate = summary.conflicting_iterations / summary.iterations
            if rate > cost_models.PDOALL_SERIAL_THRESHOLD:
                newly.add(loop_id)
                continue
        if summary.parallel_cost >= summary.serial_cost - 1e-9:
            newly.add(loop_id)  # no aggregate gain: mark serial
    return newly


def evaluate_config(profile, static_info, config, cache=None,
                    innermost_only=False):
    """Evaluate one configuration against a profile (fixpoint over static
    serial marking). ``cache`` may be shared across configurations.

    ``innermost_only`` reproduces the related-work baseline (Kejariwal et
    al., paper §V): only innermost loop invocations may parallelize — no
    outer loops, no nested parallelism.
    """
    if cache is None:
        cache = ProfileCache(profile)
    cache.prepare(static_info)
    leaves = cache.leaf_outcomes(config)
    forced_serial = set()
    for _ in range(1 + len(static_info.loops)):
        result = _evaluate_round(
            profile, cache, config, leaves, forced_serial, innermost_only
        )
        newly = _violations(result, config, forced_serial)
        if not newly:
            return result
        forced_serial |= newly
    return result
