"""Configuration evaluator — turns one execution profile into the paper's
numbers for any Table-II configuration.

The evaluation walks the loop-invocation tree bottom-up:

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
"""

from __future__ import annotations

import numpy as np

from ..predictors.hybrid import perfect_hybrid_flags
from .config import LPConfig
from ..runtime.cost_models import (
    PDOALL_SERIAL_THRESHOLD,
    ModelOutcome,
    doall_cost,
    helix_cost,
    pdoall_cost,
    pdoall_phase_breaks,
)
from .static_info import PHI_NONCOMPUTABLE, PHI_REDUCTION


class ProfileCache:
    """Config-independent derived data, shared across configurations.

    Everything here is a pure memo over the (immutable, post-``finish``)
    profile: value-predictor outcomes per (invocation, phi), raw
    iteration-cost arrays, the flattened invocation list, and the
    register-LCD key set per (loop, ``reduc`` flag). Caching never changes
    a result — only how often it is recomputed — so cold and warm-start
    evaluations stay bit-identical.
    """

    def __init__(self, profile):
        self.profile = profile
        self._flags = {}
        self._mispredicted = {}
        self._iter_costs = {}
        self._raw_serial = {}
        self._invocations = None
        self._lcd_keys = {}
        self._records = None
        self._records_static = None
        self._top = None

    def predictor_flags(self, invocation, phi_key):
        """Perfect-hybrid correctness flags for the phi's latch values."""
        key = (id(invocation), phi_key)
        flags = self._flags.get(key)
        if flags is None:
            values = invocation.lcd_values.get(phi_key, [])
            flags = perfect_hybrid_flags(values)
            self._flags[key] = flags
        return flags

    def mispredicted_iterations(self, invocation, phi_key):
        """Iteration indices whose incoming LCD value was mispredicted.

        ``values[i]`` is consumed by iteration ``i+1``; a miss on element
        ``i`` therefore delays iteration ``i+1``.
        """
        key = (id(invocation), phi_key)
        missed = self._mispredicted.get(key)
        if missed is None:
            flags = self.predictor_flags(invocation, phi_key)
            missed = {index + 1 for index, ok in enumerate(flags) if not ok}
            self._mispredicted[key] = missed
        return missed

    def iteration_costs(self, invocation):
        """The invocation's raw iteration spans as a float array.

        The returned array is shared — callers that mutate must copy.
        """
        key = id(invocation)
        costs = self._iter_costs.get(key)
        if costs is None:
            costs = np.asarray(invocation.iteration_costs(), dtype=float)
            self._iter_costs[key] = costs
        return costs

    def invocations(self):
        """The profile's flattened invocation list (parents first)."""
        if self._invocations is None:
            self._invocations = self.profile.all_invocations()
        return self._invocations

    def raw_serial(self, invocation):
        """``float(np.sum(iteration_costs))`` of the unadjusted array."""
        key = id(invocation)
        serial = self._raw_serial.get(key)
        if serial is None:
            costs = self.iteration_costs(invocation)
            serial = float(np.sum(costs)) if len(costs) else 0.0
            self._raw_serial[key] = serial
        return serial

    def register_lcd_keys(self, static, config):
        """The register LCDs constraining ``static`` under ``config.reduc``."""
        key = (id(static), config.reduc)
        keys = self._lcd_keys.get(key)
        if keys is None:
            keys = list(static.phis_of_class(PHI_NONCOMPUTABLE))
            if config.reduc == 0:
                keys.extend(static.phis_of_class(PHI_REDUCTION))
            self._lcd_keys[key] = keys
        return keys

    def records(self, static_info):
        """Config-independent per-invocation records, children-first.

        One record per invocation, in the bottom-up order
        ``_evaluate_once`` walks, with everything that does not depend on
        the configuration precomputed: the static-loop lookup, child
        record indices (so outcome arrays can be plain lists instead of
        ``id()``-keyed dicts), the shared leaf cost arrays with their sum
        and max, and the fn-flag serialization table. Rebuilding only
        happens if a different ``static_info`` is passed (never in
        practice: the cache and the static info belong to one instance).
        """
        if self._records is not None and self._records_static is static_info:
            return self._records
        reversed_invs = list(reversed(self.invocations()))
        position = {id(inv): i for i, inv in enumerate(reversed_invs)}
        loops = static_info.loops
        records = []
        for inv in reversed_invs:
            rec = _InvRecord()
            rec.inv = inv
            rec.loop_id = inv.loop_id
            rec.serial_cost_f = float(inv.serial_cost)
            rec.num_iterations = inv.num_iterations
            rec.conflict_pairs = inv.conflict_pairs
            rec.children = [
                (position[id(child)], float(child.serial_cost), child.parent_iter)
                for child in inv.children
            ]
            if rec.children:
                rec.eff_costs = None
                rec.raw_serial = None
                rec.raw_max = None
            else:
                costs = self.iteration_costs(inv)
                rec.eff_costs = costs
                rec.raw_serial = self.raw_serial(inv)
                rec.raw_max = float(np.max(costs)) if len(costs) else 0.0
            static = loops.get(inv.loop_id)
            rec.static = static
            rec.untracked = static is None or not static.trackable
            if rec.untracked:
                rec.fn_serial = (False, False, False, False)
                rec.reg_keys_r0 = rec.reg_keys_base = ()
            else:
                rec.fn_serial = (
                    static.serial_under_fn(0),
                    static.serial_under_fn(1),
                    static.serial_under_fn(2),
                    False,
                )
                base = list(static.phis_of_class(PHI_NONCOMPUTABLE))
                rec.reg_keys_base = base
                rec.reg_keys_r0 = base + list(static.phis_of_class(PHI_REDUCTION))
            records.append(rec)
        self._top = [
            (position[id(inv)], float(inv.serial_cost))
            for inv in self.profile.top_level
        ]
        self._records = records
        self._records_static = static_info
        return records

    @property
    def top_records(self):
        """``(record_index, serial_cost)`` per top-level invocation (in
        ``profile.top_level`` order); valid after :meth:`records`."""
        return self._top


class _InvRecord:
    """Config-independent evaluation state of one invocation (see
    :meth:`ProfileCache.records`)."""

    __slots__ = (
        "inv", "loop_id", "static", "untracked", "children",
        "eff_costs", "raw_serial", "raw_max", "serial_cost_f",
        "num_iterations", "conflict_pairs", "fn_serial",
        "reg_keys_r0", "reg_keys_base",
    )


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
        """JSON-safe form for the run ledger; floats round-trip exactly."""
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

    @classmethod
    def from_dict(cls, data):
        summary = cls(data["loop_id"])
        summary.invocations = int(data["invocations"])
        summary.parallel_invocations = int(data["parallel_invocations"])
        summary.serial_cost = float(data["serial_cost"])
        summary.parallel_cost = float(data["parallel_cost"])
        summary.iterations = int(data["iterations"])
        summary.conflicting_iterations = int(data["conflicting_iterations"])
        summary.reasons = {
            reason: int(count)
            for reason, count in (data.get("reasons") or {}).items()
        }
        return summary

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
        """Ledger checkpoint form. JSON floats round-trip via ``repr``, so
        a deserialized result renders byte-identical figure text."""
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

    @classmethod
    def from_dict(cls, data):
        return cls(
            LPConfig.parse(data["config"]),
            float(data["total_serial"]),
            float(data["total_parallel"]),
            float(data["coverage"]),
            {
                loop_id: LoopSummary.from_dict(entry)
                for loop_id, entry in (data.get("loops") or {}).items()
            },
        )

    def __repr__(self):
        return (
            f"<EvaluationResult {self.config.name}: speedup={self.speedup:.2f} "
            f"coverage={self.coverage * 100:.1f}%>"
        )


def _reg_skew(invocation, phi_key, restrict_to=None):
    """Largest producer->consumer skew of a register LCD lowered to memory.

    Producer: the definition of the latch value in iteration ``i``
    (``lcd_def_offsets``); consumer: the first use of the phi in iteration
    ``i+1`` (``lcd_use_offsets``). Iterations without an observed use impose
    no wait. ``restrict_to`` optionally limits to given consumer iterations
    (the mispredicted set under ``dep2``).
    """
    defs = invocation.lcd_def_offsets.get(phi_key, [])
    uses = invocation.lcd_use_offsets.get(phi_key, [])
    best = 0.0
    for producer_iter, def_off in enumerate(defs):
        consumer_iter = producer_iter + 1
        if restrict_to is not None and consumer_iter not in restrict_to:
            continue
        use_off = uses[consumer_iter] if consumer_iter < len(uses) else None
        if use_off is None:
            continue
        skew = def_off - use_off
        if skew > best:
            best = float(skew)
    return best


def _apply_model(rec, config, cache, forced_serial, eff_costs,
                 serial, eff_max, innermost_only=False):
    """Decide this invocation's outcome; returns (ModelOutcome, n_conflict_iters).

    ``serial`` is the caller's precomputed ``float(np.sum(eff_costs))`` —
    the summary needs it too, so the array is summed exactly once.
    ``eff_max`` is the precomputed max of ``eff_costs`` for untouched leaf
    arrays (None when the array was adjusted for child savings).
    """
    invocation = rec.inv
    n = len(eff_costs)

    def serial_with(reason):
        return ModelOutcome(serial, False, reason), 0

    if rec.untracked:
        return serial_with("untracked")
    if innermost_only and rec.children:
        # Related-work mode (Kejariwal et al., §V): only innermost loops are
        # candidates; outer-loop and nested parallelization are disabled.
        return serial_with("outer-loop")
    if forced_serial and rec.loop_id in forced_serial:
        return serial_with("marked")
    fn = config.fn
    if rec.fn_serial[fn if fn < 3 else 3]:
        return serial_with("fn")

    reg_keys = rec.reg_keys_r0 if config.reduc == 0 else rec.reg_keys_base
    if config.dep == 0 and reg_keys:
        return serial_with("register-lcd")

    # Conflict pairs: consumer iteration -> latest producer iteration.
    # Copied only on the paths that inject extra (lowered/mispredicted
    # register-LCD) pairs; every other path reads it as-is.
    pairs = invocation.conflict_pairs
    pairs_copied = False

    def add_adjacent(consumer):
        nonlocal pairs, pairs_copied
        if not pairs_copied:
            pairs = dict(pairs)
            pairs_copied = True
        producer = consumer - 1
        if pairs.get(consumer, -1) < producer:
            pairs[consumer] = producer

    reg_delta = 0.0
    if reg_keys and config.dep == 1:
        if config.model == "helix":
            for key in reg_keys:
                reg_delta = max(reg_delta, _reg_skew(invocation, key))
        else:
            # Lowered LCDs manifest as frequent memory conflicts.
            for consumer in range(1, n):
                add_adjacent(consumer)
    elif reg_keys and config.dep == 2:
        for key in reg_keys:
            mispredicted = cache.mispredicted_iterations(invocation, key)
            if config.model == "helix":
                reg_delta = max(
                    reg_delta, _reg_skew(invocation, key, restrict_to=mispredicted)
                )
            else:
                for consumer in mispredicted:
                    if consumer < n:
                        add_adjacent(consumer)
    # dep3: perfect prediction removes every register LCD.

    if config.model == "doall":
        outcome = doall_cost(
            eff_costs, invocation.conflict_count > 0, serial, iter_max=eff_max
        )
        return outcome, len(pairs)
    if config.model == "pdoall":
        breaks = pdoall_phase_breaks(pairs, n)
        # The 80 % cutoff is on conflicting *iterations*, not phase breaks:
        # conflicts absorbed by an earlier phase break still count.
        conflicts = sum(1 for consumer in pairs if 0 < consumer < n)
        outcome = pdoall_cost(
            eff_costs, breaks, serial, conflicts=conflicts, iter_max=eff_max
        )
        return outcome, conflicts
    # HELIX: scale serial-time skews by the invocation's shrink factor.
    raw_total = invocation.serial_cost
    scale = (serial / raw_total) if raw_total > 0 else 1.0
    delta = max(invocation.max_mem_skew, reg_delta) * scale
    outcome = helix_cost(eff_costs, delta, serial, iter_max=eff_max)
    return outcome, len(pairs)


def _evaluate_once(profile, static_info, config, cache, forced_serial,
                   innermost_only=False):
    records = cache.records(static_info)
    effective = [0.0] * len(records)
    covered = [0.0] * len(records)
    summaries = {}

    for index, rec in enumerate(records):
        child_covered = 0.0
        children = rec.children
        if children:
            eff_costs = cache.iteration_costs(rec.inv).copy()
            n_costs = len(eff_costs)
            for child_index, child_serial, parent_iter in children:
                saving = child_serial - effective[child_index]
                if 0 <= parent_iter < n_costs:
                    eff_costs[parent_iter] = max(
                        0.0, eff_costs[parent_iter] - saving
                    )
                child_covered += covered[child_index]
            serial = float(np.sum(eff_costs)) if n_costs else 0.0
            eff_max = None
        else:
            # Leaf invocations (the vast majority) share the cached array
            # and its config-independent sum/max; no model mutates its input.
            eff_costs = rec.eff_costs
            serial = rec.raw_serial
            eff_max = rec.raw_max
        outcome, n_conflicts = _apply_model(
            rec, config, cache, forced_serial, eff_costs,
            serial, eff_max, innermost_only=innermost_only,
        )

        loop_id = rec.loop_id
        summary = summaries.get(loop_id)
        if summary is None:
            summary = summaries[loop_id] = LoopSummary(loop_id)
        summary.invocations += 1
        summary.serial_cost += serial
        summary.parallel_cost += outcome.cost
        summary.iterations += rec.num_iterations
        summary.conflicting_iterations += n_conflicts
        if outcome.parallel:
            summary.parallel_invocations += 1
            effective[index] = outcome.cost
            covered[index] = rec.serial_cost_f
        else:
            summary.note_reason(outcome.reason)
            effective[index] = serial
            covered[index] = child_covered

    saved = sum(
        serial_cost - effective[index]
        for index, serial_cost in cache.top_records
    )
    total_parallel = max(1.0, profile.total_cost - saved)
    total_covered = sum(covered[index] for index, _ in cache.top_records)
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
            if rate > PDOALL_SERIAL_THRESHOLD:
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
    forced_serial = set()
    for _ in range(1 + len(static_info.loops)):
        result = _evaluate_once(
            profile, static_info, config, cache, forced_serial,
            innermost_only=innermost_only,
        )
        newly = _violations(result, config, forced_serial)
        if not newly:
            return result
        forced_serial |= newly
    return result


def evaluate_all(profile, static_info, configs):
    """Evaluate many configurations, sharing the predictor cache."""
    cache = ProfileCache(profile)
    return {
        config.name: evaluate_config(profile, static_info, config, cache)
        for config in configs
    }
