"""The record walk the columnar evaluator replaced, kept as its reference.

``evaluate_config`` here walks every loop invocation in Python, once per
configuration and per static-marking round: the straightforward reading of
the paper's models, one ``_apply_model`` call per invocation. The columnar
evaluator in ``repro.core.evaluator`` must produce byte-identical
``EvaluationResult.to_dict()`` output (``tests/test_evaluator_reference.py``).

``PDOALL_SERIAL_THRESHOLD`` is this module's own import-time copy of the
cut-off: a test that varies the cut-off patches it here as well as in
``repro.runtime.cost_models``.
"""

from __future__ import annotations

import numpy as np

from repro.core.evaluator import EvaluationResult, LoopSummary
from repro.core.static_info import PHI_NONCOMPUTABLE, PHI_REDUCTION
from repro.predictors.hybrid import perfect_hybrid_flags
from repro.runtime.cost_models import (
    PDOALL_SERIAL_THRESHOLD,
    ModelOutcome,
    doall_cost,
    helix_cost,
    pdoall_cost,
    pdoall_phase_breaks,
)


class ReferenceCache:
    """Config-independent memo over one profile: predictor flags per
    (invocation, phi), iteration-cost arrays, and the per-invocation
    records the walk visits, children first."""

    def __init__(self, profile):
        self.profile = profile
        self._flags = {}
        self._mispredicted = {}
        self._iter_costs = {}
        self._records = None
        self._records_static = None
        self._top = None

    def predictor_flags(self, invocation, phi_key):
        key = (id(invocation), phi_key)
        flags = self._flags.get(key)
        if flags is None:
            values = invocation.lcd_values.get(phi_key, [])
            flags = perfect_hybrid_flags(values)
            self._flags[key] = flags
        return flags

    def mispredicted_iterations(self, invocation, phi_key):
        """``values[i]`` is consumed by iteration ``i+1``; a miss on element
        ``i`` therefore delays iteration ``i+1``."""
        key = (id(invocation), phi_key)
        missed = self._mispredicted.get(key)
        if missed is None:
            flags = self.predictor_flags(invocation, phi_key)
            missed = {index + 1 for index, ok in enumerate(flags) if not ok}
            self._mispredicted[key] = missed
        return missed

    def iteration_costs(self, invocation):
        key = id(invocation)
        costs = self._iter_costs.get(key)
        if costs is None:
            costs = np.asarray(invocation.iteration_costs(), dtype=float)
            self._iter_costs[key] = costs
        return costs

    def records(self, static_info):
        if self._records is not None and self._records_static is static_info:
            return self._records
        # One tree view: every call of ``all_invocations`` builds a new one.
        invocations = self.profile.all_invocations()
        reversed_invs = list(reversed(invocations))
        position = {id(inv): i for i, inv in enumerate(reversed_invs)}
        loops = static_info.loops
        records = []
        for inv in reversed_invs:
            rec = _InvRecord()
            rec.inv = inv
            rec.loop_id = inv.loop_id
            rec.serial_cost_f = float(inv.serial_cost)
            rec.num_iterations = inv.num_iterations
            rec.children = [
                (position[id(child)], float(child.serial_cost),
                 child.parent_iter)
                for child in inv.children
            ]
            if rec.children:
                rec.eff_costs = rec.raw_serial = None
            else:
                costs = self.iteration_costs(inv)
                rec.eff_costs = costs
                rec.raw_serial = float(np.sum(costs)) if len(costs) else 0.0
            static = loops.get(inv.loop_id)
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
            for inv in invocations if inv.parent is None
        ]
        self._records = records
        self._records_static = static_info
        return records

    @property
    def top_records(self):
        return self._top


class _InvRecord:
    __slots__ = (
        "inv", "loop_id", "untracked", "children", "eff_costs",
        "raw_serial", "serial_cost_f", "num_iterations",
        "fn_serial", "reg_keys_r0", "reg_keys_base",
    )


def _reg_skew(invocation, phi_key, restrict_to=None):
    """Largest producer->consumer skew of a register LCD lowered to memory.

    Producer: the definition of the latch value in iteration ``i``;
    consumer: the first use of the phi in iteration ``i+1``. Iterations
    without an observed use impose no wait. ``restrict_to`` optionally
    limits to given consumer iterations (the mispredicted set under
    ``dep2``).
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
                 serial, innermost_only=False):
    """One invocation's outcome: ``(ModelOutcome, n_conflict_iters)``."""
    invocation = rec.inv
    n = len(eff_costs)

    def serial_with(reason):
        return ModelOutcome(serial, False, reason), 0

    if rec.untracked:
        return serial_with("untracked")
    if innermost_only and rec.children:
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

    if config.model == "doall":
        outcome = doall_cost(eff_costs, invocation.conflict_count > 0, serial)
        return outcome, len(pairs)
    if config.model == "pdoall":
        breaks = pdoall_phase_breaks(pairs, n)
        conflicts = sum(1 for consumer in pairs if 0 < consumer < n)
        outcome = pdoall_cost(eff_costs, breaks, serial, conflicts=conflicts)
        return outcome, conflicts
    raw_total = invocation.serial_cost
    scale = (serial / raw_total) if raw_total > 0 else 1.0
    delta = max(invocation.max_mem_skew, reg_delta) * scale
    outcome = helix_cost(eff_costs, delta, serial)
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
        else:
            eff_costs = rec.eff_costs
            serial = rec.raw_serial
        outcome, n_conflicts = _apply_model(
            rec, config, cache, forced_serial, eff_costs, serial,
            innermost_only=innermost_only,
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
    newly = set()
    for loop_id, summary in result.loops.items():
        if loop_id in forced_serial or not summary.is_parallel:
            continue
        if config.model == "doall":
            if summary.conflicting_iterations > 0:
                newly.add(loop_id)
            continue
        if config.model == "pdoall" and summary.iterations > 0:
            rate = summary.conflicting_iterations / summary.iterations
            if rate > PDOALL_SERIAL_THRESHOLD:
                newly.add(loop_id)
                continue
        if summary.parallel_cost >= summary.serial_cost - 1e-9:
            newly.add(loop_id)
    return newly


def evaluate_config(profile, static_info, config, cache=None,
                    innermost_only=False):
    """Fixpoint over static serial marking, one record walk per round."""
    if cache is None:
        cache = ReferenceCache(profile)
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
