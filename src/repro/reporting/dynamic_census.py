"""Dynamic dependence census — the run-time half of Table I.

The paper's Table I splits dependencies along a *frequency* axis that only
execution can decide: memory LCDs are "frequent" or "infrequent" by how
often they manifest, and non-computable register LCDs divide into
"predictable" and "unpredictable" by how the value predictors fare on their
actual value streams. This module measures those splits from recorded
profiles.

Thresholds (documented knobs, not magic): a loop's memory LCDs count as
*frequent* when conflicts bind more than ``FREQUENT_RATE`` of its
iterations; a register LCD is *predictable* when the perfect hybrid
predicts at least ``PREDICTABLE_ACCURACY`` of its values.
"""

from __future__ import annotations

import numpy as np

from ..core.static_info import PHI_NONCOMPUTABLE, PHI_REDUCTION
from ..predictors.hybrid import perfect_hybrid_flags
from ..runtime.cost_models import pdoall_phase_breaks

FREQUENT_RATE = 0.20
PREDICTABLE_ACCURACY = 0.90


class LoopDynamicCensus:
    """Dynamic classification of one static loop (aggregated invocations)."""

    __slots__ = (
        "loop_id", "invocations", "iterations", "conflicting_iterations",
        "predictable_lcds", "unpredictable_lcds", "reduction_lcds",
    )

    def __init__(self, loop_id):
        self.loop_id = loop_id
        self.invocations = 0
        self.iterations = 0
        self.conflicting_iterations = 0
        self.predictable_lcds = set()
        self.unpredictable_lcds = set()
        self.reduction_lcds = set()

    @property
    def memory_class(self):
        """'frequent' | 'infrequent' | 'none' per the paper's Table I."""
        if self.conflicting_iterations == 0:
            return "none"
        rate = self.conflicting_iterations / max(1, self.iterations)
        return "frequent" if rate > FREQUENT_RATE else "infrequent"

    def __repr__(self):
        return (
            f"<LoopDynamicCensus {self.loop_id} mem={self.memory_class} "
            f"pred={len(self.predictable_lcds)} "
            f"unpred={len(self.unpredictable_lcds)}>"
        )


def dynamic_census_of(lp):
    """Per-loop dynamic census for one profiled program
    (:class:`~repro.core.framework.Loopapalooza` instance)."""
    profile = lp.profile()
    census = {}
    reduction_keys = {
        key
        for static in lp.static_info.loops.values()
        for key in static.phis_of_class(PHI_REDUCTION)
    }
    noncomputable_keys = {
        key
        for static in lp.static_info.loops.values()
        for key in static.phis_of_class(PHI_NONCOMPUTABLE)
    }
    # Count the *binding* manifestations (restart semantics): a read
    # whose producer already committed does not manifest again.
    breaks = np.zeros(len(profile.n), dtype=np.int64)
    n = profile.n.tolist()
    for record in np.flatnonzero(profile.pair_count).tolist():
        breaks[record] = len(pdoall_phase_breaks(profile.pairs_of(record),
                                                 n[record]))
    iterations = profile.loop_totals(profile.n)
    conflicting = profile.loop_totals(breaks)
    for loop_id, invocations in profile.loop_totals().items():
        entry = census[loop_id] = LoopDynamicCensus(loop_id)
        entry.invocations = invocations
        entry.iterations = iterations[loop_id]
        entry.conflicting_iterations = conflicting[loop_id]
    loop_of = profile.loop_of.tolist()
    streams = profile.values
    for record, phi, values in zip(streams.rec.tolist(), streams.phi.tolist(),
                                   streams.lists()):
        phi_key = profile.phi_table[phi]
        entry = census[profile.loop_table[loop_of[record]]]
        if phi_key in reduction_keys:
            entry.reduction_lcds.add(phi_key)
            continue
        if phi_key not in noncomputable_keys or not values:
            continue
        flags = perfect_hybrid_flags(values)
        accuracy = sum(flags) / len(flags)
        if accuracy >= PREDICTABLE_ACCURACY:
            entry.predictable_lcds.add(phi_key)
        else:
            entry.unpredictable_lcds.add(phi_key)
    return census


def suite_dynamic_census(runner, suite):
    """Aggregate Table-I dynamic counts over one suite."""
    from ..bench.suites import suite_programs

    totals = {
        "loops_frequent_mem": 0,
        "loops_infrequent_mem": 0,
        "loops_no_mem_lcd": 0,
        "predictable_reg_lcds": 0,
        "unpredictable_reg_lcds": 0,
    }
    for program in suite_programs(suite):
        census = dynamic_census_of(runner.instance(program))
        for entry in census.values():
            key = {
                "frequent": "loops_frequent_mem",
                "infrequent": "loops_infrequent_mem",
                "none": "loops_no_mem_lcd",
            }[entry.memory_class]
            totals[key] += 1
            totals["predictable_reg_lcds"] += len(entry.predictable_lcds)
            totals["unpredictable_reg_lcds"] += len(entry.unpredictable_lcds)
    return totals


def format_dynamic_census(rows):
    """Render ``{suite: totals}`` as the Table-I dynamic view."""
    keys = [
        "loops_frequent_mem", "loops_infrequent_mem", "loops_no_mem_lcd",
        "predictable_reg_lcds", "unpredictable_reg_lcds",
    ]
    lines = ["Table I (measured, dynamic axis) — frequency/predictability"]
    header = f"{'suite':14s}" + "".join(f"{k:>24s}" for k in keys)
    lines.append(header)
    for suite, totals in rows.items():
        lines.append(
            f"{suite:14s}" + "".join(f"{totals[k]:>24d}" for k in keys)
        )
    return "\n".join(lines)
