"""Regenerates the measured counterpart of paper Table I: the census of
ordering-constraint categories per suite (computable IVs/MIVs, reduction
accumulators, non-computable register LCDs, loops with calls / unsafe
calls).

Run: ``pytest benchmarks/test_table1_census.py -s``
"""

from repro.bench import ALL_SUITES
from repro.reporting import (
    format_census,
    format_dynamic_census,
    suite_dynamic_census,
    table1_census,
)

from conftest import publish


def test_table1_census(runner, artifact_dir):
    rows = table1_census(runner)
    dynamic_rows = {
        suite: suite_dynamic_census(runner, suite) for suite in ALL_SUITES
    }
    text = format_census(rows) + "\n\n" + format_dynamic_census(dynamic_rows)
    publish(artifact_dir, "table1_census.txt", text)
    # The dynamic axis: non-numeric suites carry more unpredictable
    # register LCDs than the numeric suites (Table I narrative).
    non_numeric_unpred = sum(
        dynamic_rows[s]["unpredictable_reg_lcds"]
        for s in ("specint2000", "specint2006")
    )
    numeric_unpred = sum(
        dynamic_rows[s]["unpredictable_reg_lcds"]
        for s in ("eembc", "specfp2000", "specfp2006")
    )
    assert non_numeric_unpred > numeric_unpred
    # Non-numeric suites must be richer in non-computable register LCDs
    # relative to reductions than the numeric suites (Table I narrative).
    def ratio(suite):
        totals = rows[suite]
        return totals["noncomputable_phis"] / max(1, totals["reduction_phis"])

    non_numeric = (ratio("specint2000") + ratio("specint2006")) / 2
    numeric = (ratio("eembc") + ratio("specfp2000") + ratio("specfp2006")) / 3
    assert non_numeric > numeric
