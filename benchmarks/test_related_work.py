"""Related-work comparison (paper §V).

The paper claims its speedups exceed previous limit studies because LP
supports (a) outer-loop parallelization and nested parallelism (unlike
Kejariwal et al., whose loop-level analysis found only ~18 % geomean
speedup on SPEC CPU2000) and (b) frequent-LCD synchronization (HELIX),
which SWARM-style conflict-free models lack. This harness reproduces both
gaps on the synthetic suites:

* **innermost-only** mode disables outer/nested parallelization;
* **DOALL-family** configurations stand in for conflict-free-only models.

Run: ``pytest benchmarks/test_related_work.py -s``
"""

from repro.bench import suite_programs
from repro.core import BEST_HELIX, LPConfig
from repro.reporting import geomean

from conftest import publish


def sweep(runner, suites, config, innermost_only):
    speedups = []
    for suite in suites:
        for program in suite_programs(suite):
            lp = runner.instance(program)
            speedups.append(
                lp.evaluate(config, innermost_only=innermost_only).speedup
            )
    return geomean(speedups)


def test_nested_vs_innermost_only(runner, artifact_dir):
    suites = ("specint2000", "specint2006")

    def run():
        rows = []
        for config in (LPConfig("pdoall", 1, 2, 2), BEST_HELIX):
            nested = sweep(runner, suites, config, innermost_only=False)
            innermost = sweep(runner, suites, config, innermost_only=True)
            rows.append((config.name, innermost, nested))
        return rows

    rows = run()
    lines = [
        "Related work (paper §V) — innermost-only (Kejariwal-style) vs "
        "LP's nested parallelization, non-numeric geomean",
        f"{'configuration':30s}{'innermost-only':>16s}{'nested (LP)':>14s}",
    ]
    for name, innermost, nested in rows:
        lines.append(f"{name:30s}{innermost:>15.2f}x{nested:>13.2f}x")
    publish(artifact_dir, "related_work_nesting.txt", "\n".join(lines))
    for _, innermost, nested in rows:
        assert nested > innermost, (
            "outer-loop/nested parallelization must account for part of "
            "LP's advantage over prior limit studies"
        )
    # Kejariwal et al. report ~1.18x at the loop level on CPU2000; the
    # innermost-only PDOALL number should land in that modest regime.
    pdoall_row = rows[0]
    assert pdoall_row[1] < 2.5


def test_frequent_lcd_support_is_the_other_gap(runner, artifact_dir):
    """SWARM supports no frequent LCDs (paper: 1.2x on frequent-LCD codes);
    HELIX's synchronization is what rescues them."""
    suites = ("specint2000", "specint2006")

    def run():
        conflict_free = sweep(
            runner, suites, LPConfig("pdoall", 1, 0, 2), innermost_only=False
        )
        synchronized = sweep(runner, suites, BEST_HELIX, innermost_only=False)
        return conflict_free, synchronized

    conflict_free, synchronized = run()
    lines = [
        "Related work — conflict-free-only vs frequent-LCD synchronization",
        f"  PDOALL reduc1-dep0-fn2 (no frequent-LCD support): {conflict_free:.2f}x",
        f"  HELIX  reduc1-dep1-fn2 (synchronized)           : {synchronized:.2f}x",
    ]
    publish(artifact_dir, "related_work_frequent_lcds.txt", "\n".join(lines))
    assert synchronized > 2 * conflict_free
