"""Experiment harness: regenerate every table and figure of the paper.

Each ``figure*`` function returns the underlying data structure; each
``format_*`` helper renders the paper-style text view. EXPERIMENTS.md is
produced from these (see ``examples/full_paper_run.py``).
"""

from __future__ import annotations

from ..bench.suites import (
    ALL_SUITES,
    NON_NUMERIC_SUITES,
    NUMERIC_SUITES,
    default_runner,
    suite_programs,
)
from ..core.config import BEST_HELIX, BEST_PDOALL, LPConfig, paper_configurations
from .stats import geomean

# The three configurations of the paper's coverage study (Fig. 5).
COVERAGE_CONFIGS = (
    LPConfig("pdoall", 0, 0, 2),
    LPConfig("helix", 0, 0, 2),
    LPConfig("helix", 0, 1, 2),
)


def figure2_nonnumeric(runner=None, sweep=None):
    """Fig. 2: GEOMEAN speedups for SpecINT2000/2006 per configuration.

    Returns ``{config_name: {suite: geomean_speedup}}`` in the paper's
    presentation order. ``sweep`` is a dict whose ``telemetry`` entry (a
    :class:`~repro.runtime.telemetry.RunTelemetry`) checkpoints the
    underlying sweep to a run ledger; its other keys are ignored.
    """
    return _figure_speedups(NON_NUMERIC_SUITES, runner, sweep)


def figure3_numeric(runner=None, sweep=None):
    """Fig. 3: GEOMEAN speedups for EEMBC and SpecFP2000/2006."""
    return _figure_speedups(NUMERIC_SUITES, runner, sweep)


def _figure_speedups(suites, runner, sweep=None):
    runner = runner or default_runner()
    _prefetch(
        runner,
        [p for suite in suites for p in suite_programs(suite)],
        paper_configurations(),
        sweep,
    )
    rows = {}
    for config in paper_configurations():
        row = {}
        for suite in suites:
            speedups = runner.suite_speedups(suite, config)
            row[suite] = geomean(speedups.values())
        rows[config.name] = row
    return rows


def figure4_per_benchmark(runner=None, sweep=None):
    """Fig. 4: per-benchmark speedups for the best PDOALL
    (``reduc1-dep2-fn2``) and best HELIX (``reduc1-dep1-fn2``) configs,
    across all four SPEC suites.

    Returns ``{suite/name: {"pdoall": s, "helix": s}}``.
    """
    runner = runner or default_runner()
    spec_suites = ("specint2000", "specint2006", "specfp2000", "specfp2006")
    _prefetch(
        runner,
        [p for suite in spec_suites for p in suite_programs(suite)],
        [BEST_PDOALL, BEST_HELIX],
        sweep,
    )
    result = {}
    for suite in spec_suites:
        for program in suite_programs(suite):
            result[program.full_name] = {
                "pdoall": runner.evaluate(program, BEST_PDOALL).speedup,
                "helix": runner.evaluate(program, BEST_HELIX).speedup,
            }
    return result


def figure5_coverage(runner=None, sweep=None):
    """Fig. 5: mean dynamic coverage (percent) for the three selected
    configurations, per suite.

    Returns ``{config_name: {suite: coverage_percent}}``. Coverage is a
    bounded fraction, so the suite aggregate uses the arithmetic mean
    (a geometric mean collapses whenever one benchmark has ~zero coverage).
    """
    runner = runner or default_runner()
    _prefetch(
        runner,
        [p for suite in ALL_SUITES for p in suite_programs(suite)],
        COVERAGE_CONFIGS,
        sweep,
    )
    rows = {}
    for config in COVERAGE_CONFIGS:
        row = {}
        for suite in ALL_SUITES:
            coverages = runner.suite_coverages(suite, config)
            values = [c * 100.0 for c in coverages.values()]
            row[suite] = sum(values) / len(values)
        rows[config.name] = row
    return rows


def table1_census(runner=None, sweep=None):
    """Table I as measured: dependence-category census per suite."""
    runner = runner or default_runner()
    _prefetch(
        runner,
        [p for suite in ALL_SUITES for p in suite_programs(suite)],
        [paper_configurations()[0]],
        sweep,
    )
    rows = {}
    for suite in ALL_SUITES:
        totals = {}
        for program in suite_programs(suite):
            census = runner.instance(program).census()
            for key, value in census.items():
                totals[key] = totals.get(key, 0) + value
        rows[suite] = totals
    return rows


def _prefetch(runner, programs, configs, sweep=None):
    """Checkpoint the figure's cells to the run ledger.

    A no-op without ``sweep["telemetry"]``: the figure loops compute each
    cell on demand either way. With telemetry the cells go through
    ``evaluate_many`` first, so every task lands in the run ledger and the
    run is resumable; the loops then read the same memoized results.
    """
    telemetry = (sweep or {}).get("telemetry")
    if telemetry is not None:
        runner.evaluate_many(programs, configs, telemetry=telemetry)


# -- formatting ------------------------------------------------------------------


def format_speedup_figure(rows, title):
    lines = [title, "=" * len(title)]
    suites = list(next(iter(rows.values())).keys())
    header = f"{'configuration':28s}" + "".join(f"{s:>14s}" for s in suites)
    lines.append(header)
    lines.append("-" * len(header))
    for config_name, row in rows.items():
        lines.append(
            f"{config_name:28s}"
            + "".join(f"{row[s]:>13.2f}x" for s in suites)
        )
    return "\n".join(lines)


def format_figure4(data):
    lines = [
        "Fig. 4 — per-benchmark speedups (best PDOALL vs best HELIX)",
        f"{'benchmark':32s}{'PDOALL':>12s}{'HELIX':>12s}{'winner':>10s}",
    ]
    for name, entry in data.items():
        winner = "PDOALL" if entry["pdoall"] > entry["helix"] else "HELIX"
        lines.append(
            f"{name:32s}{entry['pdoall']:>11.2f}x{entry['helix']:>11.2f}x"
            f"{winner:>10s}"
        )
    return "\n".join(lines)


def format_coverage(rows):
    lines = ["Fig. 5 — mean dynamic coverage (%)"]
    suites = list(next(iter(rows.values())).keys())
    header = f"{'configuration':28s}" + "".join(f"{s:>14s}" for s in suites)
    lines.append(header)
    for config_name, row in rows.items():
        lines.append(
            f"{config_name:28s}"
            + "".join(f"{row[s]:>13.1f}%" for s in suites)
        )
    return "\n".join(lines)


def format_census(rows):
    lines = ["Table I (measured) — dependence-category census per suite"]
    keys = [
        "loops", "computable_phis", "reduction_phis", "noncomputable_phis",
        "loops_with_calls", "loops_with_unsafe_calls",
    ]
    header = f"{'suite':14s}" + "".join(f"{k:>22s}" for k in keys)
    lines.append(header)
    for suite, totals in rows.items():
        lines.append(
            f"{suite:14s}" + "".join(f"{totals.get(k, 0):>22d}" for k in keys)
        )
    return "\n".join(lines)
