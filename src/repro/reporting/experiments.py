"""Experiment harness: regenerate every table and figure of the paper.

Each ``figure*`` function returns the underlying data structure; each
``format_*`` helper renders the paper-style text view. :func:`paper_run`
is the full paper run behind ``repro figures``: every section in print
order plus the soundness violations its reports show.
"""

from __future__ import annotations

from ..bench.suites import (
    ALL_SUITES,
    NON_NUMERIC_SUITES,
    NUMERIC_SUITES,
    all_programs,
    default_runner,
    suite_programs,
)
from ..core.config import BEST_HELIX, BEST_PDOALL, LPConfig, paper_configurations
from ..frontend.codegen import compile_source
from ..interp.veccodegen import summarize_vec_decisions, vector_decisions
from ..runtime.profile_store import default_code_cache
from .advisor import advise_suites, format_advice
from .crosscheck import crosscheck_suites, format_crosscheck
from .stats import geomean
from .transform_report import format_transform_figure, transform_suites

# The three configurations of the paper's coverage study (Fig. 5).
COVERAGE_CONFIGS = (
    LPConfig("pdoall", 0, 0, 2),
    LPConfig("helix", 0, 0, 2),
    LPConfig("helix", 0, 1, 2),
)

#: Floor on the share of crosscheck loops the static engine resolves
#: (static-proved, static-missed or confirmed-lcd). An engine that
#: classified every loop UNKNOWN would be vacuously sound; 198 of the 225
#: bundled loops resolve.
MIN_RESOLVED_FRACTION = 0.40

PAPER_HEADLINES = """
Paper headline numbers for comparison (absolute values are not expected to
match — the substrate here is a synthetic-benchmark simulator; the shapes
are; see DESIGN.md and EXPERIMENTS.md):

  Fig. 2 best HELIX (reduc1-dep1-fn2):  4.6x SpecINT2000, 7.2x SpecINT2006
  Fig. 3 best HELIX:                    21.6x-50.6x numeric suites
  Fig. 4: PDOALL wins art, soplex, sphinx, mcf; HELIX wins the rest
  Fig. 5: coverage explains the HELIX gains on non-numeric codes
""".rstrip()


def figure2_nonnumeric(runner=None, sweep=None):
    """Fig. 2: GEOMEAN speedups for SpecINT2000/2006 per configuration.

    Returns ``{config_name: {suite: geomean_speedup}}`` in the paper's
    presentation order. ``sweep`` is a dict whose ``telemetry`` entry (a
    :class:`~repro.runtime.telemetry.RunTelemetry`) counts the underlying
    sweep in a run manifest; its other keys are ignored.
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
    """Count the figure's cells in the run manifest.

    A no-op without ``sweep["telemetry"]``: the figure loops compute each
    cell on demand either way. With telemetry the cells go through
    ``evaluate_many`` first, so every task is counted in the run manifest;
    the loops then read the same memoized results.
    """
    telemetry = (sweep or {}).get("telemetry")
    if telemetry is not None:
        runner.evaluate_many(programs, configs, telemetry=telemetry)


# -- the full paper run -----------------------------------------------------------


def paper_run(runner, telemetry):
    """Every table and figure over the bundled suites, one profile per
    program, with the sweep counted in ``telemetry``'s run manifest.

    Returns ``(sections, violations)``: the ``(title, text)`` sections in
    print order — Table I, Static crosscheck, Transform unlock,
    Parallelizability advisor, Figures 2-5 — and
    :func:`paper_violations` of the run's own crosscheck and advisor
    reports. Cache statistics and vectorizer decisions go into the run
    manifest; finishing the run is left to the caller.
    """
    sweep = {"telemetry": telemetry}
    # Figs. 2 and 3 sweep all 14 configurations, one manifest task per
    # program; the sections after them read the memoized results.
    figures = [
        ("Figure 2", format_speedup_figure(
            figure2_nonnumeric(runner, sweep=sweep),
            "Fig. 2 (reproduced) — non-numeric GEOMEAN speedups")),
        ("Figure 3", format_speedup_figure(
            figure3_numeric(runner, sweep=sweep),
            "Fig. 3 (reproduced) — numeric GEOMEAN speedups")),
        ("Figure 4", format_figure4(
            figure4_per_benchmark(runner, sweep=sweep))),
        ("Figure 5", format_coverage(figure5_coverage(runner, sweep=sweep))),
    ]
    crosscheck = crosscheck_suites(runner)
    advice = advise_suites(runner, crosscheck=True)
    sections = [
        ("Table I", format_census(table1_census(runner, sweep=sweep))),
        ("Static crosscheck", format_crosscheck(crosscheck)),
        ("Transform unlock", format_transform_figure(transform_suites())),
        ("Parallelizability advisor", format_advice(advice)),
        *figures,
    ]
    telemetry.record_cache_stats(_cache_stats(runner))
    telemetry.record_vec_decisions(_vec_decisions())
    return sections, paper_violations(crosscheck, advice)


def paper_violations(crosscheck, advice):
    """One message per soundness violation in a crosscheck report and an
    advisor report joined against the profile; empty when the run is
    sound. Three checks, all on the reports as given:

    * a ``STATIC_DOALL`` loop recorded a dynamic conflict;
    * fewer than :data:`MIN_RESOLVED_FRACTION` of the loops resolved
      statically;
    * an advised ``@parallel``/``@reduce`` loop recorded a conflict.
    """
    violations = [
        f"unsound STATIC_DOALL: {row.program} {row.loop_id} had "
        f"{row.conflicts} dynamic conflict(s)"
        for row in crosscheck.unsound
    ]
    counts = crosscheck.counts()
    resolved = (counts["static-proved"] + counts["static-missed"]
                + counts["confirmed-lcd"])
    total = len(crosscheck.rows)
    if not total or resolved / total < MIN_RESOLVED_FRACTION:
        violations.append(
            f"only {resolved}/{total} loops resolved statically, below "
            f"the {MIN_RESOLVED_FRACTION:.0%} floor")
    violations.extend(
        f"unsound advice: {a.program} {a.loop_id} advised {a.annotation} "
        f"but had {a.conflicts} dynamic conflict(s)"
        for a in advice.unsound
    )
    return violations


def _cache_stats(runner):
    """End-of-run cache snapshot for the manifest. Entry counts and sizes
    are read from disk; hit/miss counters cover this process, which is the
    whole run."""
    stats = {}
    if runner.store is not None:
        stats["profile_store"] = runner.store.info()
    stats["code_cache"] = default_code_cache().info()
    return stats


def _vec_decisions():
    """Vectorizer decision summary over the bundled suites: how many
    innermost loops the vector tier takes and why the rest bail out.
    Planner-only — no execution — so it is cheap even on a warm run where
    every profile came from the cache."""
    decisions = []
    for program in all_programs():
        decisions.extend(vector_decisions(compile_source(program.source)))
    return summarize_vec_decisions(decisions)


def format_experiments_md(sections):
    """EXPERIMENTS_MEASURED.md: every section of a paper run, verbatim."""
    body = [
        "# EXPERIMENTS — measured results",
        "",
        "Regenerated by `python -m repro figures --write-experiments-md`.",
        "See DESIGN.md for the substitution rationale; absolute numbers are",
        "not expected to match the paper (synthetic suites), the shapes are.",
        "",
    ]
    for title, text in sections:
        body.extend([f"## {title}", "", "```", text, "```", ""])
    return "\n".join(body)


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
