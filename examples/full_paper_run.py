#!/usr/bin/env python
"""Full paper run: regenerate every table and figure and (optionally)
rewrite EXPERIMENTS.md with the measured numbers.

Run:  python examples/full_paper_run.py [options]

Options:
  --write-experiments-md   rewrite EXPERIMENTS_MEASURED.md
  --jobs N                 fan the sweep out over N worker processes
  --cache-dir DIR          profile-store location (default: shared user
                           cache; set REPRO_NO_PROFILE_CACHE=1 to disable)
  --resume RUN_ID          resume an interrupted run from its ledger;
                           completed (benchmark, config) cells are restored
                           and skipped (see `python -m repro runs`)
  --task-timeout SECONDS   per-task result timeout in the pool sweep
  --retries N              retries (exponential backoff) before a failing
                           task is quarantined to the serial path
  --runs-dir DIR           run-ledger location (default:
                           ~/.cache/repro/runs or REPRO_RUNS_DIR)

A cold run profiles the 48 synthetic benchmarks and sweeps the
14-configuration grid (~30 s). Warm runs reuse the persistent profile
store and re-profile nothing. Every run checkpoints each completed task
to a JSONL run ledger, so a killed run continues with --resume RUN_ID
and produces byte-identical output.
"""

import argparse
import pathlib
import sys
import time

from repro.bench import SuiteRunner
from repro.reporting import (
    crosscheck_suites,
    figure2_nonnumeric,
    figure3_numeric,
    figure4_per_benchmark,
    figure5_coverage,
    format_census,
    format_coverage,
    format_crosscheck,
    format_figure4,
    format_speedup_figure,
    format_transform_figure,
    table1_census,
    transform_suites,
)
from repro.runtime.telemetry import RunTelemetry, format_run_summary

PAPER_HEADLINES = """
Paper headline numbers for comparison (absolute values are not expected to
match — the substrate here is a synthetic-benchmark simulator; the shapes
are; see DESIGN.md and EXPERIMENTS.md):

  Fig. 2 best HELIX (reduc1-dep1-fn2):  4.6x SpecINT2000, 7.2x SpecINT2006
  Fig. 3 best HELIX:                    21.6x-50.6x numeric suites
  Fig. 4: PDOALL wins art, soplex, sphinx, mcf; HELIX wins the rest
  Fig. 5: coverage explains the HELIX gains on non-numeric codes
""".rstrip()


def main(argv):
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--write-experiments-md", action="store_true")
    parser.add_argument("--jobs", type=int, default=None,
                        help="worker processes for the sweep")
    parser.add_argument("--cache-dir", default=None,
                        help="profile-store directory")
    parser.add_argument("--resume", default=None, metavar="RUN_ID",
                        help="resume an interrupted run from its ledger")
    parser.add_argument("--task-timeout", type=float, default=None,
                        metavar="SECONDS", help="per-task result timeout")
    parser.add_argument("--retries", type=int, default=2,
                        help="retries before quarantining a task")
    parser.add_argument("--runs-dir", default=None,
                        help="run-ledger directory")
    args = parser.parse_args(argv)

    start = time.time()
    runner = SuiteRunner(cache_dir=args.cache_dir)
    jobs = args.jobs
    if args.resume:
        telemetry = RunTelemetry.resume(args.resume, root=args.runs_dir)
        print(f"resuming run {telemetry.run_id} "
              f"(ledger covers {telemetry.ledger_tasks} tasks)")
    else:
        telemetry = RunTelemetry.create(root=args.runs_dir)
        print(f"run id: {telemetry.run_id} "
              f"(resume an interrupted run with --resume {telemetry.run_id})")
    sweep = {
        "telemetry": telemetry,
        "task_timeout": args.task_timeout,
        "retries": args.retries,
    }

    sections = []
    try:
        print("evaluating the 14-configuration sweep (Fig. 2)...", flush=True)
        sections.append(("Figure 2", format_speedup_figure(
            figure2_nonnumeric(runner, jobs=jobs, sweep=sweep),
            "Fig. 2 (reproduced) — non-numeric GEOMEAN speedups")))
        print("Fig. 3...", flush=True)
        sections.append(("Figure 3", format_speedup_figure(
            figure3_numeric(runner, jobs=jobs, sweep=sweep),
            "Fig. 3 (reproduced) — numeric GEOMEAN speedups")))
        print("Fig. 4...", flush=True)
        sections.append(("Figure 4", format_figure4(
            figure4_per_benchmark(runner, jobs=jobs, sweep=sweep))))
        print("Fig. 5...", flush=True)
        sections.append(("Figure 5", format_coverage(
            figure5_coverage(runner, jobs=jobs, sweep=sweep))))
        print("Table I census...", flush=True)
        sections.insert(0, ("Table I", format_census(
            table1_census(runner, jobs=jobs, sweep=sweep))))
        print("static x dynamic crosscheck...", flush=True)
        sections.insert(1, ("Static crosscheck", format_crosscheck(
            crosscheck_suites(runner))))
        print("transform unlock figure...", flush=True)
        sections.insert(2, ("Transform unlock", format_transform_figure(
            transform_suites())))
        print("parallelizability advisor...", flush=True)
        from repro.reporting.advisor import advise_suites, format_advice

        sections.insert(3, ("Parallelizability advisor", format_advice(
            advise_suites(runner, crosscheck=True))))
    except BaseException:
        # Mark the run interrupted; its ledger already holds every
        # completed task, so --resume RUN_ID picks up from here.
        telemetry.finish(status="interrupted")
        raise
    telemetry.record_cache_stats(_cache_stats(runner))
    telemetry.record_vec_decisions(_vec_decisions())
    telemetry.finish()

    for title, text in sections:
        print()
        print(f"##### {title} " + "#" * max(0, 60 - len(title)))
        print(text)
    print()
    print(PAPER_HEADLINES)
    print(f"\ntotal wall time: {time.time() - start:.1f}s")
    print(f"profiles measured this run: {runner.profiles_measured} "
          f"(cache hits skip re-profiling)")
    if runner.store is not None:
        print(f"profile store: {runner.store.root} "
              f"[{runner.store.stats.describe()}]")
    print()
    print("run telemetry " + "-" * 46)
    print(format_run_summary(telemetry.summary()))
    print(f"ledger: {telemetry.ledger_path}")

    if args.write_experiments_md:
        _write_experiments_md(sections)
        print("EXPERIMENTS.md updated.")


def _cache_stats(runner):
    """End-of-run cache snapshot for the manifest. Entry counts and sizes
    are read from disk (global truth); hit/miss counters only cover this
    process — pool workers keep their own tallies."""
    from repro.runtime.profile_store import default_code_cache

    stats = {}
    if runner.store is not None:
        stats["profile_store"] = runner.store.info()
    code_cache = default_code_cache()
    if code_cache is not None:
        stats["code_cache"] = code_cache.info()
    return stats


def _vec_decisions():
    """Vectorizer decision summary over the run's workload (the bundled
    suites): how many innermost loops the vector tier takes and why the
    rest bail out. Planner-only — no execution — so it is cheap even on
    a warm run where every profile came from the cache."""
    from repro.bench import all_programs
    from repro.frontend.codegen import compile_source
    from repro.interp.veccodegen import (
        summarize_vec_decisions,
        vector_decisions,
    )

    decisions = []
    for program in all_programs():
        decisions.extend(vector_decisions(compile_source(program.source)))
    return summarize_vec_decisions(decisions)


def _write_experiments_md(sections):
    root = pathlib.Path(__file__).resolve().parent.parent
    body = [
        "# EXPERIMENTS — measured results",
        "",
        "Regenerated by `python examples/full_paper_run.py "
        "--write-experiments-md`.",
        "See DESIGN.md for the substitution rationale; absolute numbers are",
        "not expected to match the paper (synthetic suites), the shapes are.",
        "",
    ]
    for title, text in sections:
        body.append(f"## {title}")
        body.append("")
        body.append("```")
        body.append(text)
        body.append("```")
        body.append("")
    (root / "EXPERIMENTS_MEASURED.md").write_text("\n".join(body))


if __name__ == "__main__":
    main(sys.argv[1:])
