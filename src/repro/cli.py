"""Command-line interface: ``python -m repro <command> ...``.

Commands:

* ``run FILE``        — compile and execute a MiniC program, print result,
  cost, and any ``print_*`` output.
* ``census FILE``     — the Table-I view: per-loop phi and call-site
  classification.
* ``crosscheck``      — join static dependence verdicts against dynamic
  profiles (a FILE or the bench suites) and print the agreement table;
  exits non-zero if any statically-proved DOALL loop conflicted
  dynamically.
* ``transform``       — before/after view of the structural-transform
  pipeline (loop fission/peeling/fusion) on a FILE or the bench suites:
  the "parallelism unlocked by transformation" figure, per-loop joins via
  loop provenance (``--loops``), and optional dynamic re-verification of
  every post-transform DOALL proof (``--crosscheck``).
* ``fuzz``            — differential fuzzing: generate seeded MiniC
  programs (``--seed --count --profile``), run every oracle on each
  (per-stage IR verification of one compile per pipeline mode,
  byte-equality of its profiles on the reference interpreter and the
  jit/vec tiers, transform observational safety, static-DOALL
  soundness, no runtime fault), delta-minimize and quarantine any
  disagreement in the corpus (``fuzz_corpus/``, or the directory
  ``REPRO_FUZZ_CORPUS`` names); ``--replay CASE`` re-runs one
  quarantined reproducer. ``--count`` and ``--time-budget`` must be
  above 0.
* ``evaluate FILE``   — evaluate one or more configurations (``--config``,
  repeatable; defaults to the paper's 14).
* ``diagnose FILE``   — per-loop relaxation ladder: the first configuration
  at which each loop parallelizes.
* ``calltls FILE``    — function-call/continuation TLS estimate (§I
  extension): per call site, how much callee time the continuation hides.
* ``figures``         — the full paper run: Table I and the crosscheck,
  transform and advisor reports, then Figures 2-5 over the bundled
  synthetic suites, always computed from profiles and recorded in a run
  manifest (``--write-experiments-md`` also writes
  EXPERIMENTS_MEASURED.md). ``REPRO_CACHE_DIR`` places both caches and
  ``REPRO_RUNS_DIR`` the run manifests. A killed run is recovered by
  running it again: its finished profiles are in the profile store.
  Exits 1 with a ``FAIL:`` line per violation if a statically proved
  DOALL loop conflicted (an advised-parallel loop is always one), or too
  few loops resolved statically. ``--suite`` instead prints one suite's
  speedups and records no run.
* ``bench``           — list the bundled benchmarks.
* ``vec-report``      — per-loop vectorizer decisions (a FILE or
  ``--bench``): which innermost loops the vector tier takes, each
  bailout's reason, and the aggregate histogram.
* ``cache``           — show (``info``), wipe (``clear``), or summarize
  (``stats``, adding the hit/miss tallies of the most recent recorded
  run) both persistent caches: the profile store and the JIT code cache,
  placed by ``REPRO_CACHE_DIR``.
* ``runs``            — inspect recorded runs: ``list`` (default),
  ``show RUN_ID`` (the run manifest: tasks done, cache hits, outcome
  tallies), ``clean``. Runs are written by ``figures`` and ``fuzz``, under
  ``REPRO_RUNS_DIR``.

A command that takes a FILE or a bench selection (``--suite``, ``--bench``)
refuses both together with exit status 2. There are no global options: a
FILE is profiled with :class:`~repro.core.framework.Loopapalooza`'s default
instruction budget, the suites with :class:`~repro.bench.SuiteRunner`'s,
and fuzz cases with the campaign's.
"""

from __future__ import annotations

import argparse
import pathlib
import sys
import time

from .core.config import LPConfig, paper_configurations
from .core.framework import Loopapalooza
from .core.static_info import (
    PHI_COMPUTABLE,
    PHI_NONCOMPUTABLE,
    PHI_REDUCTION,
)
from .errors import ReproError

_LADDER = [
    ("doall:reduc0-dep0-fn0", "plain DOALL"),
    ("doall:reduc1-dep0-fn0", "+ reduction hardware"),
    ("pdoall:reduc1-dep0-fn0", "+ transactional restart"),
    ("pdoall:reduc1-dep2-fn0", "+ value prediction"),
    ("pdoall:reduc1-dep2-fn2", "+ parallel calls (fn2)"),
    ("helix:reduc1-dep1-fn2", "+ per-LCD synchronization (HELIX)"),
    ("pdoall:reduc0-dep3-fn3", "+ oracle prediction, all calls"),
]

_CLASS_SHORT = {
    PHI_COMPUTABLE: "computable",
    PHI_REDUCTION: "reduction",
    PHI_NONCOMPUTABLE: "non-computable",
}


def _load(path):
    with open(path) as handle:
        source = handle.read()
    return Loopapalooza(source, name=path)


def _cmd_run(args, out):
    lp = _load(args.file)
    profile = lp.profile()
    print(f"result: {profile.result}", file=out)
    print(f"dynamic IR instructions: {profile.total_cost}", file=out)
    if lp.output:
        print("program output:", file=out)
        for value in lp.output:
            print(f"  {value}", file=out)
    return 0


def _cmd_census(args, out):
    lp = _load(args.file)
    for loop_id in lp.loop_ids():
        static = lp.describe_loop(loop_id)
        print(f"loop {loop_id} (depth {static.depth})", file=out)
        if not static.trackable:
            print("  not trackable (unsimplified form)", file=out)
            continue
        for key, cls in sorted(static.phi_classes.items()):
            name = key.rsplit(":", 1)[1]
            print(f"  phi %{name}: {_CLASS_SHORT[cls]}", file=out)
        if static.call_classes:
            print(f"  calls: {', '.join(sorted(static.call_classes))}",
                  file=out)
    return 0


def _cmd_evaluate(args, out):
    lp = _load(args.file)
    configs = (
        [LPConfig.parse(text) for text in args.config]
        if args.config else paper_configurations()
    )
    print(f"{'configuration':30s}{'speedup':>10s}{'coverage':>10s}", file=out)
    for config in configs:
        result = lp.evaluate(config)
        print(
            f"{config.name:30s}{result.speedup:>9.2f}x"
            f"{result.coverage * 100:>9.1f}%",
            file=out,
        )
    return 0


def _cmd_diagnose(args, out):
    lp = _load(args.file)
    lp.profile()
    verdicts = {loop_id: None for loop_id in lp.loop_ids()}
    for config_name, label in _LADDER:
        result = lp.evaluate(config_name)
        for loop_id, summary in result.loops.items():
            if verdicts.get(loop_id) is None and summary.is_parallel \
                    and summary.speedup > 1.05:
                verdicts[loop_id] = (label, summary.speedup)
    for loop_id in lp.loop_ids():
        verdict = verdicts.get(loop_id)
        if verdict is None:
            print(f"{loop_id:28s} never parallel", file=out)
        else:
            label, speedup = verdict
            print(f"{loop_id:28s} unlocks at {label} ({speedup:.1f}x)",
                  file=out)
    return 0


def _cmd_figures(args, out):
    """The full paper run (or, with ``--suite``, one suite's speedups).
    Exits 1 if the run's own crosscheck or advisor report shows a
    soundness violation; everything is printed either way."""
    from .bench.suites import SuiteRunner, suite_programs
    from .reporting.experiments import (
        PAPER_HEADLINES,
        format_experiments_md,
        paper_run,
    )
    from .runtime.telemetry import RunTelemetry, format_run_summary

    if args.suite and args.write_experiments_md:
        print("error: --suite prints one suite's speedups, not the paper's "
              "sections, so it cannot be combined with "
              "--write-experiments-md", file=sys.stderr)
        return 2
    start = time.time()
    runner = SuiteRunner()
    if args.suite:
        from .reporting.stats import geomean

        suite_programs(args.suite)  # an unknown suite fails before output
        print(f"{'configuration':30s}{'geomean speedup':>18s}", file=out)
        for config in paper_configurations():
            speedups = runner.suite_speedups(args.suite, config)
            print(f"{config.name:30s}{geomean(speedups.values()):>17.2f}x",
                  file=out)
        return 0
    telemetry = RunTelemetry.create()
    print(f"run id: {telemetry.run_id}", file=out)
    print("profiling and evaluating the bundled suites...", file=out,
          flush=True)
    try:
        sections, violations = paper_run(runner, telemetry)
    except BaseException:
        # The profiles finished so far are in the store, so running the
        # command again measures only the rest.
        telemetry.finish(status="interrupted")
        raise
    telemetry.finish(status="unsound" if violations else "complete")

    for title, text in sections:
        print(file=out)
        print(f"##### {title} " + "#" * max(0, 60 - len(title)), file=out)
        print(text, file=out)
    print(file=out)
    print(PAPER_HEADLINES, file=out)
    print(f"\ntotal wall time: {time.time() - start:.1f}s", file=out)
    print(f"profiles measured this run: {runner.profiles_measured} "
          f"(cache hits skip re-profiling)", file=out)
    if runner.store is not None:
        print(f"profile store: {runner.store.root} "
              f"[{runner.store.stats.describe()}]", file=out)
    print(file=out)
    print("run telemetry " + "-" * 46, file=out)
    print(format_run_summary(telemetry.summary()), file=out)
    print(f"manifest: {telemetry.manifest_path}", file=out)
    if args.write_experiments_md:
        pathlib.Path("EXPERIMENTS_MEASURED.md").write_text(
            format_experiments_md(sections))
        print("EXPERIMENTS_MEASURED.md updated.", file=out)
    for violation in violations:
        print(f"FAIL: {violation}", file=sys.stderr)
    return 1 if violations else 0


def _cmd_cache(args, out):
    from .runtime.profile_store import CodeCache, ProfileStore
    from .runtime.telemetry import list_runs

    stores = (("profile store", ProfileStore()), ("code cache", CodeCache()))
    if args.action == "clear":
        for label, store in stores:
            print(f"removed {store.clear()} entries from the {label} at "
                  f"{store.root}", file=out)
        return 0
    for label, store in stores:
        info = store.info()
        print(f"{label} at {info['root']}", file=out)
        print(f"  schema:  {info['schema']}", file=out)
        print(f"  entries: {info['entries']}", file=out)
        if info["earlier_entries"]:
            print(f"  earlier-layout entries: {info['earlier_entries']} "
                  f"(removed by clear)", file=out)
        print(f"  size:    {info['size_bytes']} bytes", file=out)
        if "cap" in info:
            print(f"  cap:     {info['cap']} entries", file=out)
    if args.action == "info":
        return 0
    # stats: the hit/miss tallies recorded by the most recent run.
    runs = list_runs()
    if not runs:
        print("no recorded runs (hit/miss tallies appear after a sweep)",
              file=out)
        return 0
    manifest = runs[0]
    print(f"last run {manifest.get('run_id', '?')} "
          f"[{manifest.get('status', '?')}]", file=out)
    print(f"  profile cache: {manifest.get('cache_hits', 0)} hits, "
          f"{manifest.get('cache_misses', 0)} misses", file=out)
    for name, stats in sorted((manifest.get("cache_stats") or {}).items()):
        print(f"  {name}: {stats.get('entries', 0)} entries, "
              f"{stats.get('size_bytes', 0)} bytes, "
              f"{stats.get('hits', 0)} hits, {stats.get('misses', 0)} misses",
              file=out)
    return 0


def _cmd_runs(args, out):
    from .runtime.telemetry import (
        format_run_summary,
        format_runs_table,
        list_runs,
        load_manifest,
        purge_runs,
        runs_root,
    )

    root = runs_root()
    if args.action == "clean":
        removed = purge_runs(root)
        print(f"removed {removed} recorded run(s) from {root}", file=out)
        return 0
    if args.action == "show":
        if not args.run_id:
            print("error: `repro runs show` needs a RUN_ID", file=sys.stderr)
            return 1
        manifest = load_manifest(args.run_id, root)
        if manifest is None:
            print(f"error: no run {args.run_id!r} under {root}",
                  file=sys.stderr)
            return 1
        print(format_run_summary(manifest), file=out)
        return 0
    print(f"runs at {root}", file=out)
    print(format_runs_table(list_runs(root)), file=out)
    return 0


def _cmd_calltls(args, out):
    from .core.call_tls import estimate_call_tls, format_call_tls

    lp = _load(args.file)
    report = estimate_call_tls(lp.profile())
    print(format_call_tls(report), file=out)
    return 0


def _cmd_bench(args, out):
    from .bench import all_programs

    for program in all_programs():
        print(f"{program.full_name:36s} {program.description}", file=out)
    return 0


def _cmd_vec_report(args, out):
    """Per-loop vectorizer decisions: which loops the vector tier takes,
    and why the rest bail out."""
    from .frontend.codegen import compile_source
    from .interp.veccodegen import summarize_vec_decisions, vector_decisions

    if args.bench:
        from .bench import all_programs, find_program
        from .bench.suites import ALL_SUITES, suite_programs

        if args.bench == "all":
            programs = all_programs()
        elif args.bench in ALL_SUITES:
            programs = suite_programs(args.bench)
        else:
            programs = [find_program(args.bench)]
        targets = [
            (p.full_name, compile_source(p.source)) for p in programs
        ]
    elif args.file:
        with open(args.file) as handle:
            source = handle.read()
        targets = [(args.file, compile_source(source))]
    else:
        print("error: `repro vec-report` needs a FILE or --bench",
              file=sys.stderr)
        return 2

    combined = []
    for name, module in targets:
        decisions = vector_decisions(module)
        combined.extend(decisions)
        print(name, file=out)
        if not decisions:
            print("  (no innermost loops)", file=out)
        for decision in decisions:
            if decision["status"] == "vectorized":
                print(f"  {decision['loop_id']:32s} vectorized "
                      f"(trip {decision['trip']})", file=out)
            else:
                print(f"  {decision['loop_id']:32s} bailout: "
                      f"{decision['reason']}", file=out)
    summary = summarize_vec_decisions(combined)
    print(file=out)
    print(f"{summary['loops']} innermost loop(s): "
          f"{summary['vectorized']} vectorized "
          f"({summary['static_trip']} static trip, "
          f"{summary['runtime_trip']} runtime trip)", file=out)
    for reason, count in sorted(
        summary["bailouts"].items(), key=lambda item: (-item[1], item[0])
    ):
        print(f"  {reason:32s} {count}", file=out)
    return 0


def _cmd_transform(args, out):
    """Before/after view of the structural-transform pipeline
    (fission/peeling/fusion): which loops gained a DOALL proof."""
    from .reporting.transform_report import (
        TransformReport,
        format_transform_figure,
        transform_program,
        transform_suites,
    )

    if args.file:
        with open(args.file) as handle:
            source = handle.read()
        rows, log = transform_program(source, args.file)
        report = TransformReport(rows, log)
        sources = [(args.file, source)]
    else:
        from .bench.suites import ALL_SUITES, suite_programs

        suites = [args.suite] if args.suite else None
        report = transform_suites(suites=suites)
        sources = [
            (program.full_name, program.source)
            for suite in (suites if suites else list(ALL_SUITES))
            for program in suite_programs(suite)
        ]
    print(format_transform_figure(report, verbose=args.loops), file=out)
    if not args.crosscheck:
        return 0

    # Re-verification: profile the *transformed* programs and join their
    # static verdicts against observed conflicts. Any post-transform
    # STATIC_DOALL with a dynamic conflict is a soundness bug in a
    # transform pass (or in the dependence engine it leaned on).
    from .reporting.crosscheck import (
        CrosscheckReport,
        crosscheck_program,
        format_crosscheck,
    )

    rows = []
    for name, source in sources:
        lp = Loopapalooza(source, name=name, transform=True)
        rows.extend(crosscheck_program(lp, name))
    crosscheck = CrosscheckReport(rows)
    print(file=out)
    print("post-transform re-verification", file=out)
    print(format_crosscheck(crosscheck), file=out)
    return 1 if crosscheck.unsound else 0


def _cmd_fuzz(args, out):
    """Differential fuzzing: generate seeded MiniC programs, run every
    oracle on each, shrink and quarantine any disagreement."""
    from .fuzz.corpus import load_case, replay_case
    from .fuzz.harness import fuzz_campaign
    from .runtime.telemetry import RunTelemetry, format_run_summary

    if args.replay:
        case = load_case(args.replay)
        if case is None:
            print(f"error: no quarantined case {args.replay!r} "
                  f"(looked in the corpus and as a path)", file=sys.stderr)
            return 2
        print(f"replaying {case.case_id} "
              f"(seed {case.seed}, profile {case.profile}, "
              f"quarantined oracle: {case.oracle})", file=out)
        report = replay_case(case)
        print(report.describe(), file=out)
        if report.ok:
            print("case no longer reproduces on this pipeline — the "
                  "corpus entry can be kept as a regression guard",
                  file=out)
            return 0
        return 1

    telemetry = RunTelemetry.create()
    print(f"run id: {telemetry.run_id}", file=out)
    summary = fuzz_campaign(
        seed=args.seed,
        count=args.count,
        profile=args.profile,
        time_budget=args.time_budget,
        telemetry=telemetry,
        shrink=not args.no_shrink,
        log=lambda message: print(message, file=out),
    )
    telemetry.finish(status="complete" if summary.ok else "quarantined")
    print(summary.describe(), file=out)
    print(file=out)
    print(format_run_summary(telemetry.summary()), file=out)
    return 0 if summary.ok else 1


def _cmd_crosscheck(args, out):
    from .reporting.crosscheck import (
        CrosscheckReport,
        crosscheck_program,
        crosscheck_suites,
        format_crosscheck,
    )

    if args.file:
        lp = _load(args.file)
        report = CrosscheckReport(crosscheck_program(lp))
    else:
        from .bench import SuiteRunner

        runner = SuiteRunner()
        suites = [args.suite] if args.suite else None
        report = crosscheck_suites(runner, suites=suites)
    print(format_crosscheck(report, verbose=args.loops), file=out)
    return 1 if report.unsound else 0


def _cmd_advise(args, out):
    """Per-loop parallelizability advice with an evidence chain; with
    ``--crosscheck`` every advised-parallel loop is gated on a
    conflict-free dynamic profile."""
    from .reporting.advisor import (
        AdvisorReport,
        advise_program,
        advise_suites,
        format_advice,
    )

    if args.file:
        lp = _load(args.file)
        report = AdvisorReport(
            advise_program(lp, crosscheck=args.crosscheck))
    else:
        from .bench import SuiteRunner

        runner = SuiteRunner()
        suites = None if args.suite in (None, "all") else [args.suite]
        report = advise_suites(runner, suites=suites,
                               crosscheck=args.crosscheck)
    print(format_advice(report, verbose=args.loops), file=out)
    return 1 if report.unsound else 0


def _positive(kind):
    """An argparse type: ``kind(text)``, refused unless above zero, so a
    bad value exits 2 before any work is done."""

    def parse(text):
        value = kind(text)
        if not value > 0:
            raise argparse.ArgumentTypeError(f"must be above 0, got {text}")
        return value

    parse.__name__ = kind.__name__  # argparse's "invalid int value"
    return parse


def build_parser():
    parser = argparse.ArgumentParser(
        prog="repro",
        description="Loopapalooza: compiler-driven loop-level parallelism "
                    "limit study (ISPASS 2021 reproduction)",
    )
    commands = parser.add_subparsers(dest="command", required=True)

    for name, handler, needs_file in (
        ("run", _cmd_run, True),
        ("census", _cmd_census, True),
        ("evaluate", _cmd_evaluate, True),
        ("diagnose", _cmd_diagnose, True),
        ("calltls", _cmd_calltls, True),
        ("crosscheck", _cmd_crosscheck, False),
        ("advise", _cmd_advise, False),
        ("fuzz", _cmd_fuzz, False),
        ("transform", _cmd_transform, False),
        ("figures", _cmd_figures, False),
        ("bench", _cmd_bench, False),
        ("vec-report", _cmd_vec_report, False),
        ("cache", _cmd_cache, False),
        ("runs", _cmd_runs, False),
    ):
        sub = commands.add_parser(name)
        sub.set_defaults(handler=handler)
        if needs_file:
            sub.add_argument("file", help="MiniC source file")
        if name == "transform":
            sub.add_argument("file", nargs="?", default=None,
                             help="MiniC source file (default: all bench "
                                  "suites)")
            sub.add_argument(
                "--suite", default=None,
                help="restrict the bench comparison to one suite",
            )
            sub.add_argument(
                "--loops", action="store_true",
                help="print the per-loop before/after join, not just the "
                     "figure",
            )
            sub.add_argument(
                "--crosscheck", action="store_true",
                help="also profile the transformed programs and re-verify "
                     "every post-transform STATIC_DOALL against observed "
                     "conflicts; exits non-zero on any unsound verdict",
            )
        if name == "crosscheck":
            sub.add_argument("file", nargs="?", default=None,
                             help="MiniC source file (default: all bench "
                                  "suites)")
            sub.add_argument(
                "--suite", default=None,
                help="restrict the bench crosscheck to one suite",
            )
            sub.add_argument(
                "--loops", action="store_true",
                help="print the per-loop join, not just the tallies",
            )
        if name == "advise":
            sub.add_argument("file", nargs="?", default=None,
                             help="MiniC source file (default: all bench "
                                  "suites)")
            sub.add_argument(
                "--suite", nargs="?", const="all", default=None,
                help="advise the shipped benchmarks: a suite name, or no "
                     "value for all suites (this is also the default when "
                     "no FILE is given)",
            )
            sub.add_argument(
                "--crosscheck", action="store_true",
                help="profile each program and require every advised "
                     "@parallel/@reduce loop to have run conflict-free; "
                     "exits non-zero on any violation",
            )
            sub.add_argument(
                "--loops", action="store_true",
                help="also print unadvised loops with their blocking "
                     "evidence",
            )
        if name == "fuzz":
            sub.add_argument(
                "--seed", type=int, default=0,
                help="first generator seed (default: 0)",
            )
            sub.add_argument(
                "--count", type=_positive(int), default=100,
                help="number of consecutive seeds to fuzz (default: 100)",
            )
            sub.add_argument(
                "--time-budget", type=_positive(float), default=None,
                metavar="SECONDS",
                help="stop starting new cases after this much wall time",
            )
            sub.add_argument(
                "--profile", default="mixed",
                choices=("affine", "calls", "transforms", "mixed"),
                help="generator grammar bias (default: mixed)",
            )
            sub.add_argument(
                "--replay", default=None, metavar="CASE",
                help="re-run the oracle on one quarantined case (a case id "
                     "like mixed-s7-backends, or a path to its JSON file); "
                     "exits 1 while the case still reproduces",
            )
            sub.add_argument(
                "--no-shrink", action="store_true",
                help="quarantine the original program without "
                     "delta-minimizing it first",
            )
        if name == "evaluate":
            sub.add_argument(
                "--config", action="append", default=[],
                help="configuration like helix:reduc1-dep1-fn2 (repeatable; "
                     "default: the paper's 14)",
            )
        if name == "figures":
            sub.add_argument(
                "--suite",
                help="print one suite's geomean speedups instead (records "
                     "no run, so not with --write-experiments-md)",
            )
            sub.add_argument(
                "--write-experiments-md", action="store_true",
                help="also write every section to EXPERIMENTS_MEASURED.md "
                     "in the working directory",
            )
        if name == "runs":
            sub.add_argument(
                "action", choices=("list", "show", "clean"), nargs="?",
                default="list", help="list runs, show one manifest, or "
                "delete all recorded runs",
            )
            sub.add_argument("run_id", nargs="?", default=None,
                             help="run id (for `show`); runs live under "
                                  "REPRO_RUNS_DIR (default: "
                                  "~/.cache/repro/runs)")
        if name == "vec-report":
            sub.add_argument("file", nargs="?", default=None,
                             help="MiniC source file")
            sub.add_argument(
                "--bench", default=None, metavar="NAME",
                help="report on shipped benchmarks instead of a file: "
                     "'suite/name', a whole suite, or 'all'",
            )
        if name == "cache":
            sub.add_argument(
                "action", choices=("info", "clear", "stats"), nargs="?",
                default="info", help="show or wipe both caches (the profile "
                "store and the code cache, placed by REPRO_CACHE_DIR); "
                "`stats` adds the hit/miss tallies of the last run under "
                "REPRO_RUNS_DIR",
            )
    return parser


def main(argv=None, out=None):
    out = out if out is not None else sys.stdout
    parser = build_parser()
    args = parser.parse_args(argv)
    if getattr(args, "file", None) is not None:
        # A FILE and a bench selection are two targets; run neither
        # rather than silently drop one.
        for option in ("suite", "bench"):
            if getattr(args, option, None) is not None:
                print(f"error: `repro {args.command}` takes a FILE or "
                      f"--{option}, not both", file=sys.stderr)
                return 2
    try:
        return args.handler(args, out)
    except ReproError as error:
        print(f"error: {error}", file=sys.stderr)
        return 1
    except OSError as error:
        print(f"error: {error}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    raise SystemExit(main())
