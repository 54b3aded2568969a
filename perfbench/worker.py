"""One repetition of a workload, in a fresh process.

``perfbench/run.py`` spawns this module once per repetition, with a
scrubbed environment whose cache, runs, home and corpus directories are
private to the repetition::

    python3 -m perfbench.worker --workload W --seed N --spawned-at T \\
        --out RESULT.json [--trace [--spans FILE]] [--write-expected]

Set-up runs from process start (``T``, a ``time.monotonic`` reading taken
by the parent just before the spawn) to the start of the timed section:
imports and input generation. ``--phase fill`` is ``paper_warm``'s cache
fill, run by the parent in a process of its own, which adds its time to
the set-up of the repetitions reading that cache. Outputs are checked
after the timed section; the result goes to ``RESULT.json``.
"""

from __future__ import annotations

import argparse
import gc
import json
import os
import resource
import sys
import time
import traceback

#: Iterations of the host-noise reference loop (~0.1 s on the bench host).
REFERENCE_ITERATIONS = 1_000_000


def reference_loop():
    """Time fixed pure-Python work: a slow host phase shows up here."""
    start = time.monotonic()
    total = 0
    for i in range(REFERENCE_ITERATIONS):
        total += i * i % 7
    return time.monotonic() - start


def failed_operations(attempted, failures, error):
    """Every operation fails when the timed section raised; otherwise each
    distinct operation named in ``failures`` (``(operation, detail)``)."""
    if error is not None:
        return attempted
    return len({operation for operation, _ in failures})


def _children_usage():
    usage = resource.getrusage(resource.RUSAGE_CHILDREN)
    return usage.ru_utime, usage.ru_stime, usage.ru_minflt


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--phase", choices=("timed", "fill"), default="timed")
    parser.add_argument("--spawned-at", type=float)
    parser.add_argument("--out")
    parser.add_argument("--trace", action="store_true")
    parser.add_argument("--spans")
    parser.add_argument("--write-expected", action="store_true")
    args = parser.parse_args(argv)

    from perfbench import workloads

    if args.workload not in workloads.WORKLOADS:
        parser.error(f"unknown workload {args.workload!r}")
    if args.phase == "fill":
        workloads.fill_cache(args.seed)
        return 0

    forks = [0]
    os.register_at_fork(before=lambda: forks.__setitem__(0, forks[0] + 1))
    paper = args.workload in workloads.PAPER_WORKLOADS
    if paper:
        inputs = workloads.profiling_order(args.seed)
    else:
        inputs = workloads.fuzz_programs(args.seed)
    tracer = None
    if args.trace:
        from perfbench.tracing import Tracer

        tracer = Tracer()
        tracer.install()
    gc.collect()
    ref_before = reference_loop()
    setup_s = time.monotonic() - args.spawned_at - ref_before

    children = _children_usage()
    forks_before = forks[0]
    error = None
    if tracer is not None:
        tracer.start()
    start = time.monotonic()
    try:
        if paper:
            runner, sections = workloads.run_paper(
                inputs, os.environ["REPRO_RUNS_DIR"])
        else:
            outcomes = workloads.run_fuzz(inputs)
    except Exception:
        error = traceback.format_exc()
    wall_s = time.monotonic() - start
    if tracer is not None:
        tracer.stop()
        tracer.uninstall()
    peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024
    ref_after = reference_loop()

    # -- checks, all outside the timed section ------------------------------------
    attempted = len(inputs) + 1  # every program, plus the run as a whole
    failures = []  # (operation, detail)
    if forks[0] != forks_before or _children_usage() != children:
        failures.append(("run", "the timed section spawned a child process"))
    digests = None
    if error is not None:
        failures.append(("run", error))
    elif paper:
        failures.extend(
            ("run", detail)
            for detail in workloads.paper_cache_failures(args.workload, runner)
        )
        digests = workloads.paper_digests(runner, sections)
        if args.write_expected:
            workloads.EXPECTED_PAPER.write_text(
                json.dumps(digests, indent=1, sort_keys=True) + "\n")
        else:
            failures.extend(
                workloads.check_paper(digests, workloads.load_expected()))
    else:
        digests = workloads.fuzz_digests(inputs, outcomes)
        failures.extend(workloads.fuzz_failures(inputs, outcomes))
    failed = failed_operations(attempted, failures, error)

    result = {
        "workload": args.workload,
        "seed": args.seed,
        "wall_s": wall_s,
        "setup_s": setup_s,
        "peak_rss_mb": peak_rss_mb,
        "reference_loop_s": [ref_before, ref_after],
        "attempted": attempted,
        "failed": failed,
        "failures": [list(failure) for failure in failures],
        "digests": digests,
    }
    if tracer is not None:
        from perfbench.tracing import measure_overhead

        layers = tracer.layer_metrics()
        plain_s, instrumented_s = measure_overhead(tracer.profiled_runs)
        layers["interp.plain_s"] = plain_s
        layers["recorder.overhead_x"] = (
            instrumented_s / plain_s if plain_s else 0.0)
        result["layers"] = layers
        result["unattributed_s"] = tracer.self_s["other"]
        result["missing_entry_points"] = tracer.missing
        if args.spans:
            tracer.write_spans(args.spans, f"{args.workload}-{args.seed}")
    with open(args.out, "w") as handle:
        json.dump(result, handle)
    return 0


if __name__ == "__main__":
    sys.exit(main())
