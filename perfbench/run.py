"""The repository's benchmark: one command, three workloads.

    python3 perfbench/run.py --workload {paper_cold,paper_warm,fuzz_oracle}
        --seed N --seconds S --trace {0,1}
    python3 perfbench/run.py --write-expected

Each repetition of a workload runs in a fresh process (``perfbench/worker.py``)
with a scrubbed environment and private, initially empty cache, runs, home
and corpus directories, all deleted afterwards; ``paper_warm``'s cache is
filled once per run, in a child process, and only read by the
repetitions. Repetitions run one after another until their set-up and
timed sections add up to ``--seconds`` (at least ``MIN_REPS`` of them);
the end-to-end metrics are their medians.

``--trace 1`` runs one untraced and one traced repetition instead and
reports the per-layer metrics of the traced one (see ``tracing.py``).

The last line of standard output is one JSON object with ``correct``,
``attempted``, ``failed`` and ``metrics``; the metric names and units come
from ``BENCHMARK.json``. ``--write-expected`` regenerates
``perfbench/expected/paper.json`` from one ``paper_cold`` repetition.
"""

from __future__ import annotations

import argparse
import json
import os
import pathlib
import shutil
import signal
import statistics
import subprocess
import sys
import tempfile
import time

ROOT = pathlib.Path(__file__).resolve().parent.parent
BENCH = ROOT / "perfbench"
#: Where per-repetition private directories live while a run lasts.
SCRATCH = BENCH / "tmp"
#: Where the traced run writes its spans.
OUT = BENCH / "out"

WORKLOADS = ("paper_cold", "paper_warm", "fuzz_oracle")
#: Repetitions per untraced run, at least: medians need more than one.
MIN_REPS = 2
#: No repetition starts once it would likely end the run past this.
RUN_BUDGET_S = 140
#: A repetition that takes longer than this has hung.
REP_TIMEOUT_S = 120


def worker_env(private):
    """The environment of a repetition: no inherited ``REPRO_*`` or
    ``PYTHON*`` variable, a pinned hash seed, and every directory the
    program may write (cache, runs, home, corpus, temp) private."""
    env = {
        key: value for key, value in os.environ.items()
        if not key.startswith(("REPRO_", "PYTHON"))
    }
    env.update({
        # ``perfbench`` itself is found from the working directory, ROOT.
        "PYTHONPATH": str(ROOT / "src"),
        "PYTHONHASHSEED": "0",
        # One root for the profile store and the code cache.
        "REPRO_CACHE_DIR": str(private / "cache"),
        "REPRO_RUNS_DIR": str(private / "runs"),
        "REPRO_FUZZ_CORPUS": str(private / "corpus"),
        # The par tier's serial one-worker mode: no pool, no shared memory.
        "REPRO_PAR_WORKERS": "1",
        "HOME": str(private / "home"),
        "TMPDIR": str(private / "tmp"),
        "OMP_NUM_THREADS": "1",
        "OPENBLAS_NUM_THREADS": "1",
        "MKL_NUM_THREADS": "1",
    })
    return env


def _spawn(command, env, timeout):
    """Run ``command`` in its own process group; on timeout or interrupt
    kill the whole group (a worker may have a cache-fill child) and wait."""
    process = subprocess.Popen(
        command, cwd=ROOT, env=env, stdout=subprocess.PIPE,
        stderr=subprocess.PIPE, text=True, start_new_session=True,
    )
    try:
        _, stderr = process.communicate(timeout=timeout)
    except BaseException:
        os.killpg(process.pid, signal.SIGKILL)
        process.communicate()
        raise
    return process.returncode, stderr


def _private_dir(run_dir, prefix):
    private = pathlib.Path(tempfile.mkdtemp(prefix=prefix, dir=run_dir))
    for name in ("cache", "runs", "home", "corpus", "tmp"):
        (private / name).mkdir()
    return private


def fill_warm_cache(workload, seed, run_dir):
    """``paper_warm``'s set-up, once per run: a child process profiles
    every program into a private cache that the run's repetitions then
    only read. Returns the keyword arguments of :func:`run_rep` (the cache
    and the fill's wall time, which each repetition adds to its set-up),
    ``{}`` for other workloads, or ``{"error": ...}``."""
    if workload != "paper_warm":
        return {}
    private = _private_dir(run_dir, "fill-")
    started = time.monotonic()
    try:
        code, stderr = _spawn(
            [sys.executable, "-m", "perfbench.worker", "--workload",
             workload, "--seed", str(seed), "--phase", "fill"],
            worker_env(private), REP_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        return {"error": f"cache fill timed out after {REP_TIMEOUT_S}s"}
    if code != 0:
        return {"error": f"cache fill exited with {code}: "
                         f"{stderr.strip()[-2000:]}"}
    return {"cache": private / "cache", "fill_s": time.monotonic() - started}


def run_rep(workload, seed, run_dir, trace=False, spans=None,
            write_expected=False, cache=None, fill_s=0.0):
    """One repetition in a fresh process; its result dict, or one with an
    ``error`` key when the worker failed. ``cache`` replaces the private
    empty cache (``paper_warm``'s filled one)."""
    private = _private_dir(run_dir, "rep-")
    try:
        out = private / "result.json"
        command = [sys.executable, "-m", "perfbench.worker",
                   "--workload", workload, "--seed", str(seed),
                   "--out", str(out)]
        if trace:
            command.append("--trace")
        if spans:
            command += ["--spans", str(spans)]
        if write_expected:
            command.append("--write-expected")
        env = worker_env(private)
        if cache is not None:
            env["REPRO_CACHE_DIR"] = str(cache)
        try:
            code, stderr = _spawn(
                command + ["--spawned-at", repr(time.monotonic())], env,
                REP_TIMEOUT_S)
        except subprocess.TimeoutExpired:
            return {"error": f"repetition timed out after {REP_TIMEOUT_S}s"}
        if code != 0 or not out.exists():
            return {"error": f"worker exited with {code}: "
                             f"{stderr.strip()[-2000:]}"}
        result = json.loads(out.read_text())
        result["setup_s"] += fill_s
        return result
    finally:
        shutil.rmtree(private, ignore_errors=True)


def compile_bytecode(run_dir):
    """Compile every module once, with the workers' own interpreter and
    environment, so no timed run pays for bytecode compilation."""
    code, stderr = _spawn(
        [sys.executable, "-m", "compileall", "-q", str(ROOT / "src"),
         str(BENCH)],
        worker_env(run_dir), REP_TIMEOUT_S)
    if code != 0:
        raise SystemExit(f"bytecode compilation failed: {stderr}")


def timed_run(workload, seed, seconds, run_dir):
    """Repetitions until ``seconds`` are measured (at least MIN_REPS); a
    repetition measures its set-up and its timed section."""
    started = time.monotonic()
    warm = fill_warm_cache(workload, seed, run_dir)
    if "error" in warm:
        return [warm]
    reps = []
    measured = 0.0
    longest = 0.0
    while len(reps) < MIN_REPS or measured < seconds:
        elapsed = time.monotonic() - started
        if reps and elapsed + longest > RUN_BUDGET_S:
            break
        rep_started = time.monotonic()
        rep = run_rep(workload, seed, run_dir, **warm)
        reps.append(rep)
        if "error" in rep:
            break
        measured += rep["setup_s"] + rep["wall_s"]
        longest = max(longest, time.monotonic() - rep_started)
    return reps


def traced_run(workload, seed, run_dir):
    """One untraced and one traced repetition: ``(reps, per-layer
    metrics, whether the two produced the same digests)``."""
    warm = fill_warm_cache(workload, seed, run_dir)
    if "error" in warm:
        return [warm], {}, False
    OUT.mkdir(exist_ok=True)
    untraced = run_rep(workload, seed, run_dir, **warm)
    traced = run_rep(workload, seed, run_dir, trace=True,
                     spans=OUT / f"trace-{workload}-seed{seed}.jsonl",
                     **warm)
    reps = [untraced, traced]
    if "error" in untraced or "error" in traced:
        return reps, {}, False
    metrics = dict(traced["layers"])
    metrics["trace.overhead_frac"] = (
        (traced["wall_s"] - untraced["wall_s"]) / untraced["wall_s"])
    return reps, metrics, traced["digests"] == untraced["digests"]


def end_to_end(reps):
    good = [rep for rep in reps if "error" not in rep]
    if not good:
        return {}
    return {
        name: statistics.median(rep[name] for rep in good)
        for name in ("wall_s", "setup_s", "peak_rss_mb")
    }


def tally(reps):
    """``(attempted, failed)``; a repetition that died counts as one
    failed operation."""
    attempted = sum(rep.get("attempted", 1) for rep in reps)
    failed = sum(rep.get("failed", 1) for rep in reps)
    return attempted, failed


def report_failures(reps):
    for index, rep in enumerate(reps):
        if "error" in rep:
            print(f"  rep {index}: ERROR {rep['error']}")
            continue
        for operation, detail in rep["failures"][:10]:
            print(f"  rep {index}: FAILED {operation}: {detail.strip()[:500]}")


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--workload", choices=WORKLOADS)
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=10.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--write-expected", action="store_true",
                        help="regenerate perfbench/expected/paper.json")
    args = parser.parse_args(argv)
    if not args.write_expected and args.workload is None:
        parser.error("--workload is required")
    if not (ROOT / "src" / "repro").is_dir():
        print(f"perfbench: no program to measure under {ROOT / 'src'}",
              file=sys.stderr)
        return 2
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())

    SCRATCH.mkdir(exist_ok=True)
    run_dir = pathlib.Path(tempfile.mkdtemp(prefix="run-", dir=SCRATCH))
    try:
        compile_bytecode(run_dir)
        if args.write_expected:
            rep = run_rep("paper_cold", 0, run_dir, write_expected=True)
            if "error" in rep:
                print(rep["error"], file=sys.stderr)
                return 1
            print(f"wrote {BENCH / 'expected' / 'paper.json'}")
            return 0
        if args.trace:
            reps, metrics, consistent = traced_run(
                args.workload, args.seed, run_dir)
            wanted = spec["per_layer"]
        else:
            reps = timed_run(args.workload, args.seed, args.seconds, run_dir)
            metrics = end_to_end(reps)
            consistent = True
            wanted = spec["end_to_end"]
    finally:
        shutil.rmtree(run_dir, ignore_errors=True)
        try:
            SCRATCH.rmdir()  # left in place while another run uses it
        except OSError:
            pass

    attempted, failed = tally(reps)
    good = [rep for rep in reps if "error" not in rep]
    print(f"perfbench {args.workload} seed {args.seed} trace {args.trace}: "
          f"{len(reps)} repetition(s), one fresh process each, "
          f"nproc {os.cpu_count()}")
    for rep in good:
        before, after = rep["reference_loop_s"]
        print(f"  rep: wall {rep['wall_s']:.3f} s, setup "
              f"{rep['setup_s']:.3f} s, reference loop {before:.3f} s "
              f"before / {after:.3f} s after")
    if "unattributed_s" in reps[-1]:
        print(f"  traced time outside every layer: "
              f"{reps[-1]['unattributed_s']:.3f} s")
        if reps[-1]["missing_entry_points"]:
            print(f"  entry points not found, their layers read 0: "
                  f"{reps[-1]['missing_entry_points']}")
    report_failures(reps)
    if not consistent:
        print("  traced and untraced repetitions disagree")
    for entry in wanted:
        if entry["name"] in metrics:
            print(f"  {entry['name']:28s} {metrics[entry['name']]!r} "
                  f"{entry['unit']}")
    print(f"  {'fail_frac':28s} {failed / attempted!r} "
          f"({failed} of {attempted} operations failed)")
    missing = [entry["name"] for entry in wanted
               if entry["name"] not in metrics]
    if missing:
        print(f"perfbench: no value for {missing}", file=sys.stderr)
        return 1
    print(json.dumps({
        "correct": failed == 0 and consistent,
        "attempted": attempted,
        "failed": failed,
        "metrics": {
            entry["name"]: {"value": metrics[entry["name"]],
                            "unit": entry["unit"]}
            for entry in wanted
        },
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
