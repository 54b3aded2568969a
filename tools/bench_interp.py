#!/usr/bin/env python
"""Interpreter backend throughput tracker: ``make bench-interp``.

Times the closure, scalar-JIT, and vector backends — uninstrumented
execution and one instrumented profiling run — on a numeric kernel,
then appends the
measurement as a row under ``interp_backend_rows`` in
BENCH_infrastructure.json (the same file ``make bench`` writes its
pytest-benchmark dump to; the rows ride alongside and survive that
rewrite only until the next ``make bench``, so treat this as a local
engineering log, not paper data).
"""

import json
import pathlib
import sys
import time

from repro.bench import find_program
from repro.core.framework import Loopapalooza
from repro.frontend import compile_source
from repro.interp.interpreter import Interpreter
from repro.runtime.recorder import ProfilingRuntime

KERNEL_NAME = "specfp2000/swim_like"
BENCH_FILE = pathlib.Path(__file__).resolve().parent.parent / (
    "BENCH_infrastructure.json"
)


def _best(run, repeats=3):
    times = []
    for _ in range(repeats):
        start = time.perf_counter()
        run()
        times.append(time.perf_counter() - start)
    return min(times)


def measure(kernel_name=KERNEL_NAME):
    source = find_program(kernel_name).source
    module = compile_source(source)
    lp = Loopapalooza(source, "bench_interp")
    row = {"kernel": kernel_name, "time": time.time(), "backends": {}}
    for backend in ("closure", "jit", "vec"):

        def run_plain():
            machine = Interpreter(module, backend=backend)
            machine.run("main")
            return machine.cost

        def run_instrumented():
            runtime = ProfilingRuntime("bench_interp")
            machine = Interpreter(
                lp.module, runtime, lp.instrumentation, backend=backend
            )
            runtime.attach(machine)
            result = machine.run("main")
            return runtime.finish(machine.cost, result).total_cost

        cost = run_plain()  # warm run: fuse closures / compile templates
        run_instrumented()
        plain_s = _best(run_plain)
        instrumented_s = _best(run_instrumented)
        row["backends"][backend] = {
            "plain_s": round(plain_s, 6),
            "instrumented_s": round(instrumented_s, 6),
            "instructions": cost,
            "minstr_per_s": round(cost / plain_s / 1e6, 3),
        }
    closure = row["backends"]["closure"]
    jit = row["backends"]["jit"]
    vec = row["backends"]["vec"]
    row["jit_speedup_plain"] = round(closure["plain_s"] / jit["plain_s"], 3)
    row["jit_speedup_instrumented"] = round(
        closure["instrumented_s"] / jit["instrumented_s"], 3
    )
    row["vec_speedup_plain"] = round(jit["plain_s"] / vec["plain_s"], 3)
    row["vec_speedup_instrumented"] = round(
        jit["instrumented_s"] / vec["instrumented_s"], 3
    )
    return row


def append_row(row, path=BENCH_FILE):
    try:
        data = json.loads(path.read_text())
        if not isinstance(data, dict):
            data = {}
    except (OSError, ValueError):
        data = {}
    data.setdefault("interp_backend_rows", []).append(row)
    path.write_text(json.dumps(data, indent=4))


def main():
    row = measure()
    append_row(row)
    for backend, stats in row["backends"].items():
        print(f"{backend:8s} plain {stats['plain_s']:.3f}s "
              f"({stats['minstr_per_s']:.2f} M instr/s), "
              f"instrumented {stats['instrumented_s']:.3f}s")
    print(f"JIT speedup over closure: {row['jit_speedup_plain']}x plain, "
          f"{row['jit_speedup_instrumented']}x instrumented")
    print(f"vec speedup over JIT: {row['vec_speedup_plain']}x plain, "
          f"{row['vec_speedup_instrumented']}x instrumented")
    print(f"row appended to {BENCH_FILE.name}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
