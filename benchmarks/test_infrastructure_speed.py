"""Infrastructure throughput benchmarks (engineering health, not paper data):

* MiniC compile throughput (frontend + full pass pipeline),
* interpreter throughput in IR instructions/second,
* instrumented-profiling overhead factor,
* per-configuration evaluation latency on a profiled benchmark.

Run: ``pytest benchmarks/test_infrastructure_speed.py --benchmark-only``
"""

import pytest

from repro.bench import find_program
from repro.core import BEST_HELIX, Loopapalooza
from repro.core.evaluator import evaluate_config
from repro.frontend import compile_source
from repro.interp.interpreter import Interpreter
from repro.runtime.recorder import ProfilingRuntime

KERNEL = find_program("specfp2000/swim_like").source


def test_compile_throughput(benchmark):
    module = benchmark(compile_source, KERNEL)
    assert module.get_function("main").blocks


@pytest.mark.parametrize("backend", ["jit"])
def test_interpreter_throughput(benchmark, backend):
    module = compile_source(KERNEL)
    # Warm run outside the timer: compiles the JIT templates.
    Interpreter(module, backend=backend).run("main")

    def run():
        machine = Interpreter(module, backend=backend)
        machine.run("main")
        return machine.cost

    cost = benchmark(run)
    assert cost > 100_000
    # Attach a derived metric: IR instructions per second.
    benchmark.extra_info["ir_instructions"] = cost


@pytest.mark.parametrize("backend", ["jit"])
def test_profiling_overhead(benchmark, backend):
    """One instrumented profiling run over a precompiled module.

    Compilation and the uninstrumented baseline happen once, outside the
    timer, so the measurement isolates the profiling overhead itself (and
    never touches the persistent profile store). The assertion is the
    fast-path invariant: instrumentation — hooks, batching, JIT event
    buffers — must not change the dynamic IR instruction count.
    """
    lp = Loopapalooza(KERNEL, "overhead_probe", backend=backend)
    baseline_cost = lp.run_uninstrumented()[1]

    def profile_instrumented():
        runtime = ProfilingRuntime("overhead_probe")
        machine = Interpreter(
            lp.module, runtime, lp.instrumentation, fuel=lp.fuel,
            backend=backend,
        )
        runtime.attach(machine)
        result = machine.run("main")
        return runtime.finish(machine.cost, result).total_cost

    cost = benchmark(profile_instrumented)
    assert cost == baseline_cost
    benchmark.extra_info["baseline_cost"] = baseline_cost


def test_evaluation_latency(benchmark):
    lp = Loopapalooza(KERNEL, "eval_probe")
    profile = lp.profile()

    def evaluate():
        return evaluate_config(profile, lp.static_info, BEST_HELIX)

    result = benchmark(evaluate)
    assert result.speedup > 1.0
