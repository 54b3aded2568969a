"""Shared non-fixture helpers for the test suite."""

from __future__ import annotations

from repro.core.config import MODELS, LPConfig
from repro.frontend import compile_source
from repro.ir import I32, IRBuilder, Module


def valid_configurations():
    """All 72 configurations ``LPConfig`` accepts (Table II)."""
    return [
        LPConfig(model, reduc, dep, fn)
        for model in MODELS
        for reduc in (0, 1)
        for dep in range(4)
        for fn in range(4)
        if model != "doall" or dep == 0
    ]


def build_counting_loop(trip=10):
    """IR module: ``for (i = 0; i < trip; ++i);`` returning ``trip``.

    A minimal hand-built loop used by IR-level tests.
    """
    module = Module("counting")
    function = module.add_function("f", I32, [])
    entry = function.append_block("entry")
    header = function.append_block("header")
    body = function.append_block("body")
    exit_block = function.append_block("exit")
    b = IRBuilder(entry)
    b.br(header)
    b.position_at_end(header)
    iv = b.phi(I32, "i")
    cond = b.icmp("slt", iv, b.const_int(trip), "cond")
    b.condbr(cond, body, exit_block)
    b.position_at_end(body)
    nxt = b.add(iv, b.const_int(1), "inext")
    b.br(header)
    iv.add_incoming(b.const_int(0), entry)
    iv.add_incoming(nxt, body)
    b.position_at_end(exit_block)
    b.ret(iv)
    return module, function


def minic_programs(profiles=("affine", "calls", "transforms", "mixed"),
                   max_seed=100_000):
    """Hypothesis strategy over generated MiniC programs.

    Draws a ``(seed, profile)`` pair and returns the corresponding
    :class:`repro.fuzz.genprog.GeneratedProgram` — the same grammar the
    ``repro fuzz`` campaign uses, so property tests and the fuzzer share
    one program distribution. Shrinking works through the seed integer;
    for oracle-failure minimization use :mod:`repro.fuzz.shrink` instead.
    """
    from hypothesis import strategies as st

    from repro.fuzz.genprog import generate_program

    return st.builds(
        generate_program,
        seed=st.integers(min_value=0, max_value=max_seed),
        profile=st.sampled_from(list(profiles)),
    )


#: Every execution backend, reference interpreter first.
BACKENDS = ("closure", "jit", "vec")


def run_minic(source, fuel=20_000_000, backend="vec"):
    """Compile and execute a MiniC program on ``backend``; returns
    (result, cost, output)."""
    from repro.interp.interpreter import run_module

    module = compile_source(source)
    result, machine = run_module(module, fuel=fuel, backend=backend)
    return result, machine.cost, machine.output


def on_all_backends(run):
    """Call ``run(backend)`` for every backend and require that they agree:
    all return equal values, or all raise the same error type with the
    same message. Returns the shared value or re-raises the shared error,
    so a test written for one backend checks all of them."""
    from repro.errors import ReproError

    outcomes = {}
    error = None
    for backend in BACKENDS:
        try:
            outcomes[backend] = ("returned", run(backend))
        except ReproError as raised:
            error = raised
            outcomes[backend] = ("raised", type(raised), str(raised))
    reference = outcomes[BACKENDS[0]]
    for backend in BACKENDS[1:]:
        assert outcomes[backend] == reference, (
            f"{backend} disagrees with {BACKENDS[0]}: "
            f"{outcomes[backend]!r} vs {reference!r}")
    if reference[0] == "raised":
        raise error
    return reference[1]


def run_minic_all(source, fuel=20_000_000):
    """:func:`run_minic` on every backend; they must agree on the result,
    the cost and the output (or on the error raised)."""
    return on_all_backends(
        lambda backend: run_minic(source, fuel, backend))
