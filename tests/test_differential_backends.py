"""Differential test: the reference interpreter (``closure``), the
block-template JIT, and the vector tier must produce byte-identical
profiles for every bundled benchmark.

This is the backend equivalence contract in its strongest form — not just
matching results and instruction counts, but the full serialized
:class:`ProgramProfile` (loop invocation trees, conflict records, LCD value
streams and offsets, call-site summaries), compared as canonical JSON and
as the binary store payload. Every figure and table is a pure function of
the profile, so equality here means every downstream artifact is
backend-independent — including the vector tier's closed-form loop and
memory event accounting, and the JIT's inline iteration bookkeeping,
which the reference interpreter implements independently through the
runtime's per-event methods.
"""

import json

import pytest

from repro.bench.suites import all_programs
from repro.core.framework import Loopapalooza
from repro.interp.codegen import generate_source
from repro.runtime.recorder import ProfilingRuntime
from repro.runtime.serialize import profile_to_bytes, profile_to_dict

from helpers import BACKENDS


def _canonical_profile(source, name, backend):
    """``(JSON text, binary payload, output)`` of one profiling run."""
    lp = Loopapalooza(source, name=name, backend=backend)
    profile = lp.profile()
    text = json.dumps(profile_to_dict(profile), sort_keys=True)
    return text, profile_to_bytes(profile), lp.output


def _assert_backends_agree(source, name):
    closure, jit, vec = (_canonical_profile(source, name, backend)
                         for backend in BACKENDS)
    for other in (jit, vec):
        assert other[0] == closure[0]   # JSON
        assert other[1] == closure[1]   # bytes
        assert other[2] == closure[2]   # output


@pytest.mark.parametrize(
    "program", all_programs(), ids=lambda p: p.full_name
)
def test_backends_profile_identically(program):
    _assert_backends_agree(program.source, program.name)


#: Programs that reach the corners of the runtime's two event protocols:
#: the reference interpreter's per-event methods and the JIT's frame-local
#: loop state and inline memory checks.
RECORDER_EDGE_CASES = {
    # A register-LCD hook of a loop active in a caller's frame is not the
    # caller's: the callee's ``return s + p`` uses s and p after its own
    # invocation of the same loop has exited.
    "recursion": """
        int A[64];
        int f(int d) {
          int i; int s = 0; int p = 1;
          for (i = 0; i < 6; i = i + 1) {
            if (d < 3) { A[d] = A[d] + f(d + 1); }
            s = s + A[i + d] * p;
            p = p * 3 + s;
          }
          return s + p;
        }
        int main() {
          int i;
          for (i = 0; i < 64; i = i + 1) { A[i] = i; }
          return f(0) & 65535;
        }
    """,
    # A return from the middle of a loop leaves it through an exit edge,
    # which closes the last iteration's use offsets (h is used before the
    # exit); the use of h in the return lies outside the loop's body.
    "return-inside-loop": """
        int A[32];
        int find(int key) {
          int i; int h = 7; int t;
          for (i = 0; i < 32; i = i + 1) {
            t = h ^ A[i];
            if (A[i] == key) { return i + t + h; }
            h = (h * 31 + A[i]) & 1023;
          }
          return h;
        }
        int main() {
          int i; int t = 0;
          for (i = 0; i < 32; i = i + 1) { A[i] = (i * 13) & 15; }
          for (i = 0; i < 6; i = i + 1) { t = t + find((i * 5) & 15); }
          return t;
        }
    """,
    # Uses of a tracked phi after its loop are outside the loop's body.
    "phi-used-after-loop": """
        int A[40];
        int main() {
          int i; int x = 3; int y = 1;
          for (i = 0; i < 40; i = i + 1) {
            if (A[i] & 1) { x = (x * 7 + i) & 255; }
            A[i] = x + y;
            y = (y + x) & 511;
          }
          return x * 1000 + y + A[39];
        }
    """,
    # A callee two calls deep writes memory that its caller's caller's
    # continuation reads: the write reaches the outer call's write set
    # only when the inner calls end.
    "write-two-calls-deep": """
        int A[16];
        int B[16];
        void leaf(int k) { A[k] = A[k] + k; }
        void mid(int k) { leaf(k); B[k] = 1; }
        int main() {
          int i; int s = 0;
          for (i = 0; i < 16; i = i + 1) {
            mid(i & 7);
            s = s + B[3];
            s = s + A[i & 7];
          }
          return s;
        }
    """,
    # A loop-body alloca's slots are reused by a later call's frame, whose
    # loop reads them before writing: the birth rule filters the writes
    # made to them before they were reborn.
    "reused-loop-alloca": """
        int OUT[8];
        int g(int k) {
          int j; int s = 0;
          for (j = 0; j < 4; j = j + 1) {
            int u[4];
            u[j] = k + j;
            s = s + u[(j + 3) & 3];
          }
          return s;
        }
        int h(int k) {
          int t[16]; int j; int s = 0;
          for (j = 0; j < 16; j = j + 1) { s = s + t[j]; t[j] = s + k; }
          return s;
        }
        int main() {
          int i; int s = 0;
          for (i = 0; i < 8; i = i + 1) { s = s + g(i) + h(i); OUT[i] = s; }
          return s;
        }
    """,
}


@pytest.mark.parametrize("case", sorted(RECORDER_EDGE_CASES))
def test_recorder_edge_cases_profile_identically(case):
    _assert_backends_agree(RECORDER_EDGE_CASES[case], case)


@pytest.mark.parametrize(
    "case", ["phi-used-after-loop", "recursion", "return-inside-loop"]
)
def test_the_jit_emits_no_hook_outside_its_loops_body(case, monkeypatch):
    """Outside its loop's body a register-LCD hook's loop is never active
    in the hook's frame, so the reference interpreter's call for it is
    ignored (the frame rule) and the instrumented JIT emits nothing for
    it: the JIT never calls ``lcd_def``/``lcd_use``."""
    ignored = []

    def lcd_use(runtime, loop_id, phi_key, ts):
        if runtime._in_frame(loop_id) is None:
            ignored.append(phi_key)
        original(runtime, loop_id, phi_key, ts)

    original = ProfilingRuntime.lcd_use
    monkeypatch.setattr(ProfilingRuntime, "lcd_use", lcd_use)
    lp = Loopapalooza(RECORDER_EDGE_CASES[case], name=case, backend="closure")
    lp.profile()
    assert ignored  # the plan hooks a use outside the loop's body
    for function in lp.module.defined_functions():
        source = generate_source(
            function, lp.instrumentation.get(function.name), True
        )
        assert "_rt.lcd_" not in source


def test_static_doall_never_conflicts():
    """Soundness of the static dependence engine: a loop proved
    STATIC_DOALL must never record a cross-iteration conflict in the
    dynamic profile. One backend suffices, because
    test_backends_profile_identically shows every backend records the
    same profile for these programs. This is also the vector tier's
    safety argument — its kernels only ever replace loops carrying that
    verdict."""
    from repro.analysis.depend import VERDICT_DOALL

    proved_loops = 0
    for program in all_programs():
        lp = Loopapalooza(program.source, name=program.name)
        dependence = lp.static_info.dependence()
        conflicts = {}
        for invocation in lp.profile().all_invocations():
            conflicts[invocation.loop_id] = (
                conflicts.get(invocation.loop_id, 0)
                + invocation.conflict_count)
        for loop_id, verdict in dependence.items():
            if verdict.verdict != VERDICT_DOALL:
                continue
            proved_loops += 1
            assert conflicts.get(loop_id, 0) == 0, (
                f"{program.full_name} {loop_id}: STATIC_DOALL but "
                f"{conflicts[loop_id]} dynamic conflict(s)")
    # The suites must actually exercise the engine, not vacuously pass.
    assert proved_loops >= 100
