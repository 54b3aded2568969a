"""Differential test: the closure interpreter, the block-template JIT,
and the vector tier must produce byte-identical profiles for every
bundled benchmark.

This is the backend equivalence contract in its strongest form — not just
matching results and instruction counts, but the full serialized
:class:`ProgramProfile` (loop invocation trees, conflict records, LCD value
streams and offsets, call-site summaries), compared as canonical JSON.
Every figure and table is a pure function of the profile, so equality here
means every downstream artifact is backend-independent — including the
vector tier's closed-form loop and memory event accounting.
"""

import json

import pytest

from repro.bench.suites import all_programs
from repro.core.framework import Loopapalooza
from repro.runtime.serialize import profile_to_dict


def _canonical_profile(program, backend):
    lp = Loopapalooza(program.source, name=program.name, backend=backend)
    text = json.dumps(profile_to_dict(lp.profile()), sort_keys=True)
    return text, lp.output


@pytest.mark.parametrize(
    "program", all_programs(), ids=lambda p: p.full_name
)
def test_backends_profile_identically(program):
    closure_profile, closure_output = _canonical_profile(program, "closure")
    jit_profile, jit_output = _canonical_profile(program, "jit")
    vec_profile, vec_output = _canonical_profile(program, "vec")
    assert closure_profile == jit_profile
    assert closure_output == jit_output
    assert jit_profile == vec_profile
    assert jit_output == vec_output


@pytest.mark.parametrize(
    "backend", ["closure", "jit", "vec"]
)
def test_static_doall_never_conflicts(backend):
    """Soundness of the static dependence engine against every backend: a
    loop proved STATIC_DOALL must never record a cross-iteration conflict
    in the dynamic profile, whichever interpreter produced it. This is
    also the vector tier's safety argument — its kernels only ever replace
    loops carrying that verdict."""
    from repro.analysis.depend import VERDICT_DOALL

    proved_loops = 0
    for program in all_programs():
        lp = Loopapalooza(program.source, name=program.name, backend=backend)
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
                f"{conflicts[loop_id]} dynamic conflict(s) on {backend}")
    # The suites must actually exercise the engine, not vacuously pass.
    assert proved_loops >= 100
