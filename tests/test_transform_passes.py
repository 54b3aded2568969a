"""Dependence-guided loop transformation tests: fission, peeling, fusion,
loop provenance, pipeline fingerprinting, the stale-analysis guard, and
the unlock report built from them.

Each pass case pins three things at once: the transform fired (the module's
``transform_log`` says so), the dependence verdict improved the way the
pass promises, and the program still computes the same result.
"""

import json

import pytest

from repro.analysis.depend import (
    VERDICT_DOALL,
    VERDICT_LCD,
    VERDICT_UNKNOWN,
    DependenceAnalysis,
    analyze_module,
    canonical_loop_shape,
    module_memory_summaries,
)
from repro.analysis.invalidation import invalidate_module_analyses
from repro.analysis.loop_info import (
    ORIGIN_DISTR,
    ORIGIN_FUSED,
    ORIGIN_MAIN,
    ORIGIN_PEEL,
    ORIGIN_REMAINDER,
    LoopInfo,
    loop_origin_of,
    loop_origin_root,
    record_loop_origin,
)
from repro.bench import find_program
from repro.core import Loopapalooza
from repro.errors import StaleAnalysisError
from repro.frontend.codegen import compile_source
from repro.interp.interpreter import run_module
from repro.passes import (
    PIPELINE_VERSION,
    pipeline_fingerprint,
    run_loop_fusion_module,
    run_transform_pipeline,
)
from repro.reporting.transform_report import (
    TransformReport,
    format_transform_figure,
    transform_program,
)
from repro.runtime.serialize import profile_to_dict

FISSION_SRC = """
int A[64]; int B[64]; int S[64];
int main() {
  for (int i = 1; i < 64; i = i + 1) {
    A[i] = B[i] + 1;
    S[i] = S[i-1] + B[i];
  }
  return A[5] + S[63];
}
"""

FRONT_PEEL_SRC = """
int A[64];
int main() {
  A[0] = 7;
  for (int i = 0; i < 64; i = i + 1) {
    A[i] = A[0] + 1;
  }
  return A[9];
}
"""

BACK_PEEL_SRC = """
int A[64];
int main() {
  A[63] = 5;
  for (int i = 0; i < 64; i = i + 1) {
    A[i] = A[63] + 1;
  }
  return A[9] + A[63];
}
"""

FUSION_SRC = """
int A[64]; int B[64];
int main() {
  for (int i = 0; i < 64; i = i + 1) { A[i] = i; }
  for (int j = 0; j < 64; j = j + 1) { B[j] = j + j; }
  return A[3] + B[4];
}
"""


def _result(module):
    rc, _ = run_module(module)
    return rc


def _verdicts(module):
    return {k: d.verdict for k, d in analyze_module(module).items()}


def _compile_pair(source):
    return (compile_source(source, transform=False),
            compile_source(source, transform=True))


class TestFission:
    def test_splits_serial_scc_from_parallel_remainder(self):
        plain, transformed = _compile_pair(FISSION_SRC)
        log = transformed.transform_log
        assert [entry["pass"] for entry in log] == ["fission"]
        assert _verdicts(plain) == {"main.for.cond1": VERDICT_LCD}
        after = _verdicts(transformed)
        # The distributed clone carries the parallel slice and proves
        # DOALL; the host keeps the serial recurrence.
        assert after["main.for.cond1.fiss1g1"] == VERDICT_DOALL
        assert after["main.for.cond1"] == VERDICT_LCD
        assert _result(plain) == _result(transformed)

    def test_provenance_tags_and_root(self):
        _, transformed = _compile_pair(FISSION_SRC)
        clone = loop_origin_of(transformed, "main.for.cond1.fiss1g1")
        assert clone.tag == ORIGIN_DISTR
        assert clone.source == "main.for.cond1"
        assert loop_origin_root(
            transformed, "main.for.cond1.fiss1g1") == "main.for.cond1"

    def test_statement_graph_isolates_the_recurrence(self):
        module = compile_source(FISSION_SRC, transform=False)
        function = module.functions["main"]
        loop_info = LoopInfo(function)
        (loop,) = loop_info.all_loops()
        shape, reason = canonical_loop_shape(loop, loop_info.cfg)
        assert shape is not None, reason
        dep = DependenceAnalysis(
            function, loop_info, summaries=module_memory_summaries(module))
        graph = dep.statement_graph(loop)
        assert graph.failure is None
        groups = graph.fission_groups()
        assert len(groups) >= 2
        serial_flags = [serial for _, serial in groups]
        assert serial_flags.count(True) == 1
        # The S[i] = S[i-1] recurrence (and only it) is in the serial SCC.
        assert any(len(indices) >= 2 for indices, serial in groups if serial)


class TestPeeling:
    def test_front_peel_unlocks_first_iteration_conflict(self):
        plain, transformed = _compile_pair(FRONT_PEEL_SRC)
        (entry,) = transformed.transform_log
        assert (entry["pass"], entry["kind"]) == ("peel", "front")
        assert _verdicts(plain)["main.for.cond1"] == VERDICT_UNKNOWN
        assert _verdicts(transformed)["main.for.cond1"] == VERDICT_DOALL
        assert loop_origin_of(
            transformed, "main.for.cond1").tag == ORIGIN_PEEL
        assert _result(plain) == _result(transformed)

    def test_back_peel_unlocks_last_iteration_conflict(self):
        plain, transformed = _compile_pair(BACK_PEEL_SRC)
        (entry,) = transformed.transform_log
        assert (entry["pass"], entry["kind"]) == ("peel", "back")
        assert _verdicts(plain)["main.for.cond1"] == VERDICT_UNKNOWN
        assert _verdicts(transformed)["main.for.cond1"] == VERDICT_DOALL
        assert loop_origin_of(
            transformed, "main.for.cond1").tag == ORIGIN_REMAINDER
        assert _result(plain) == _result(transformed)


class TestFusion:
    def test_adjacent_lockstep_loops_fuse(self):
        plain, transformed = _compile_pair(FUSION_SRC)
        (entry,) = transformed.transform_log
        assert entry["pass"] == "fusion"
        assert entry["absorbed"] == "main.for.cond5"
        assert entry["trip"] == 64
        after = _verdicts(transformed)
        # One loop remains; the absorbed header is gone from the module.
        assert "main.for.cond5" not in after
        assert after["main.for.cond1"] == VERDICT_DOALL
        assert loop_origin_of(
            transformed, "main.for.cond1").tag == ORIGIN_FUSED
        assert _result(plain) == _result(transformed)

    def test_fusion_preventing_dependence_blocks(self):
        # The second loop reads what the first wrote one element ahead:
        # fusing would read the value before it is written.
        source = """
        int A[64]; int B[64];
        int main() {
          for (int i = 0; i < 63; i = i + 1) { A[i] = i; }
          for (int j = 0; j < 63; j = j + 1) { B[j] = A[j + 1]; }
          return B[4];
        }
        """
        plain, transformed = _compile_pair(source)
        assert not [e for e in transformed.transform_log
                    if e["pass"] == "fusion"]
        assert _result(plain) == _result(transformed)


class TestProvenanceModel:
    def test_default_origin_is_main(self):
        module = compile_source(FUSION_SRC, transform=False)
        origin = loop_origin_of(module, "main.for.cond1")
        assert origin.tag == ORIGIN_MAIN
        assert origin.source == "main.for.cond1"

    def test_root_follows_chains(self):
        module = compile_source(FUSION_SRC, transform=False)
        record_loop_origin(module, "L.p", ORIGIN_PEEL, "L")
        record_loop_origin(module, "L.p.d", ORIGIN_DISTR, "L.p")
        assert loop_origin_root(module, "L.p.d") == "L"
        assert loop_origin_root(module, "unrelated") == "unrelated"

    def test_rejects_unknown_tag(self):
        module = compile_source(FUSION_SRC, transform=False)
        with pytest.raises(ValueError):
            record_loop_origin(module, "L", "SPLIT", "L")


class TestPipelineFingerprint:
    def test_fingerprint_encodes_version_and_transform(self):
        assert pipeline_fingerprint(False) != pipeline_fingerprint(True)
        assert f"pipe{PIPELINE_VERSION}" in pipeline_fingerprint(False)

    def test_stamped_on_compiled_module(self):
        plain, transformed = _compile_pair(FUSION_SRC)
        assert plain.pipeline_fingerprint == pipeline_fingerprint(False)
        assert transformed.pipeline_fingerprint == pipeline_fingerprint(True)

    def test_environment_cannot_turn_the_transforms_on(self, monkeypatch):
        """The stage is switched by the ``transform`` argument alone: the
        retired ``REPRO_TRANSFORM`` variable changes no compile and no
        profile."""

        def serialized_profile():
            lp = Loopapalooza(FISSION_SRC, name="fission")
            assert lp.transform is False
            return json.dumps(profile_to_dict(lp.profile()), sort_keys=True)

        monkeypatch.delenv("REPRO_TRANSFORM", raising=False)
        unset = serialized_profile()
        monkeypatch.setenv("REPRO_TRANSFORM", "1")
        assert compile_source(FISSION_SRC).transform_log == []
        assert serialized_profile() == unset


class TestStaleAnalysisGuard:
    def test_stale_loop_info_reuse_raises(self):
        module = compile_source(FISSION_SRC, transform=False)
        function = module.functions["main"]
        loop_info = LoopInfo(function)
        loops = loop_info.all_loops()
        assert loops
        invalidate_module_analyses(module)
        with pytest.raises(StaleAnalysisError):
            loop_info.all_loops()
        with pytest.raises(StaleAnalysisError):
            loops[0].preheader(loop_info.cfg)

    def test_stale_cfg_reuse_raises(self):
        from repro.analysis.cfg import CFG

        module = compile_source(FISSION_SRC, transform=False)
        function = module.functions["main"]
        cfg = CFG(function)
        invalidate_module_analyses(function=function)
        with pytest.raises(StaleAnalysisError):
            cfg.successors(function.blocks[0])

    def test_transform_pipeline_invalidates_snapshots(self):
        # The regression this guards: run_transform_pipeline mutates the
        # CFG, so a LoopInfo taken before it must refuse queries after.
        module = compile_source(FISSION_SRC, transform=False)
        function = module.functions["main"]
        stale = LoopInfo(function)
        run_transform_pipeline(module)
        with pytest.raises(StaleAnalysisError):
            stale.all_loops()

    def test_fresh_snapshot_after_invalidation_works(self):
        module = compile_source(FISSION_SRC, transform=False)
        function = module.functions["main"]
        invalidate_module_analyses(module)
        assert LoopInfo(function).all_loops()


class TestFusionOriginGate:
    def test_distributed_loops_not_refused_when_overridden(self):
        # ignore_origins exists for the property-based round-trip: fission
        # products are normally not fusion candidates (re-merging them
        # would undo the distribution), but the override forces it.
        module = compile_source(FISSION_SRC, transform=True)
        assert [e["pass"] for e in module.transform_log] == ["fission"]
        before = _result(module)
        changed = run_loop_fusion_module(module, ignore_origins=True)
        assert changed
        assert _result(module) == before


class TestUnlockReport:
    def test_fission_unlocks_one_bundled_loop(self):
        program = find_program("specint2000/twolf_like")
        rows, log = transform_program(program.source, program.full_name)
        [row] = [row for row in rows if row.unlocked]
        assert (row.loop_id, row.before) == ("main.for.cond5",
                                             VERDICT_UNKNOWN)
        assert row.after == [
            ("main.for.cond5", VERDICT_UNKNOWN, ORIGIN_DISTR),
            ("main.for.cond5.fiss1g1", VERDICT_DOALL, ORIGIN_DISTR),
        ]
        assert [(entry["pass"], entry["groups"], entry["serial_groups"])
                for entry in log] == [("fission", 2, 1)]
        assert "fission x1" in format_transform_figure(
            TransformReport(rows, log))

    def test_untouched_program_unlocks_nothing(self):
        source = """
        int A[64];
        int main() {
          for (int i = 0; i < 64; i = i + 1) { A[i] = i; }
          return A[9];
        }
        """
        rows, log = transform_program(source, "plain")
        assert log == []
        assert [row.before for row in rows] == [VERDICT_DOALL]
        assert not any(row.unlocked for row in rows)
