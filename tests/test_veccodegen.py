"""The vectorized kernel tier: planner bailouts, runtime guards, and
closed-form profile parity.

Every BAIL_* reason in the planner's taxonomy gets at least one test that
reaches it (the exhaustive three-way profile comparison over the bundled
benchmarks lives in test_differential_backends.py). The runtime tests pin
the tier's safety contract: a kernel either commits with byte-identical
observable state or falls back to the scalar path with zero residue.
"""

import json

import pytest

from repro.analysis.depend import DependenceAnalysis, module_memory_summaries
from repro.analysis.loop_info import LoopInfo
from repro.analysis.scev import ScalarEvolution
from repro.core.framework import Loopapalooza
from repro.core.instrument import build_instrumentation
from repro.core.static_info import ModuleStaticInfo
from repro.errors import FuelExhausted, TrapError
from repro.frontend.codegen import compile_source
from repro.interp import veccodegen
from repro.interp.interpreter import Interpreter
from repro.interp.veccodegen import (
    BAIL_ACCESS,
    BAIL_ALIAS,
    BAIL_CALL,
    BAIL_CFG,
    BAIL_HEADER,
    BAIL_HOOKS,
    BAIL_INNER,
    BAIL_INSTR,
    BAIL_IV,
    BAIL_MULTI_LATCH,
    BAIL_NOT_SIMPLIFIED,
    BAIL_NUMPY,
    BAIL_OP,
    BAIL_TRIP,
    BAIL_TRIP_SIZE,
    BAIL_TRIP_WRAP,
    BAIL_VERDICT,
    vector_decisions,
)
from repro.runtime.serialize import profile_to_dict

VEC_OK = """
int N = 64; float A[64];
int main() { int i;
  for (i = 0; i < 64; i = i + 1) { A[i] = A[i] * 0.5 + 1.0; }
  return 0; }
"""


def _decisions(source):
    return vector_decisions(compile_source(source))


def _only_reason(source):
    decisions = _decisions(source)
    assert len(decisions) == 1, decisions
    assert decisions[0]["status"] == "bailout", decisions
    return decisions[0]["reason"]


def _run(source, backend, fuel=200_000_000):
    machine = Interpreter(compile_source(source), fuel=fuel, backend=backend)
    result = machine.run("main")
    return result, machine.cost, list(machine.output)


def _canonical_profile(source, backend):
    lp = Loopapalooza(source, backend=backend)
    return json.dumps(profile_to_dict(lp.profile()), sort_keys=True), lp.output


def _plan_uninstrumented(function):
    """_plan_loop inputs for hand-picked loops of ``function``."""
    loop_info = LoopInfo(function)
    scev = ScalarEvolution(function, loop_info)
    dep = DependenceAnalysis(
        function, loop_info=loop_info, scev=scev,
        summaries=module_memory_summaries(function.module),
    )
    return loop_info, scev, dep


class TestPlannerBailouts:
    """One reachable program (or IR shape) per bailout reason. The
    planner orders its checks so each reason stays observable behind the
    previous ones; these tests are the proof."""

    def test_numpy_unavailable(self, monkeypatch):
        monkeypatch.setattr(veccodegen, "_np", None)
        assert _only_reason(VEC_OK) == BAIL_NUMPY
        assert not veccodegen.vec_available()

    def test_contains_inner_loop(self):
        # plan_vector_loops only offers innermost loops, so the outer-loop
        # bail is exercised by invoking the planner on one directly.
        source = """
        int A[64];
        int main() { int i; int j;
          for (i = 0; i < 8; i = i + 1) {
            for (j = 0; j < 8; j = j + 1) { A[i * 8 + j] = i + j; }
          }
          return 0; }
        """
        function = compile_source(source).get_function("main")
        loop_info, scev, dep = _plan_uninstrumented(function)
        outer = [
            loop for loop in loop_info.loops_in_postorder() if loop.subloops
        ][0]
        plan, reason = veccodegen._plan_loop(
            outer, loop_info.cfg, scev, dep, None, False
        )
        assert plan is None and reason == BAIL_INNER

    def test_multi_latch_two_latches(self):
        # The frontend always emits single-latch loops, so the multi-latch
        # bail is exercised on hand-built IR: one header with two distinct
        # backedge sources.
        from repro.ir import I32, IRBuilder, Module

        module = Module("twolatch")
        function = module.add_function("f", I32, [])
        entry = function.append_block("entry")
        header = function.append_block("header")
        body = function.append_block("body")
        latch_a = function.append_block("latch_a")
        latch_b = function.append_block("latch_b")
        exit_block = function.append_block("exit")
        builder = IRBuilder(entry)
        builder.br(header)
        builder.position_at_end(header)
        iv = builder.phi(I32, name="i")
        cond = builder.icmp("slt", iv, builder.const_int(8))
        builder.condbr(cond, body, exit_block)
        builder.position_at_end(body)
        odd = builder.icmp(
            "slt", builder.srem(iv, builder.const_int(2)),
            builder.const_int(1),
        )
        builder.condbr(odd, latch_a, latch_b)
        builder.position_at_end(latch_a)
        next_a = builder.add(iv, builder.const_int(1))
        builder.br(header)
        builder.position_at_end(latch_b)
        next_b = builder.add(iv, builder.const_int(2))
        builder.br(header)
        builder.position_at_end(exit_block)
        builder.ret(iv)
        iv.add_incoming(builder.const_int(0), entry)
        iv.add_incoming(next_a, latch_a)
        iv.add_incoming(next_b, latch_b)

        loop_info, scev, dep = _plan_uninstrumented(function)
        loops = [
            loop for loop in loop_info.loops_in_postorder()
            if not loop.subloops
        ]
        assert len(loops) == 1
        plan, reason = veccodegen._plan_loop(
            loops[0], loop_info.cfg, scev, dep, None, False
        )
        assert plan is None and reason == BAIL_MULTI_LATCH

    def test_complex_header(self):
        # The compare feeds off `i + 1`, so the header holds loop-variant
        # arithmetic beyond the canonical phi/icmp/condbr shape.
        source = """
        int A[32];
        int main() { int i;
          for (i = 0; i + 1 < 10; i = i + 1) { A[i] = i; }
          return 0; }
        """
        assert _only_reason(source) == BAIL_HEADER

    def test_control_flow_in_body(self):
        source = """
        int A[32];
        int main() { int i;
          for (i = 0; i < 32; i = i + 1) {
            if (i > 4) { A[i] = 1; } else { A[i] = 2; }
          }
          return 0; }
        """
        assert _only_reason(source) == BAIL_CFG

    def test_contains_call_outside_whitelist(self):
        # sin is a real intrinsic but not vector-whitelisted: NumPy and
        # libm disagree in the last ulp, which would break profile parity.
        source = """
        float A[32];
        int main() { int i;
          for (i = 0; i < 32; i = i + 1) { A[i] = sin((float)i); }
          return 0; }
        """
        assert _only_reason(source) == BAIL_CALL

    def test_unsupported_op(self):
        source = """
        int A[32];
        int main() { int i;
          for (i = 0; i < 32; i = i + 1) { A[i] = i << 3; }
          return 0; }
        """
        assert _only_reason(source) == BAIL_OP

    def test_irregular_instrumentation_reduction(self):
        # A tracked reduction ships a latch value per iteration; the
        # closed form produces no such event stream.
        source = """
        float A[32];
        int main() { int i; float s; s = 0.0;
          for (i = 0; i < 32; i = i + 1) { s = s + A[i]; }
          print_float(s); return 0; }
        """
        assert _only_reason(source) == BAIL_INSTR

    def test_lcd_hooks_in_loop(self):
        # Doctor the instrumentation plan so one body instruction demands
        # a per-iteration use hook: the closed form cannot replay those.
        from repro.ir import Store

        module = compile_source(VEC_OK)
        function = module.get_function("main")
        instrumentation = build_instrumentation(ModuleStaticInfo(module))
        plan = instrumentation.get("main")
        store = next(
            instruction
            for block in function.blocks
            for instruction in block.instructions
            if isinstance(instruction, Store)
        )
        plan.use_hooks[id(store)] = [("use", "doctored")]
        kernels, decisions = veccodegen.plan_vector_loops(
            function, plan, True
        )
        assert not kernels
        assert decisions == [{
            "loop_id": decisions[0]["loop_id"], "status": "bailout",
            "reason": BAIL_HOOKS, "trip": None,
        }]

    def test_no_constant_trip_count(self):
        # `!=` exits are neither statically counted nor runtime-provable
        # (a stride-2 IV could step over the bound and wrap forever).
        source = """
        int n = 32; int A[64];
        int main() { int i;
          for (i = 0; i != n; i = i + 1) { A[i] = i; }
          return 0; }
        """
        assert _only_reason(source) == BAIL_TRIP

    def test_wrap_unprovable_bounds(self, monkeypatch):
        # SCEV folds the trip count of this loop exactly, but the final
        # IV value 2147483648 overflows i32 — the scalar sequence wraps
        # and keeps running, so the static count is a lie. The runtime
        # guard normally picks such loops up; with that fallback stubbed
        # out, the planner must refuse the static count outright.
        source = """
        int A[8];
        int main() { int i; int k; k = 0;
          for (i = 2147483640; i < 2147483646; i = i + 4) {
            A[k] = i; k = k + 1;
          }
          return k; }
        """
        monkeypatch.setattr(
            veccodegen, "_trip_runtime", lambda *args, **kwargs: None
        )
        assert _only_reason(source) == BAIL_TRIP_WRAP

    def test_oversized_trip(self):
        source = """
        int A[32];
        int main() { int i;
          for (i = 0; i < 3000000; i = i + 1) { A[i & 31] = i; }
          return 0; }
        """
        assert _only_reason(source) == BAIL_TRIP_SIZE

    def test_non_affine_iv(self):
        # A geometric second phi alongside the counted one. Uninstrumented
        # planning is used so the reduction's instrumentation pattern does
        # not bail first.
        source = """
        int A[32];
        int main() { int i; int s; s = 1;
          for (i = 0; i < 16; i = i + 1) { A[i] = s; s = s * 3; }
          print_int(s); return 0; }
        """
        function = compile_source(source).get_function("main")
        kernels, decisions = veccodegen.plan_vector_loops(
            function, None, False
        )
        assert not kernels
        assert [d["reason"] for d in decisions] == [BAIL_IV]

    def test_non_affine_access(self):
        source = """
        float A[80];
        int main() { int i;
          for (i = 0; i < 8; i = i + 1) { A[i * i] = 1.0; }
          return 0; }
        """
        assert _only_reason(source) == BAIL_ACCESS

    def test_intra_iteration_alias(self):
        # p may alias A: the gather-everything/scatter-everything
        # reordering could read a cell the same iteration already wrote.
        source = """
        int N = 16; float A[16]; float B[16];
        void kernel(float *p) { int i;
          for (i = 0; i < 16; i = i + 1) { p[i] = 0.5; B[i] = A[i] * 0.5; }
        }
        int main() { kernel(A); return 0; }
        """
        assert _only_reason(source) == BAIL_ALIAS

    def test_not_proved_doall(self):
        source = """
        float A[16];
        int main() { int i;
          for (i = 1; i < 16; i = i + 1) { A[i] = A[i - 1] + 1.0; }
          return 0; }
        """
        assert _only_reason(source) == BAIL_VERDICT

    def test_vectorizable_loop_plans_clean(self):
        decisions = _decisions(VEC_OK)
        assert decisions == [{
            "loop_id": decisions[0]["loop_id"], "status": "vectorized",
            "reason": None, "trip": 64,
        }]


class TestRuntimeCommit:
    """Kernels that commit: observable state byte-identical to scalar."""

    def test_vec_runs_recorded(self):
        machine = Interpreter(compile_source(VEC_OK), backend="vec")
        machine.run("main")
        assert list(machine.vec_runs.values()) == [1]
        assert not machine.vec_bailouts

    def test_scalar_jit_never_runs_kernels(self):
        machine = Interpreter(compile_source(VEC_OK), backend="jit")
        machine.run("main")
        assert not machine.vec_runs and not machine.vec_bailouts

    def test_fuel_accounting_is_exact(self):
        _, cost, _ = _run(VEC_OK, "closure")
        assert _run(VEC_OK, "vec", fuel=cost)[1] == cost
        with pytest.raises(FuelExhausted):
            _run(VEC_OK, "vec", fuel=cost - 1)

    def test_runtime_trip_count_commits(self):
        source = """
        int n = 200; float A[256];
        int main() { int i;
          for (i = 0; i < n; i = i + 1) { A[i] = (float)i * 0.5; }
          return 0; }
        """
        decisions = _decisions(source)
        assert decisions[0]["status"] == "vectorized"
        assert decisions[0]["trip"] == "runtime"
        machine = Interpreter(compile_source(source), backend="vec")
        machine.run("main")
        assert list(machine.vec_runs.values()) == [1]
        assert _canonical_profile(source, "vec") == \
            _canonical_profile(source, "closure")

    def test_runtime_trip_count_zero_iterations(self):
        source = """
        int n = 0; float A[256];
        int main() { int i;
          for (i = 0; i < n; i = i + 1) { A[i] = (float)i * 0.5; }
          return 0; }
        """
        machine = Interpreter(compile_source(source), backend="vec")
        machine.run("main")
        # Guard rejects trip 0; the scalar loop runs its zero iterations.
        assert not machine.vec_runs and not machine.vec_bailouts
        assert _run(source, "vec") == _run(source, "closure")


class TestI32Wraparound:
    """Two's-complement parity inside kernels (satellite: wraparound)."""

    def test_mul_add_overflow_matches_scalar(self):
        source = """
        int A[64];
        int main() { int i; int s; s = 0;
          for (i = 0; i < 64; i = i + 1) {
            A[i] = i * 1000000007 + 2000000000;
          }
          for (i = 0; i < 64; i = i + 1) { s = s ^ A[i]; }
          print_int(s); return 0; }
        """
        machine = Interpreter(compile_source(source), backend="vec")
        machine.run("main")
        assert machine.vec_runs  # the store loop really went vector
        assert _run(source, "vec") == _run(source, "closure")
        assert _canonical_profile(source, "vec") == \
            _canonical_profile(source, "closure")

    def test_sdiv_srem_int_min_by_minus_one(self):
        # INT_MIN / -1 overflows in C; this machine defines it as the
        # wrapped quotient. The kernel must agree lane by lane.
        source = """
        int d = 1;
        int Q[8]; int R[8];
        int main() { int i; int m;
          m = (0 - 2147483647) - 1; d = 0 - 1;
          for (i = 0; i < 8; i = i + 1) {
            Q[i] = (m + i) / d; R[i] = (m + i) % d;
          }
          print_int(Q[0]); print_int(R[0]);
          print_int(Q[3]); print_int(R[3]);
          return 0; }
        """
        result, _, output = _run(source, "vec")
        assert result == 0
        assert output == [-2147483648, 0, 2147483645, 0]
        machine = Interpreter(compile_source(source), backend="vec")
        machine.run("main")
        assert machine.vec_runs
        assert _canonical_profile(source, "vec") == \
            _canonical_profile(source, "closure")

    def test_wrap_guard_rejects_overflowing_iv(self):
        # SCEV says trip 2, but the scalar IV wraps past INT_MAX and the
        # loop keeps running until the store goes out of bounds. The
        # runtime guard (final IV must fit i32) rejects the kernel, so
        # the vec tier reproduces the scalar trap exactly.
        source = """
        int A[8];
        int main() { int i; int k; k = 0;
          for (i = 2147483640; i < 2147483646; i = i + 4) {
            A[k] = i; k = k + 1;
          }
          return k; }
        """
        decisions = _decisions(source)
        assert decisions[0]["status"] == "vectorized"
        assert decisions[0]["trip"] == "runtime"
        costs = {}
        for backend in ("closure", "vec"):
            machine = Interpreter(compile_source(source), backend=backend)
            with pytest.raises(TrapError, match="invalid address 8"):
                machine.run("main")
            costs[backend] = machine.cost
            assert not machine.vec_runs
        assert costs["closure"] == costs["vec"]


class TestRuntimeBailouts:
    """Kernels that start and then bail: the scalar replay must leave no
    trace of the attempt beyond the bailout counter."""

    def test_division_by_zero_traps_identically(self):
        source = """
        int A[16];
        int main() { int i;
          for (i = 0; i < 16; i = i + 1) { A[i] = 100 / (8 - i); }
          return 0; }
        """
        costs = {}
        for backend in ("closure", "vec"):
            machine = Interpreter(compile_source(source), backend=backend)
            with pytest.raises(TrapError, match="division by zero"):
                machine.run("main")
            costs[backend] = machine.cost
        assert costs["closure"] == costs["vec"]
        machine = Interpreter(compile_source(source), backend="vec")
        with pytest.raises(TrapError):
            machine.run("main")
        assert list(machine.vec_bailouts.values()) == [1]
        assert not machine.vec_runs

    def test_sqrt_of_negative_traps_identically(self):
        # np.sqrt would return NaN where the scalar tier traps; the
        # kernel bails on any negative lane and the scalar replay
        # produces the trap at the exact scalar cost.
        source = """
        float B[4];
        int main() { int i;
          for (i = 0; i < 4; i = i + 1) { B[i] = sqrt(1.0 - (float)i); }
          return 0; }
        """
        costs = {}
        for backend in ("closure", "vec"):
            machine = Interpreter(compile_source(source), backend=backend)
            with pytest.raises(TrapError, match="math domain error"):
                machine.run("main")
            costs[backend] = machine.cost
            if backend == "vec":
                assert list(machine.vec_bailouts.values()) == [1]
        assert costs["closure"] == costs["vec"]


class TestIntrinsicParity:
    """The whitelisted intrinsics are bit-identical between NumPy kernels
    and the scalar implementations, profiles included."""

    INTRINSIC_MIX = """
    int H[64]; float Z[64]; int M[64]; float S[64]; float F[64];
    int main() { int i;
      for (i = 0; i < 64; i = i + 1) {
        H[i] = hash_i32(i * 7 + 3);
        Z[i] = noise_f64(i) - 0.5;
        M[i] = imax(i - 32, imin(i, 16)) + iabs(i - 40);
        S[i] = sqrt((float)i + 1.0);
        F[i] = fmax(fmin((float)i, 31.5), 2.5)
             + fabs((float)i - 10.0) + floor((float)i / 3.0);
      }
      return 0; }
    """

    def test_intrinsic_loop_vectorizes(self):
        machine = Interpreter(
            compile_source(self.INTRINSIC_MIX), backend="vec"
        )
        machine.run("main")
        assert list(machine.vec_runs.values()) == [1]
        assert not machine.vec_bailouts

    def test_intrinsic_profiles_identical(self):
        assert _canonical_profile(self.INTRINSIC_MIX, "vec") == \
            _canonical_profile(self.INTRINSIC_MIX, "closure")


class TestLoopKernelSuite:
    """The loop kernels must keep exercising the vector tier: every
    kernel vectorizes and commits on the vec backend."""

    def test_every_kernel_vectorizes(self):
        from repro.bench.loop_kernels import loop_kernels
        from repro.interp.veccodegen import vector_decisions

        for kernel in loop_kernels():
            decisions = vector_decisions(compile_source(kernel.source))
            vectorized = [
                d for d in decisions if d["status"] == "vectorized"
            ]
            assert vectorized, (
                f"{kernel.name}: no vectorized loop "
                f"(decisions: {decisions})"
            )

    def test_kernels_commit_on_vec_tier(self):
        from repro.bench.loop_kernels import REPS, find_kernel

        machine = Interpreter(
            compile_source(find_kernel("match_distance").source),
            backend="vec",
        )
        machine.run("main")
        assert list(machine.vec_runs.values()) == [REPS]
        assert not machine.vec_bailouts

    def test_find_kernel_unknown_raises(self):
        from repro.bench.loop_kernels import find_kernel

        with pytest.raises(KeyError):
            find_kernel("no-such-kernel")


class TestVecTelemetry:
    def _summary(self):
        from repro.interp.veccodegen import summarize_vec_decisions

        return summarize_vec_decisions([
            {"loop_id": "f.a", "status": "vectorized", "reason": None,
             "trip": 64},
            {"loop_id": "f.b", "status": "vectorized", "reason": None,
             "trip": "runtime"},
            {"loop_id": "f.c", "status": "bailout",
             "reason": "contains-call", "trip": None},
            {"loop_id": "f.d", "status": "bailout",
             "reason": "contains-call", "trip": None},
        ])

    def test_summarize_vec_decisions(self):
        summary = self._summary()
        assert summary == {
            "loops": 4, "vectorized": 2, "static_trip": 1,
            "runtime_trip": 1, "bailouts": {"contains-call": 2},
        }

    def test_manifest_round_trip_and_formatting(self, tmp_path):
        from repro.runtime.telemetry import (
            RunTelemetry,
            format_run_summary,
            load_manifest,
        )

        telemetry = RunTelemetry.create(root=tmp_path, run_id="vec-run")
        telemetry.record_vec_decisions(self._summary())
        telemetry.finish()
        assert telemetry.summary()["vec_decisions"]["vectorized"] == 2

        manifest = load_manifest("vec-run", root=tmp_path)
        assert manifest["vec_decisions"] == self._summary()
        text = format_run_summary(manifest)
        assert "2/4 innermost loops vectorized" in text
        assert "bailout contains-call: 2" in text
