"""Transform pass tests: mem2reg, constfold, DCE, simplify-cfg, GVN,
loop-simplify, indvars, and the standard pipeline."""

import pytest

from repro.analysis import CFG, LoopInfo
from repro.frontend.codegen import CodeGenerator
from repro.frontend.parser import parse
from repro.frontend.sema import analyze
from repro.interp.interpreter import run_module
from repro.ir import verify_module
from repro.ir.instructions import Alloca, BinaryOp, Load, Phi, Store
from repro.passes import (
    is_loop_simplified,
    run_constfold_module,
    run_dce_module,
    run_indvars,
    run_loop_simplify_module,
    run_mem2reg_module,
    run_simplify_cfg_module,
    run_standard_pipeline,
)
from repro.passes.gvn import run_gvn_module


def compile_unoptimized(source):
    program = parse(source)
    module = CodeGenerator(analyze(program)).run()
    verify_module(module)
    return module


def count(module, cls):
    return sum(
        isinstance(i, cls)
        for f in module.defined_functions()
        for i in f.instructions()
    )


def behaviour(module):
    result, machine = run_module(module)
    return result, list(machine.output)


SAMPLE = """
int A[32];
int main() {
  int i;
  int s = 0;
  for (i = 0; i < 32; i = i + 1) {
    A[i] = i * 2;
    if (A[i] > 20) { s = s + A[i]; }
  }
  print_int(s);
  return s & 255;
}
"""


class TestMem2Reg:
    def test_promotes_scalars(self):
        module = compile_unoptimized(SAMPLE)
        before = count(module, Alloca)
        assert before >= 2
        promoted = run_mem2reg_module(module)
        verify_module(module)
        assert promoted == before
        assert count(module, Alloca) == 0

    def test_inserts_loop_phis(self):
        module = compile_unoptimized(SAMPLE)
        run_mem2reg_module(module)
        f = module.get_function("main")
        info = LoopInfo(f)
        loop = info.all_loops()[0]
        names = {phi.name for phi in loop.header.phis()}
        assert "i" in names and "s" in names

    def test_preserves_behaviour(self):
        module = compile_unoptimized(SAMPLE)
        expected = behaviour(compile_unoptimized(SAMPLE))
        run_mem2reg_module(module)
        assert behaviour(module) == expected

    def test_array_allocas_not_promoted(self):
        module = compile_unoptimized(
            """
            int main() {
              int buf[8];
              buf[0] = 3;
              return buf[0];
            }
            """
        )
        run_mem2reg_module(module)
        assert count(module, Alloca) == 1  # the array stays in memory

    def test_escaping_alloca_not_promoted(self):
        module = compile_unoptimized(
            """
            void set(int* p) { p[0] = 9; }
            int main() {
              int x = 0;
              set(&x);
              return x;
            }
            """
        )
        run_mem2reg_module(module)
        main = module.get_function("main")
        assert any(isinstance(i, Alloca) for i in main.instructions())
        result, _ = run_module(module)
        assert result == 9

    def test_shadowed_names_resolve_correctly(self):
        module = compile_unoptimized(
            """
            int main() {
              int x = 1;
              int i;
              for (i = 0; i < 3; i = i + 1) {
                int x2 = 100;
                x = x + x2;
              }
              return x;
            }
            """
        )
        run_mem2reg_module(module)
        result, _ = run_module(module)
        assert result == 301

    def test_no_dead_phis_left(self):
        module = compile_unoptimized(SAMPLE)
        run_mem2reg_module(module)
        for f in module.defined_functions():
            for block in f.blocks:
                for phi in block.phis():
                    assert any(u is not phi for u in phi.users()), (
                        f"dead phi {phi.name} survived"
                    )


class TestConstFold:
    def test_folds_arithmetic(self):
        module = compile_unoptimized(
            "int main() { return 2 * 3 + 4; }"
        )
        run_mem2reg_module(module)
        folded = run_constfold_module(module)
        assert folded >= 1
        result, machine = run_module(module)
        assert result == 10

    def test_algebraic_identities(self):
        module = compile_unoptimized(
            """
            int main(){
              int x = 5;
              int y = x + 0;
              int z = y * 1;
              return z;
            }
            """
        )
        run_mem2reg_module(module)
        run_constfold_module(module)
        run_dce_module(module)
        main = module.get_function("main")
        assert count(module, BinaryOp) == 0
        result, _ = run_module(module)
        assert result == 5

    def test_division_by_zero_not_folded(self):
        module = compile_unoptimized("int main() { return 1 / 0; }")
        run_mem2reg_module(module)
        run_constfold_module(module)  # must not crash or fold
        from repro.errors import TrapError

        with pytest.raises(TrapError):
            run_module(module)

    def test_c_style_negative_division(self):
        module = compile_unoptimized("int main() { return (0 - 7) / 2; }")
        run_standard_pipeline(module)
        result, _ = run_module(module)
        assert result == -3  # truncation toward zero, not floor


class TestDCE:
    def test_removes_unused_arithmetic(self):
        module = compile_unoptimized(
            """
            int main() {
              int unused = 3 * 14;
              return 7;
            }
            """
        )
        run_mem2reg_module(module)
        removed = run_dce_module(module)
        assert removed >= 1
        assert count(module, BinaryOp) == 0

    def test_keeps_stores_and_calls(self):
        module = compile_unoptimized(
            """
            int G = 0;
            int main() { G = 42; print_int(G); return 0; }
            """
        )
        run_mem2reg_module(module)
        run_dce_module(module)
        result, machine = run_module(module)
        assert machine.output == [42]


class TestSimplifyCFG:
    def test_removes_unreachable_code_after_return(self):
        module = compile_unoptimized(
            """
            int main() {
              return 1;
            }
            """
        )
        f = module.get_function("main")
        baseline_blocks = len(f.blocks)
        run_simplify_cfg_module(module)
        assert len(f.blocks) <= baseline_blocks

    def test_folds_constant_branches(self):
        module = compile_unoptimized(
            """
            int main() {
              if (1 < 2) { return 10; }
              return 20;
            }
            """
        )
        run_mem2reg_module(module)
        run_constfold_module(module)
        run_simplify_cfg_module(module)
        verify_module(module)
        result, _ = run_module(module)
        assert result == 10

    def test_merges_linear_chains(self):
        module = compile_unoptimized(
            """
            int main() {
              int x = 1;
              x = x + 1;
              x = x + 2;
              return x;
            }
            """
        )
        run_mem2reg_module(module)
        run_simplify_cfg_module(module)
        f = module.get_function("main")
        assert len(f.blocks) == 1


class TestGVN:
    def test_cses_duplicate_arithmetic(self):
        module = compile_unoptimized(
            """
            int main() {
              int a = 5;
              int x = a * 7 + 1;
              int y = a * 7 + 1;
              return x + y;
            }
            """
        )
        run_mem2reg_module(module)
        removed = run_gvn_module(module)
        assert removed >= 1
        result, _ = run_module(module)
        assert result == 72

    def test_commutative_cse(self):
        module = compile_unoptimized(
            """
            int main() {
              int a = 3; int b = 9;
              return (a + b) - (b + a);
            }
            """
        )
        run_mem2reg_module(module)
        run_gvn_module(module)
        run_constfold_module(module)
        result, _ = run_module(module)
        assert result == 0

    def test_load_cse_across_branch(self):
        # The conditional-max pattern: both loads of A[i] must unify.
        module = compile_unoptimized(
            """
            int A[8];
            int main() {
              int best = 0;
              int i;
              for (i = 0; i < 8; i = i + 1) {
                A[i] = i * 3;
              }
              for (i = 0; i < 8; i = i + 1) {
                if (A[i] > best) { best = A[i]; }
              }
              return best;
            }
            """
        )
        run_mem2reg_module(module)
        before = count(module, Load)
        run_gvn_module(module)
        after = count(module, Load)
        assert after < before
        result, _ = run_module(module)
        assert result == 21

    def test_load_cse_blocked_by_store(self):
        module = compile_unoptimized(
            """
            int A[2];
            int main() {
              A[0] = 1;
              int x = A[0];
              A[0] = 2;
              int y = A[0];
              return x * 10 + y;
            }
            """
        )
        run_mem2reg_module(module)
        run_gvn_module(module)
        result, _ = run_module(module)
        assert result == 12  # the second load must NOT reuse the first

    def test_load_cse_blocked_by_call(self):
        module = compile_unoptimized(
            """
            int A[2];
            void clobber() { A[0] = 7; }
            int main() {
              A[0] = 1;
              int x = A[0];
              clobber();
              int y = A[0];
              return x * 10 + y;
            }
            """
        )
        run_mem2reg_module(module)
        run_gvn_module(module)
        result, _ = run_module(module)
        assert result == 17

    def test_load_cse_blocked_by_loop_store(self):
        # The store executes on a cycle between the loads.
        module = compile_unoptimized(
            """
            int A[2];
            int main() {
              int i;
              int s = 0;
              A[0] = 5;
              for (i = 0; i < 3; i = i + 1) {
                s = s + A[0];
                A[0] = A[0] + 1;
              }
              return s;
            }
            """
        )
        run_mem2reg_module(module)
        run_gvn_module(module)
        result, _ = run_module(module)
        assert result == 5 + 6 + 7


class TestLoopSimplifyIndvars:
    def test_all_compiled_loops_simplified(self):
        module = compile_unoptimized(SAMPLE)
        run_standard_pipeline(module)
        for f in module.defined_functions():
            info = LoopInfo(f)
            for loop in info.all_loops():
                assert is_loop_simplified(loop, info.cfg)

    def test_canonical_iv_found(self):
        from repro.frontend import compile_source

        module = compile_source(SAMPLE)
        f = module.get_function("main")
        result = run_indvars(f)
        info = LoopInfo(f)
        loop = info.all_loops()[0]
        assert loop.loop_id in result.canonical_iv
        assert result.trip_counts.get(loop.loop_id) == 32

    def test_canonical_iv_inserted_when_missing(self):
        from repro.frontend import compile_source

        # loop starting at 3: i is {3,+,2}, not canonical -> civ inserted
        module = compile_source(
            """
            int A[64];
            int main() {
              int i;
              for (i = 3; i < 60; i = i + 2) { A[i] = i; }
              return 0;
            }
            """
        )
        f = module.get_function("main")
        info = LoopInfo(f)
        loop = info.all_loops()[0]
        names = {phi.name for phi in loop.header.phis()}
        assert "civ" in names
        verify_module(module)

    def test_pipeline_preserves_behaviour(self):
        reference = compile_unoptimized(SAMPLE)
        expected = behaviour(reference)
        module = compile_unoptimized(SAMPLE)
        run_standard_pipeline(module, verify_each=True)
        assert behaviour(module) == expected

    def test_pipeline_reduces_dynamic_cost(self):
        unopt = compile_unoptimized(SAMPLE)
        _, unopt_machine = run_module(unopt)
        opt = compile_unoptimized(SAMPLE)
        run_standard_pipeline(opt)
        _, opt_machine = run_module(opt)
        assert opt_machine.cost < unopt_machine.cost


class TestForcedVerification:
    """``verify_each=True`` verifies the IR at every pipeline stage
    boundary, and a failure names the stage that broke it."""

    def test_checkpoint_attributes_the_stage(self):
        from repro.errors import VerificationError
        from repro.ir import I32, Module
        from repro.passes.pass_manager import _checkpoint

        module = Module("t")
        f = module.add_function("f", I32, [])
        f.append_block("entry")  # no terminator: invalid
        with pytest.raises(VerificationError) as excinfo:
            _checkpoint(module, "gvn")
        assert all(p.startswith("after gvn: ") for p in excinfo.value.problems)

    @pytest.mark.parametrize("transform", [False, True],
                             ids=["transforms-off", "transforms-on"])
    def test_every_bundled_program_verifies_at_every_stage(self, transform):
        from repro.bench import all_programs
        from repro.frontend.codegen import compile_source

        programs = all_programs()
        assert len(programs) == 48
        for program in programs:
            compile_source(program.source, module_name=program.full_name,
                           verify_each=True, transform=transform)

    @pytest.mark.parametrize(
        "pass_name, call, stage, transform, verify_each", [
            ("run_licm_module", 1, "licm", False, True),
            ("run_loop_fusion_module", 1, "loop-fusion", True, True),
            # Without verify_each the last stage of each pipeline still is;
            # with transforms on, the second dce is the last stage.
            ("run_indvars_module", 1, "indvars", False, False),
            ("run_dce_module", 2, "dce (post-transform)", True, False),
        ], ids=["licm", "loop-fusion", "last-standard", "last-transform"])
    def test_a_stage_that_breaks_the_ir_is_named(
            self, monkeypatch, pass_name, call, stage, transform,
            verify_each):
        from repro.errors import VerificationError
        from repro.frontend.codegen import compile_source
        from repro.passes import pass_manager

        run_pass = getattr(pass_manager, pass_name)
        calls = []

        def breaking(module):
            run_pass(module)
            calls.append(module)
            if len(calls) == call:
                module.get_function("main").append_block("unterminated")

        monkeypatch.setattr(pass_manager, pass_name, breaking)
        with pytest.raises(VerificationError) as excinfo:
            compile_source(SAMPLE, verify_each=verify_each,
                           transform=transform)
        problems = excinfo.value.problems
        assert problems
        assert all(p.startswith(f"after {stage}: ") for p in problems)
