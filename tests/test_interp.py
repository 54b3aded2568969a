"""Interpreter and intrinsics tests: memory model, costs, hooks neutrality."""

import math

import pytest

from repro.frontend import compile_source
from repro.interp import INTRINSICS, AddressSpace, Interpreter, run_module
from repro.interp.intrinsics import _hash32

from helpers import run_minic


class TestAddressSpace:
    def test_global_then_stack_layout(self):
        space = AddressSpace()

        class FakeGlobal:
            def flat_initializer(self):
                return [1, 2, 3]

        base = space.add_global(FakeGlobal())
        assert base == 0
        assert space.load(2) == 3
        frame = space.allocate(2, 0, None)
        assert frame == 3
        space.store(frame, 42)
        assert space.load(frame) == 42

    def test_release_pops_allocations(self):
        space = AddressSpace()
        a = space.allocate(4, 0, {"x": 1})
        b = space.allocate(4, 0, {"y": 2})
        assert space.marks_for(b) == {"y": 2}
        space.release_to(b)
        with pytest.raises(Exception):
            space.load(b)
        assert space.marks_for(a) == {"x": 1}

    def test_reallocation_zeroes(self):
        space = AddressSpace()
        a = space.allocate(2, 0, None)
        space.store(a, 99)
        space.release_to(a)
        a2 = space.allocate(2, 0, None)
        assert a2 == a
        assert space.load(a2) == 0

    def test_marks_for_globals_is_none(self):
        space = AddressSpace()

        class FakeGlobal:
            def flat_initializer(self):
                return [0] * 4

        space.add_global(FakeGlobal())
        assert space.marks_for(1) is None

    def test_nan_and_signed_zero_round_trip(self):
        space = AddressSpace()
        space.allocate(2, 0.0, None)
        space.store(0, float("nan"))
        space.store(1, -0.0)
        assert math.isnan(space.load(0))
        value = space.load(1)
        assert value == 0.0 and math.copysign(1.0, value) == -1.0


class TestCostModel:
    def test_cost_equals_dynamic_instruction_count(self):
        # A hand-countable straight-line program.
        module = compile_source("int main() { return 1; }")
        result, machine = run_module(module)
        # entry: ret -> exactly 1 instruction.
        assert machine.cost == 1

    def test_loop_cost_scales_with_trip_count(self):
        def cost_for(n):
            module = compile_source(
                f"""
                int A[2048];
                int main() {{
                  int i;
                  for (i = 0; i < {n}; i = i + 1) {{ A[i] = i; }}
                  return 0;
                }}
                """
            )
            _, machine = run_module(module)
            return machine.cost

        c100, c200 = cost_for(100), cost_for(200)
        per_iter = (c200 - c100) / 100
        assert 4 <= per_iter <= 12

    def test_instrumentation_does_not_change_cost_or_result(self):
        from repro.core import Loopapalooza

        source = """
        int A[64];
        int main() {
          int i; int s = 0;
          for (i = 1; i < 64; i = i + 1) { A[i] = A[i-1] + i; s = s + A[i]; }
          print_int(s);
          return s & 32767;
        }
        """
        lp = Loopapalooza(source, "neutrality")
        profile = lp.profile()
        plain_result, plain_cost, plain_output = lp.run_uninstrumented()
        assert profile.result == plain_result
        assert profile.total_cost == plain_cost
        assert lp.output == plain_output


class TestIntrinsics:
    def test_math_intrinsics(self):
        result, _, output = run_minic(
            """
            int main() {
              print_float(sqrt(16.0));
              print_float(fabs(-2.5));
              print_float(pow(2.0, 10.0));
              print_float(fmin(1.0, 2.0) + fmax(1.0, 2.0));
              print_float(floor(3.9));
              return 0;
            }
            """
        )
        assert output == [4.0, 2.5, 1024.0, 3.0, 3.0]

    def test_trig_and_log(self):
        _, _, output = run_minic(
            """
            int main() {
              print_float(sin(0.0) + cos(0.0));
              print_float(exp(0.0));
              print_float(log(1.0));
              return 0;
            }
            """
        )
        assert output == [1.0, 1.0, 0.0]

    def test_int_helpers(self):
        result, _, _ = run_minic(
            "int main() { return iabs(-5) * 100 + imin(3, 7) * 10 + imax(3, 7); }"
        )
        assert result == 537

    def test_hash_is_deterministic_and_spread(self):
        values = {_hash32(i) & 0xFF for i in range(100)}
        assert len(values) > 60  # decent dispersion
        result1, _, _ = run_minic("int main() { return hash_i32(1234) & 65535; }")
        result2, _, _ = run_minic("int main() { return hash_i32(1234) & 65535; }")
        assert result1 == result2

    def test_noise_in_unit_interval(self):
        _, _, output = run_minic(
            """
            int main() {
              int i;
              for (i = 0; i < 20; i = i + 1) { print_float(noise_f64(i)); }
              return 0;
            }
            """
        )
        assert all(0.0 <= v < 1.0 for v in output)

    def test_rand_respects_seed(self):
        source = """
        int main() {
          srand(7);
          int a = rand();
          srand(7);
          int b = rand();
          return a == b;
        }
        """
        result, _, _ = run_minic(source)
        assert result == 1

    def test_memset_memcpy(self):
        result, _, _ = run_minic(
            """
            int A[8]; int B[8];
            int main() {
              memset_i32(A, 5, 8);
              memcpy_i32(B, A, 8);
              return B[0] + B[7];
            }
            """
        )
        assert result == 10

    def test_memset_f64(self):
        result, _, _ = run_minic(
            """
            float X[4]; float Y[4];
            int main() {
              memset_f64(X, 2.5, 4);
              memcpy_f64(Y, X, 4);
              return (int)(Y[3] * 4.0);
            }
            """
        )
        assert result == 10

    def test_sqrt_of_negative_traps(self):
        from repro.errors import TrapError

        with pytest.raises(TrapError):
            run_minic("float x = -1.0; int main() { print_float(sqrt(x)); return 0; }")

    def test_registry_attributes(self):
        assert INTRINSICS["sqrt"].is_pure
        assert INTRINSICS["hash_i32"].is_pure
        assert not INTRINSICS["rand"].is_pure
        assert not INTRINSICS["rand"].is_thread_safe
        assert INTRINSICS["memcpy_i32"].is_thread_safe
        assert not INTRINSICS["memcpy_i32"].is_pure
        assert not INTRINSICS["print_int"].is_thread_safe

    def test_intrinsic_memory_traffic_is_observed(self):
        """memcpy through an intrinsic must feed conflict tracking."""
        from repro.core import Loopapalooza

        lp = Loopapalooza(
            """
            int A[32]; int B[32];
            int main() {
              int i;
              for (i = 1; i < 16; i = i + 1) {
                memcpy_i32(&A[i], &A[i-1], 1);   // cross-iteration RAW
              }
              return A[15];
            }
            """,
            "memchain",
        )
        profile = lp.profile()
        hot = [inv for inv in profile.all_invocations() if inv.num_iterations > 4][0]
        assert hot.conflict_count > 0


class TestUnsignedIntOps:
    """``lshr``/``udiv``/``urem``: LLVM unsigned semantics over the
    two's-complement bit pattern of i32 values."""

    @staticmethod
    def _run(opcode, a, b):
        from repro.ir import I32, IRBuilder, Module

        module = Module("unsigned_ops")
        function = module.add_function("f", I32, [I32, I32])
        builder = IRBuilder(function.append_block("entry"))
        lhs, rhs = function.arguments
        builder.ret(builder.binop(opcode, lhs, rhs, "r"))
        return Interpreter(module).run("f", (a, b))

    def test_lshr_positive_matches_ashr(self):
        assert self._run("lshr", 20, 2) == 5
        assert self._run("lshr", 1, 0) == 1

    def test_lshr_shifts_in_zeros(self):
        # -1 is 0xFFFFFFFF; a logical shift right by one gives 0x7FFFFFFF.
        assert self._run("lshr", -1, 1) == 0x7FFFFFFF
        assert self._run("lshr", -8, 2) == 0x3FFFFFFE
        assert self._run("lshr", -1, 31) == 1

    def test_lshr_masks_shift_amount(self):
        # Like shl/ashr, the shift amount is taken mod 32.
        assert self._run("lshr", -1, 33) == self._run("lshr", -1, 1)

    def test_udiv_unsigned_view(self):
        assert self._run("udiv", 7, 2) == 3
        # -1 reads as 4294967295; halved gives INT_MAX.
        assert self._run("udiv", -1, 2) == 0x7FFFFFFF
        # 0xFFFFFFFC // 0xFFFFFFFE == 0: the divisor reads as a huge
        # unsigned value just above the dividend, not as -2.
        assert self._run("udiv", -4, -2) == 0
        assert self._run("udiv", -2, -4) == 1
        assert self._run("udiv", 7, -1) == 0

    def test_urem_unsigned_view(self):
        assert self._run("urem", 7, 3) == 1
        assert self._run("urem", -1, 2) == 1
        # 0xFFFFFFFC % 0xFFFFFFFE == 0xFFFFFFFC, re-wrapped to signed -4.
        assert self._run("urem", -4, -2) == -4
        assert self._run("urem", 7, -1) == 7

    def test_results_wrap_to_signed(self):
        assert self._run("udiv", -4, 1) == -4
        assert all(
            -(1 << 31) <= self._run(op, a, b) < (1 << 31)
            for op in ("lshr", "udiv", "urem")
            for a in (-(1 << 31), -1, 0, 1, (1 << 31) - 1)
            for b in (1, 2, 31, -1)
        )

    def test_zero_divisor_traps(self):
        from repro.errors import TrapError

        with pytest.raises(TrapError, match="division by zero"):
            self._run("udiv", 1, 0)
        with pytest.raises(TrapError, match="remainder by zero"):
            self._run("urem", 1, 0)

    def test_constfold_agrees_with_interpreter(self):
        from repro.ir import I32, IRBuilder, Module
        from repro.ir.values import ConstantInt
        from repro.passes.constfold import run_constfold

        cases = [
            ("lshr", -1, 1), ("lshr", -8, 2), ("lshr", 20, 2),
            ("udiv", -1, 2), ("udiv", -4, -2), ("udiv", 7, 2),
            ("urem", -1, 2), ("urem", -4, -2), ("urem", 7, 3),
        ]
        for opcode, a, b in cases:
            executed = self._run(opcode, a, b)
            module = Module("fold")
            function = module.add_function("f", I32, [])
            block = function.append_block("entry")
            builder = IRBuilder(block)
            builder.ret(
                builder.binop(
                    opcode, builder.const_int(a), builder.const_int(b), "r"
                )
            )
            assert run_constfold(function) == 1
            folded = block.terminator.value
            assert isinstance(folded, ConstantInt)
            assert folded.value == executed, (opcode, a, b)

    def test_constfold_leaves_zero_divisor_alone(self):
        from repro.ir import I32, IRBuilder, Module
        from repro.passes.constfold import run_constfold

        for opcode in ("udiv", "urem"):
            module = Module("nofold")
            function = module.add_function("f", I32, [])
            builder = IRBuilder(function.append_block("entry"))
            builder.ret(
                builder.binop(
                    opcode, builder.const_int(1), builder.const_int(0), "r"
                )
            )
            assert run_constfold(function) == 0

    def test_builder_helpers_verify(self):
        from repro.ir import I32, IRBuilder, Module, verify_module

        module = Module("helpers")
        function = module.add_function("f", I32, [I32, I32])
        builder = IRBuilder(function.append_block("entry"))
        lhs, rhs = function.arguments
        assert builder.lshr(lhs, rhs).opcode == "lshr"
        assert builder.udiv(lhs, rhs).opcode == "udiv"
        assert builder.urem(lhs, rhs).opcode == "urem"
        builder.ret(builder.const_int(0))
        assert verify_module(module)

    def test_printer_emits_opcodes(self):
        from repro.ir import I32, IRBuilder, Module, print_module

        module = Module("rt")
        function = module.add_function("f", I32, [I32, I32])
        builder = IRBuilder(function.append_block("entry"))
        lhs, rhs = function.arguments
        value = builder.lshr(builder.udiv(lhs, rhs), builder.urem(lhs, rhs))
        builder.ret(value)
        text = print_module(module)
        for opcode in ("lshr", "udiv", "urem"):
            assert opcode in text


class TestSignedDivOverflow:
    """``sdiv``/``srem`` at the INT_MIN / -1 overflow corner: LLVM wraps the
    quotient to the type (``INT_MIN sdiv -1 == INT_MIN``) and the remainder
    to zero; a naive Python ``//`` would return ``2**31`` instead."""

    INT_MIN = -(1 << 31)

    @staticmethod
    def _run(opcode, a, b, backend=None):
        from repro.ir import I32, IRBuilder, Module

        module = Module("signed_ops")
        function = module.add_function("f", I32, [I32, I32])
        builder = IRBuilder(function.append_block("entry"))
        lhs, rhs = function.arguments
        builder.ret(builder.binop(opcode, lhs, rhs, "r"))
        return Interpreter(module, backend=backend).run("f", (a, b))

    def test_sdiv_int_min_by_minus_one_wraps(self):
        assert self._run("sdiv", self.INT_MIN, -1) == self.INT_MIN

    def test_srem_int_min_by_minus_one_is_zero(self):
        assert self._run("srem", self.INT_MIN, -1) == 0

    def test_truncation_toward_zero(self):
        assert self._run("sdiv", -7, 2) == -3
        assert self._run("sdiv", 7, -2) == -3
        assert self._run("srem", -7, 2) == -1
        assert self._run("srem", 7, -2) == 1

    def test_both_backends_agree_on_the_corner(self):
        for backend in ("closure", "jit"):
            assert self._run("sdiv", self.INT_MIN, -1, backend) == self.INT_MIN
            assert self._run("srem", self.INT_MIN, -1, backend) == 0

    def test_zero_divisor_traps(self):
        from repro.errors import TrapError

        with pytest.raises(TrapError, match="division by zero"):
            self._run("sdiv", 1, 0)
        with pytest.raises(TrapError, match="remainder by zero"):
            self._run("srem", 1, 0)

    def test_constfold_agrees_on_the_corner(self):
        from repro.ir import I32, IRBuilder, Module
        from repro.ir.values import ConstantInt
        from repro.passes.constfold import run_constfold

        for opcode, expected in (("sdiv", self.INT_MIN), ("srem", 0)):
            module = Module("fold")
            function = module.add_function("f", I32, [])
            block = function.append_block("entry")
            builder = IRBuilder(block)
            builder.ret(
                builder.binop(
                    opcode,
                    builder.const_int(self.INT_MIN),
                    builder.const_int(-1),
                    "r",
                )
            )
            assert run_constfold(function) == 1
            folded = block.terminator.value
            assert isinstance(folded, ConstantInt)
            assert folded.value == expected, opcode
