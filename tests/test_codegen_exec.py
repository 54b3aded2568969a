"""Behavioural tests: compile MiniC and execute, checking C semantics on
every backend (the backends must also agree with each other)."""

import pytest

from repro.errors import FuelExhausted, TrapError

from helpers import run_minic_all


class TestArithmetic:
    def test_integer_ops(self):
        result, _, _ = run_minic_all(
            "int main() { return (17 + 5) * 3 - 100 / 7 + 100 % 7; }"
        )
        assert result == (17 + 5) * 3 - 100 // 7 + 100 % 7

    def test_c_division_truncates_toward_zero(self):
        result, _, _ = run_minic_all(
            """
            int a = -7;
            int b = 2;
            int main() { return a / b * 100 + iabs(a % b); }
            """
        )
        assert result == -3 * 100 + 1

    def test_bitwise(self):
        result, _, _ = run_minic_all(
            "int main() { return ((0xF0F & 255) | 256) ^ 3; }".replace("0xF0F", "3855")
        )
        assert result == ((3855 & 255) | 256) ^ 3

    def test_shifts(self):
        result, _, _ = run_minic_all(
            "int main() { return (1 << 10) + (1024 >> 3); }")
        assert result == 1024 + 128

    def test_int32_wraparound(self):
        result, _, _ = run_minic_all(
            "int main() { int x = 2147483647; return x + 1; }"
        )
        assert result == -(2**31)

    def test_float_arithmetic(self):
        result, _, _ = run_minic_all(
            "int main() { float x = 1.5 * 4.0 - 1.0; return (int)(x * 10.0); }"
        )
        assert result == 50

    def test_mixed_promotion(self):
        result, _, _ = run_minic_all(
            "int main() { float x = 3; return (int)((x + 1) / 2); }"
        )
        assert result == 2

    def test_unary_minus_and_not(self):
        result, _, _ = run_minic_all(
            "int main() { return -5 + !0 * 10 + !7; }"
        )
        assert result == -5 + 10 + 0

    def test_comparison_yields_int(self):
        result, _, _ = run_minic_all(
            "int main() { return (3 < 5) + (5 < 3); }")
        assert result == 1


class TestControlFlow:
    def test_if_else_chain(self):
        source = """
        int grade(int x) {
          if (x >= 90) { return 4; }
          else if (x >= 80) { return 3; }
          else if (x >= 70) { return 2; }
          else { return 0; }
        }
        int main() { return grade(95)*1000 + grade(85)*100 + grade(75)*10 + grade(5); }
        """
        result, _, _ = run_minic_all(source)
        assert result == 4320

    def test_while_and_break(self):
        result, _, _ = run_minic_all(
            """
            int main() {
              int i = 0; int s = 0;
              while (1) {
                if (i >= 10) { break; }
                s = s + i;
                i = i + 1;
              }
              return s;
            }
            """
        )
        assert result == 45

    def test_continue(self):
        result, _, _ = run_minic_all(
            """
            int main() {
              int i; int s = 0;
              for (i = 0; i < 10; i = i + 1) {
                if (i % 2 == 0) { continue; }
                s = s + i;
              }
              return s;
            }
            """
        )
        assert result == 25

    def test_nested_break_only_inner(self):
        result, _, _ = run_minic_all(
            """
            int main() {
              int i; int j; int s = 0;
              for (i = 0; i < 3; i = i + 1) {
                for (j = 0; j < 100; j = j + 1) {
                  if (j == 2) { break; }
                  s = s + 1;
                }
              }
              return s;
            }
            """
        )
        assert result == 6

    def test_short_circuit_and_skips_rhs(self):
        result, _, output = run_minic_all(
            """
            int side(int v) { print_int(v); return v; }
            int main() {
              if (0 && side(1)) { return 1; }
              if (1 && side(2)) { return side(3); }
              return 0;
            }
            """
        )
        assert output == [2, 3]
        assert result == 3

    def test_short_circuit_or_skips_rhs(self):
        result, _, output = run_minic_all(
            """
            int side(int v) { print_int(v); return v; }
            int main() {
              if (1 || side(1)) { side(9); }
              if (0 || side(2)) { return 5; }
              return 0;
            }
            """
        )
        assert output == [9, 2]
        assert result == 5

    def test_early_return_mid_loop(self):
        result, _, _ = run_minic_all(
            """
            int main() {
              int i;
              for (i = 0; i < 100; i = i + 1) {
                if (i == 7) { return i * 3; }
              }
              return -1;
            }
            """
        )
        assert result == 21


class TestFunctionsAndMemory:
    def test_recursion(self):
        result, _, _ = run_minic_all(
            """
            int ack(int m, int n) {
              if (m == 0) { return n + 1; }
              if (n == 0) { return ack(m - 1, 1); }
              return ack(m - 1, ack(m, n - 1));
            }
            int main() { return ack(2, 3); }
            """
        )
        assert result == 9

    def test_mutual_recursion(self):
        result, _, _ = run_minic_all(
            """
            int is_odd(int n) { if (n == 0) { return 0; } return is_even(n - 1); }
            int is_even(int n) { if (n == 0) { return 1; } return is_odd(n - 1); }
            int main() { return is_even(10) * 10 + is_odd(7); }
            """
        )
        assert result == 11

    def test_global_arrays(self):
        result, _, _ = run_minic_all(
            """
            int A[5] = {10, 20, 30};
            int main() { A[3] = A[0] + A[1]; return A[3] + A[4]; }
            """
        )
        assert result == 30

    def test_local_arrays(self):
        result, _, _ = run_minic_all(
            """
            int main() {
              int buf[4];
              int i;
              for (i = 0; i < 4; i = i + 1) { buf[i] = i * i; }
              return buf[0] + buf[1] + buf[2] + buf[3];
            }
            """
        )
        assert result == 14

    def test_pointer_params_write_caller_memory(self):
        result, _, _ = run_minic_all(
            """
            int A[4];
            void fill(int* p, int n, int v) {
              int i;
              for (i = 0; i < n; i = i + 1) { p[i] = v + i; }
            }
            int main() { fill(A, 4, 100); return A[0] + A[3]; }
            """
        )
        assert result == 100 + 103

    def test_address_of_scalar(self):
        result, _, _ = run_minic_all(
            """
            void bump(int* p) { p[0] = p[0] + 5; }
            int main() { int x = 10; bump(&x); return x; }
            """
        )
        assert result == 15

    def test_address_of_array_element(self):
        result, _, _ = run_minic_all(
            """
            int A[8];
            void setit(int* p) { p[0] = 7; }
            int main() { setit(&A[3]); return A[3]; }
            """
        )
        assert result == 7

    def test_void_function(self):
        result, _, output = run_minic_all(
            """
            int G = 0;
            void twice(int v) { G = v * 2; }
            int main() { twice(21); return G; }
            """
        )
        assert result == 42

    def test_loop_local_array_fresh_each_iteration(self):
        # Allocas in the loop body give privatized storage per iteration.
        result, _, _ = run_minic_all(
            """
            int main() {
              int i;
              int s = 0;
              for (i = 0; i < 3; i = i + 1) {
                int tmp[2];
                tmp[0] = tmp[0] + 1;   // always 0 -> 1: fresh zeroed slot
                s = s + tmp[0];
              }
              return s;
            }
            """
        )
        assert result == 3


class TestTraps:
    def test_division_by_zero_traps(self):
        with pytest.raises(TrapError):
            run_minic_all("int z = 0; int main() { return 5 / z; }")

    def test_out_of_bounds_traps(self):
        with pytest.raises(TrapError):
            run_minic_all(
                """
                int A[4];
                int main() { return A[100000]; }
                """
            )

    def test_fuel_exhaustion(self):
        with pytest.raises(FuelExhausted):
            run_minic_all(
                "int main() { int i = 0; while (1) { i = i + 1; } return i; }",
                fuel=10_000,
            )

    def test_runaway_recursion_trapped(self):
        with pytest.raises(TrapError, match="depth"):
            run_minic_all(
                "int f(int n) { return f(n + 1); } "
                "int main() { return f(0); }")


class TestDeterminism:
    def test_repeated_runs_identical(self):
        source = """
        int main() {
          int i; int s = 0;
          srand(42);
          for (i = 0; i < 10; i = i + 1) { s = s ^ rand(); }
          print_int(s);
          return s & 32767;
        }
        """
        first = run_minic_all(source)
        second = run_minic_all(source)
        assert first == second
