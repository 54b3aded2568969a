"""The block-template JIT backend: selection, parity, fuel accounting,
the persistent code cache, and the source-dump escape hatch.

The exhaustive closure-vs-JIT comparison over every bundled benchmark
lives in test_differential_backends.py; these tests pin the individual
contracts with small targeted programs.
"""

import pytest

from repro.core.framework import Loopapalooza
from repro.errors import FuelExhausted, InterpError
from repro.frontend.codegen import compile_source
from repro.interp.interpreter import Interpreter

TIGHT_LOOP = """
int main() {
  int i; int s;
  s = 0;
  for (i = 0; i < 25; i = i + 1) { s = s + i; }
  return s;
}
"""

MIXED = """
int N = 16;
float A[16];

float scale(float x) { return x * 2.5 + sqrt(x); }

int main() {
  int i; float acc;
  acc = 0.0;
  for (i = 0; i < N; i = i + 1) { A[i] = (float)i / 3.0; }
  for (i = 0; i < N; i = i + 1) { acc = acc + scale(A[i]); }
  print_float(acc);
  return (int)acc;
}
"""

# An alloca reusing stack slots below the high-water mark is not zeroed:
# probe's C[0..31] still hold scribble's B values (3i + 7 summed = 1712).
STACK_REUSE = """
int scribble(int k) { int B[32]; int i;
  for (i = 0; i < 32; i = i + 1) { B[i] = k * i + 7; }
  return B[31]; }
int probe() { int C[48]; int i; int acc;
  acc = 0;
  for (i = 0; i < 48; i = i + 1) { acc = acc + C[i]; }
  return acc; }
int main() { int s;
  s = scribble(3);
  print_int(probe());
  return s & 255; }
"""


def _run(source, backend, fuel=200_000_000):
    machine = Interpreter(
        compile_source(source), fuel=fuel, backend=backend
    )
    result = machine.run("main")
    return result, machine.cost, list(machine.output)


class TestBackendSelection:
    def test_default_is_vec(self, monkeypatch):
        # The backend is an argument only: the variables that used to
        # select it, REPRO_NO_<TIER>, change nothing.
        for tier in ("JIT", "VEC"):
            monkeypatch.setenv(f"REPRO_NO_{tier}", "1")
        assert Interpreter(compile_source(TIGHT_LOOP)).backend == "vec"
        assert Loopapalooza(TIGHT_LOOP).backend == "vec"

    def test_unknown_backend_rejected(self):
        for backend in ("bytecode", "par"):
            with pytest.raises(InterpError, match="backend"):
                Interpreter(compile_source(TIGHT_LOOP), backend=backend)


class TestBackendParity:
    def test_uninstrumented_runs_match(self):
        assert _run(MIXED, "closure") == _run(MIXED, "jit")
        for backend in ("closure", "jit", "vec"):
            assert _run(STACK_REUSE, backend) == (100, 749, [1712])

    def test_profiles_serialize_identically(self):
        import json

        from repro.runtime.serialize import profile_to_dict

        for source in (MIXED, STACK_REUSE):
            texts = []
            for backend in ("closure", "jit", "vec"):
                lp = Loopapalooza(source, name="parity", backend=backend)
                texts.append(
                    json.dumps(profile_to_dict(lp.profile()), sort_keys=True)
                )
            assert texts[0] == texts[1] == texts[2]


class TestFuelAccounting:
    """Both backends charge block costs identically: the run that exactly
    fits its budget completes on each, and one unit less trips both."""

    def _exact_cost(self, source):
        return _run(source, "closure")[1]

    @pytest.mark.parametrize("source", [TIGHT_LOOP, MIXED])
    def test_exact_fuel_completes_on_both(self, source):
        cost = self._exact_cost(source)
        for backend in ("closure", "jit"):
            result, spent, _ = _run(source, backend, fuel=cost)
            assert spent == cost

    @pytest.mark.parametrize("source", [TIGHT_LOOP, MIXED])
    def test_one_less_exhausts_on_both(self, source):
        cost = self._exact_cost(source)
        for backend in ("closure", "jit"):
            with pytest.raises(FuelExhausted):
                _run(source, backend, fuel=cost - 1)

    def test_instrumented_budget_matches_uninstrumented(self):
        cost = self._exact_cost(TIGHT_LOOP)
        lp = Loopapalooza(TIGHT_LOOP, fuel=cost, backend="jit")
        assert lp.profile().total_cost == cost
        with pytest.raises(FuelExhausted):
            Loopapalooza(TIGHT_LOOP, fuel=cost - 1, backend="jit").profile()


class TestCodeCache:
    def _function(self):
        return compile_source(TIGHT_LOOP).get_function("main")

    def test_cache_key_is_stable_across_compiles(self):
        from repro.interp.codegen import jit_cache_key

        key_a = jit_cache_key(
            compile_source(TIGHT_LOOP).get_function("main"), None, False
        )
        key_b = jit_cache_key(
            compile_source(TIGHT_LOOP).get_function("main"), None, False
        )
        assert key_a == key_b

    def test_variants_get_distinct_keys(self):
        from repro.interp.codegen import jit_cache_key

        function = self._function()
        assert jit_cache_key(function, None, False) != jit_cache_key(
            function, None, True
        )

    def test_pipeline_fingerprint_distinguishes_identical_ir(self):
        """Stale-hit regression: the transforms leave TIGHT_LOOP alone, so
        both pipelines print byte-identical IR — yet a cached artifact from
        one pipeline configuration must never satisfy the other."""
        from repro.interp.codegen import jit_cache_key
        from repro.ir.printer import print_function

        plain = compile_source(TIGHT_LOOP, transform=False)
        transformed = compile_source(TIGHT_LOOP, transform=True)
        assert print_function(plain.get_function("main")) == \
            print_function(transformed.get_function("main"))
        assert jit_cache_key(plain.get_function("main"), None, False) != \
            jit_cache_key(transformed.get_function("main"), None, False)

    def test_unpipelined_function_keys_stably(self):
        from repro.interp.codegen import jit_cache_key
        from repro.ir import Module

        function = self._function()
        bare = Module("bare")
        assert not hasattr(bare, "pipeline_fingerprint") \
            or bare.pipeline_fingerprint is None
        key_a = jit_cache_key(function, None, False)
        key_b = jit_cache_key(function, None, False)
        assert key_a == key_b

    def test_round_trip_through_disk(self, tmp_path, monkeypatch):
        from repro.interp import codegen
        from repro.runtime.profile_store import CodeCache

        monkeypatch.setattr(codegen, "_CODE_MEMO", {})
        cache = CodeCache(tmp_path / "code")
        entry = codegen.jit_entry(
            self._function(), None, False, code_cache=cache
        )
        assert cache.stats.misses == 1 and cache.stats.stores == 1

        monkeypatch.setattr(codegen, "_CODE_MEMO", {})
        again = codegen.jit_entry(
            self._function(), None, False, code_cache=cache
        )
        assert cache.stats.hits == 1

        machine = Interpreter(compile_source(TIGHT_LOOP), backend="closure")
        expected = machine.run("main")
        fresh = Interpreter(compile_source(TIGHT_LOOP), backend="closure")
        assert again(fresh, ()) == expected

    def test_corrupt_entry_degrades_to_miss(self, tmp_path, monkeypatch):
        from repro.interp import codegen
        from repro.runtime.profile_store import CodeCache

        monkeypatch.setattr(codegen, "_CODE_MEMO", {})
        cache = CodeCache(tmp_path / "code")
        function = self._function()
        codegen.jit_entry(function, None, False, code_cache=cache)
        for path in cache.entries():
            path.write_text("{ not json")
        monkeypatch.setattr(codegen, "_CODE_MEMO", {})
        cache = CodeCache(tmp_path / "code")
        codegen.jit_entry(function, None, False, code_cache=cache)
        assert cache.stats.corrupt == 1

    def test_non_utf8_byte_degrades_to_miss(self, tmp_path, monkeypatch):
        """Regression: an undecodable byte used to escape ``CodeCache.load``
        as a UnicodeDecodeError instead of counting as corruption."""
        from repro.interp import codegen
        from repro.runtime.profile_store import CodeCache

        monkeypatch.setattr(codegen, "_CODE_MEMO", {})
        cache = CodeCache(tmp_path / "code")
        function = self._function()
        codegen.jit_entry(function, None, False, code_cache=cache)
        [path] = cache.entries()
        data = bytearray(path.read_bytes())
        data[len(data) // 2] = 0xFE
        path.write_bytes(bytes(data))
        monkeypatch.setattr(codegen, "_CODE_MEMO", {})
        cache = CodeCache(tmp_path / "code")
        codegen.jit_entry(function, None, False, code_cache=cache)
        assert cache.stats.corrupt == 1
        assert cache.stats.stores == 1


class TestDumpAndFallback:
    def test_unsupported_function_falls_back_to_closure(self):
        from repro.ir import F64, IRBuilder, Module
        from repro.ir.values import ConstantFloat

        module = Module("nanny")
        function = module.add_function("f", F64, [])
        builder = IRBuilder(function.append_block("entry"))
        builder.ret(ConstantFloat(float("nan")))
        machine = Interpreter(module, backend="jit")
        result = machine.run("f")
        assert result != result  # NaN round-tripped through the closure path
        assert "f" in machine._jit_failed
