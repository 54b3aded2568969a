"""Remaining-corner tests: wide-integer IR paths, evaluate_many, and the
figure helpers not exercised elsewhere."""

import pytest

from repro.ir import (
    I32,
    I64,
    IRBuilder,
    Module,
    verify_module,
)
from repro.interp.interpreter import run_module


class TestWideIntegerIR:
    """The frontend only emits i32/f64, but the IR and interpreter support
    i64 arithmetic and the zext/trunc casts; exercise them directly."""

    def build(self, make_body):
        module = Module("wide")
        f = module.add_function("f", I32, [I32])
        b = IRBuilder(f.append_block("entry"))
        make_body(b, f.arguments[0])
        verify_module(module)
        return module

    def run(self, module, value):
        result, _ = run_module(module, function_name="f", args=[value])
        return result

    def test_zext_then_i64_arithmetic_then_trunc(self):
        def body(b, arg):
            wide = b.cast("zext", arg, I64, "wide")
            squared = b.mul(wide, wide, "sq")
            shifted = b.ashr(squared, b.const_int(16, I64), "sh")
            back = b.cast("trunc", shifted, I32, "narrow")
            b.ret(back)

        module = self.build(body)
        # 100000^2 = 10^10 overflows i32 but fits i64.
        assert self.run(module, 100_000) == (100_000 * 100_000) >> 16

    def test_trunc_wraps_to_narrow_range(self):
        def body(b, arg):
            wide = b.cast("zext", arg, I64, "wide")
            big = b.add(wide, b.const_int(2**33, I64), "big")
            back = b.cast("trunc", big, I32, "narrow")
            b.ret(back)

        module = self.build(body)
        assert self.run(module, 5) == 5  # 2^33 vanishes in the low 32 bits

    def test_i64_comparison(self):
        def body(b, arg):
            wide = b.cast("zext", arg, I64, "wide")
            flag = b.icmp("sgt", wide, b.const_int(10, I64), "flag")
            b.ret(b.cast("zext", flag, I32))

        module = self.build(body)
        assert self.run(module, 11) == 1
        assert self.run(module, 9) == 0


class TestEvaluateMany:
    def test_returns_keyed_results(self, doall_kernel):
        from repro.core import LPConfig

        results = doall_kernel.evaluate_many(
            ["doall:reduc0-dep0-fn2", LPConfig("helix", 1, 1, 2)]
        )
        assert set(results) == {
            "doall:reduc0-dep0-fn2", "helix:reduc1-dep1-fn2",
        }
        for result in results.values():
            assert result.speedup >= 1.0


class TestFigureHelpers:
    def test_figure4_runs_on_shared_runner(self, runner):
        from repro.reporting import figure4_per_benchmark

        data = figure4_per_benchmark(runner)
        assert len(data) == 40
        assert all(
            set(entry) == {"pdoall", "helix"} for entry in data.values()
        )

    def test_figure5_percentages(self, runner):
        from repro.reporting import figure5_coverage

        rows = figure5_coverage(runner)
        for row in rows.values():
            for value in row.values():
                assert 0.0 <= value <= 100.0

    def test_cli_figures_suite_mode(self, tmp_path):
        from repro.cli import main
        import io

        out = io.StringIO()
        code = main(["figures", "--suite", "eembc"], out=out)
        assert code == 0
        text = out.getvalue()
        assert "helix:reduc1-dep1-fn2" in text
        assert text.count("x") >= 14

    def test_cli_figures_suite_rejects_ledger_options(self, tmp_path,
                                                      monkeypatch, capsys):
        # --suite prints one suite's speedups and records no run, so the
        # one option of the full run must be refused, not silently
        # ignored.
        from repro.cli import main
        import io

        monkeypatch.setenv("REPRO_RUNS_DIR", str(tmp_path / "runs"))
        monkeypatch.chdir(tmp_path)
        out = io.StringIO()
        code = main(["figures", "--suite", "eembc", "--write-experiments-md"],
                    out=out)
        captured = capsys.readouterr()
        assert code != 0
        assert out.getvalue() == "" and captured.out == ""
        assert "--suite" in captured.err
        assert "--write-experiments-md" in captured.err
        assert not (tmp_path / "runs").exists()
        assert not (tmp_path / "EXPERIMENTS_MEASURED.md").exists()
