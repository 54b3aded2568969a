"""The differential oracle, the shrinker, and the quarantine pipeline.

The interesting property — "the harness catches real miscompares" — is
untestable against a correct pipeline, so these tests *plant* bugs:
a JIT-only off-by-one (backends oracle) and a dependence analysis that
lies about DOALL (crosscheck oracle). Each planted bug must flow all the
way through: oracle fires, shrinker minimizes, corpus stores, and the
CLI ``--replay`` exit code flips from 1 (reproduces) to 0 (fixed) when
the bug is removed.
"""

import io
import json

import pytest

from repro import cli
from repro.analysis.depend import VERDICT_DOALL
from repro.core.static_info import ModuleStaticInfo
from repro.fuzz import corpus as corpus_module
from repro.fuzz.corpus import (QuarantineCase, load_case, load_cases,
                               replay_case, store_case)
from repro.fuzz.genprog import generate_program
from repro.frontend.codegen import compile_source
from repro.fuzz.harness import (DEFAULT_FUEL, ORACLES, fuzz_campaign,
                                run_oracles)
from repro.interp.interpreter import Interpreter
from repro.runtime.telemetry import RunTelemetry, list_runs

LCD_SOURCE = """
int N = 64;
int A[64];
int main() {
  int i;
  A[0] = 1;
  for (i = 1; i < N; i = i + 1) { A[i] = A[i-1] + i; }
  return A[63] & 65535;
}
"""


def _plant_jit_bug(monkeypatch):
    """JIT profiles return result+1: a backend miscompare the closure and
    vector tiers do not share."""
    original = Interpreter.run

    def buggy(self, function_name="main", args=()):
        result = original(self, function_name, args)
        if self.backend == "jit" and isinstance(result, int):
            return result + 1
        return result

    monkeypatch.setattr(Interpreter, "run", buggy)


def _plant_unsound_doall(monkeypatch):
    """The static analysis claims DOALL for every loop — the crosscheck
    oracle must notice on any program with a real loop-carried dep."""
    original = ModuleStaticInfo.dependence

    def lying(self):
        table = original(self)
        for dep in table.values():
            dep.verdict = VERDICT_DOALL
        return table

    monkeypatch.setattr(ModuleStaticInfo, "dependence", lying)


# -- run_oracles ---------------------------------------------------------------


def test_clean_program_passes_all_oracles():
    program = generate_program(0, "mixed")
    report = run_oracles(program.source, program.name)
    assert report.ok
    assert report.failed_oracles == []
    assert set(report.checks) == set(ORACLES)
    assert all(state == "ok" for state in report.checks.values())
    assert report.wall_s > 0.0


def test_planted_jit_bug_trips_backends_oracle(monkeypatch):
    _plant_jit_bug(monkeypatch)
    program = generate_program(0, "mixed")
    report = run_oracles(program.source, program.name)
    assert not report.ok
    assert "backends" in report.failed_oracles
    assert report.checks["backends"] == "fail"
    # The verifier never saw the runtime bug.
    assert report.checks["verifier"] == "ok"
    assert any("jit" in failure.detail for failure in report.failures)
    assert "DISAGREEMENT" in report.describe()


def test_planted_unsound_doall_trips_crosscheck_oracle(monkeypatch):
    _plant_unsound_doall(monkeypatch)
    report = run_oracles(LCD_SOURCE, "planted-doall")
    assert "crosscheck" in report.failed_oracles
    assert any("unsound" in f.detail or "conflict" in f.detail
               for f in report.failures if f.oracle == "crosscheck")


#: The outer loop carries a memory dependence (A[i] reads A[i-1]); the
#: inner loop writes disjoint elements of B.
NEST_SOURCE = """
int N = 12;
int A[12];
int B[48];
int main() {
  int i; int j;
  A[0] = 1;
  for (i = 1; i < N; i = i + 1) {
    for (j = 0; j < 4; j = j + 1) { B[i * 4 + j] = j + i; }
    A[i] = A[i - 1] + 1;
  }
  return A[11] + B[47];
}
"""


def _outer_loops(static_info):
    return {loop.loop_id
            for loop_info in static_info.loop_infos.values()
            for loop in loop_info.all_loops() if loop.subloops}


def test_unsound_outer_loop_trips_crosscheck_oracle(monkeypatch):
    """An outer loop's STATIC_DOALL claim is checked like any other: the
    crosscheck oracle has a row for every loop, subloops or not."""
    original = ModuleStaticInfo.dependence

    def outer_doall(self):
        table = original(self)
        for loop_id in _outer_loops(self):
            table[loop_id].verdict = VERDICT_DOALL
        return table

    monkeypatch.setattr(ModuleStaticInfo, "dependence", outer_doall)
    [outer] = _outer_loops(ModuleStaticInfo(compile_source(NEST_SOURCE)))
    report = run_oracles(NEST_SOURCE, "planted-outer-doall")
    assert report.failed_oracles == ["crosscheck"]
    details = [f.detail for f in report.failures]
    assert f"{outer} (transform=off): STATIC_DOALL but 10 dynamic " \
           f"conflict(s)" in details
    assert all(detail.startswith(f"{outer} ") for detail in details)


def test_broken_source_lands_in_verifier_oracle():
    report = run_oracles("int main() { return undeclared; }", "broken")
    assert report.failed_oracles == ["verifier"]
    # Everything downstream is skipped, not silently "ok".
    assert report.checks["backends"] == "skipped"
    assert report.checks["crosscheck"] == "skipped"


def test_trapping_source_lands_in_execution_oracle():
    report = run_oracles(
        "int main() { int z; z = 0; return 1 / z; }", "trap")
    assert report.failed_oracles == ["execution"]
    assert report.checks["backends"] == "skipped"


# -- campaign + shrink + corpus + replay ---------------------------------------


def test_campaign_quarantines_shrinks_and_replays(monkeypatch, tmp_path):
    corpus = tmp_path / "corpus"

    with pytest.MonkeyPatch.context() as planted:
        _plant_jit_bug(planted)
        summary = fuzz_campaign(seed=0, count=1, profile="mixed",
                                corpus_dir=corpus)
        assert not summary.ok
        assert summary.cases == 1
        [case] = summary.quarantined
        assert case.oracle == "backends"
        assert case.case_id == "mixed-s0-backends"

        # The shrinker made real progress and kept the failure.
        original = generate_program(0, "mixed").source
        assert case.original_source == original
        assert len(case.source) < len(original)

        # The corpus round-trips through JSON.
        path = corpus / "mixed-s0-backends.json"
        assert path.is_file()
        stored = json.loads(path.read_text())
        assert stored["schema"] == 1
        assert stored["oracle"] == "backends"
        assert "|" in stored["fingerprint"]  # off|on pipeline fingerprints
        loaded = load_case("mixed-s0-backends", root=corpus)
        assert loaded.source == case.source

        # While the bug is planted the case still reproduces...
        assert not replay_case(loaded).ok
        assert _cli(["fuzz", "--replay", str(path)]) == 1

    # ...and once "fixed" (patch undone) replay and the CLI both agree.
    loaded = load_case("mixed-s0-backends", root=corpus)
    assert replay_case(loaded).ok
    assert _cli(["fuzz", "--replay", str(path)]) == 0


def _cli(argv):
    return cli.main(argv, out=io.StringIO())


def test_cli_replay_missing_case_exits_2(monkeypatch, tmp_path):
    monkeypatch.setenv("REPRO_FUZZ_CORPUS", str(tmp_path))
    assert _cli(["fuzz", "--replay", "nope-s0-backends"]) == 2


def test_cli_replays_at_the_campaign_budget(monkeypatch, tmp_path):
    """``--replay`` runs the oracles at the budget the campaign
    quarantined the case at, so a case that depends on running out of
    instructions still reproduces."""
    monkeypatch.setenv("REPRO_FUZZ_CORPUS", str(tmp_path))
    case = QuarantineCase(seed=0, profile="affine", oracle="execution",
                          detail="planted", source=LCD_SOURCE)
    store_case(case)
    budgets = []

    def spy(source, name, fuel):
        budgets.append(fuel)
        return run_oracles(source, name=name, fuel=fuel)

    monkeypatch.setattr(corpus_module, "run_oracles", spy)
    assert _cli(["fuzz", "--replay", case.case_id]) == 0
    assert budgets == [DEFAULT_FUEL]


@pytest.mark.parametrize("option", [
    ["--seed", "9"], ["--seed", "0"], ["--count", "50"],
    ["--profile", "calls"], ["--time-budget", "1"], ["--no-shrink"],
], ids=" ".join)
def test_cli_replay_refuses_campaign_options(monkeypatch, tmp_path, capsys,
                                            option):
    """A campaign option cannot apply to a replay, so it is refused, before
    the case is loaded, rather than silently dropped (even at its default
    value)."""
    monkeypatch.setenv("REPRO_FUZZ_CORPUS", str(tmp_path))
    case = QuarantineCase(seed=0, profile="affine", oracle="execution",
                          detail="planted", source=LCD_SOURCE)
    store_case(case)

    def unreachable(*args, **kwargs):
        raise AssertionError("the case was loaded")

    monkeypatch.setattr(corpus_module, "load_case", unreachable)
    out = io.StringIO()
    assert cli.main(["fuzz", "--replay", case.case_id, *option],
                    out=out) == 2
    assert out.getvalue() == ""
    [line] = capsys.readouterr().err.splitlines()
    assert line.startswith("error: ") and option[0] in line


def test_cli_campaign_exit_codes(monkeypatch, tmp_path):
    monkeypatch.setenv("REPRO_RUNS_DIR", str(tmp_path / "runs"))
    corpus = tmp_path / "corpus"
    monkeypatch.setenv("REPRO_FUZZ_CORPUS", str(corpus))
    argv = ["fuzz", "--seed", "0", "--count", "1", "--profile", "affine",
            "--no-shrink"]
    assert _cli(argv) == 0
    with pytest.MonkeyPatch.context() as planted:
        _plant_jit_bug(planted)
        assert _cli(argv) == 1
    assert load_cases(corpus)[0].case_id == "affine-s0-backends"


@pytest.mark.parametrize("option", [
    "--count=0", "--count=-3", "--time-budget=0", "--time-budget=-1",
])
def test_cli_refuses_a_campaign_that_checks_nothing(monkeypatch, tmp_path,
                                                    capsys, option):
    # Such a campaign would report that every oracle agreed, so it must
    # fail at parse time, before a run is recorded.
    monkeypatch.setenv("REPRO_RUNS_DIR", str(tmp_path / "runs"))
    with pytest.raises(SystemExit) as exited:
        _cli(["fuzz", option])
    assert exited.value.code == 2
    assert "must be above 0" in capsys.readouterr().err
    assert not (tmp_path / "runs").exists()


def test_campaign_time_budget_zero_stops_immediately(tmp_path):
    summary = fuzz_campaign(seed=0, count=50, profile="affine",
                            time_budget=0.0, corpus_dir=tmp_path)
    assert summary.budget_exhausted
    assert summary.cases == 0
    assert summary.ok
    assert "budget exhausted" in summary.describe()


def test_no_shrink_quarantines_original(monkeypatch, tmp_path):
    _plant_jit_bug(monkeypatch)
    summary = fuzz_campaign(seed=0, count=1, profile="affine",
                            corpus_dir=tmp_path, shrink=False)
    [case] = summary.quarantined
    assert case.source == case.original_source


# -- run manifest --------------------------------------------------------------


def test_campaign_records_fuzz_cases_in_ledger(monkeypatch, tmp_path):
    runs = tmp_path / "runs"
    telemetry = RunTelemetry.create(root=runs)
    with pytest.MonkeyPatch.context() as planted:
        _plant_jit_bug(planted)
        fuzz_campaign(seed=0, count=2, profile="affine",
                      corpus_dir=tmp_path / "corpus", shrink=False,
                      telemetry=telemetry)
    telemetry.finish(status="quarantined")

    [manifest] = list_runs(runs)
    assert manifest["status"] == "quarantined"
    fuzz = manifest["fuzz"]
    assert fuzz["cases"] == 2
    assert fuzz["quarantined"] == 2
    assert fuzz["by_oracle"].get("backends") == 2
