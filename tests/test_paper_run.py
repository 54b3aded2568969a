"""The full paper run's soundness gate: ``paper_violations`` over
hand-built reports, and ``repro figures`` exiting 1 on a violation while
still printing every section."""

import io

import pytest

from repro.analysis.depend import VERDICT_DOALL, VERDICT_UNKNOWN, LoopDependence
from repro.cli import main
from repro.reporting import experiments
from repro.reporting.advisor import AdvisorReport, LoopAdvice
from repro.reporting.crosscheck import CrosscheckReport, CrosscheckRow
from repro.reporting.experiments import paper_violations
from repro.runtime.telemetry import list_runs

SECTION_TITLES = (
    "Table I", "Static crosscheck", "Transform unlock",
    "Parallelizability advisor",
    "Figure 2", "Figure 3", "Figure 4", "Figure 5",
)


def _row(loop_id, verdict, conflicts=0):
    return CrosscheckRow("prog", loop_id, LoopDependence(loop_id, verdict),
                         conflicts=conflicts, invocations=1, iterations=10)


def _crosscheck(proved=2, unknown=3, unsound=0):
    """``proved`` static-proved, ``unknown`` dynamic-only and ``unsound``
    unsound-static-doall loops."""
    rows = [_row(f"f.proved{i}", VERDICT_DOALL) for i in range(proved)]
    rows += [_row(f"f.unknown{i}", VERDICT_UNKNOWN) for i in range(unknown)]
    rows += [_row(f"f.bad{i}", VERDICT_DOALL, conflicts=7)
             for i in range(unsound)]
    return CrosscheckReport(rows)


def _advice(conflicts=0):
    return AdvisorReport([LoopAdvice(
        "prog", "f.proved0", 1, "@parallel", ["scev: trip 10"],
        conflicts=conflicts, invocations=1, joined=True)])


class TestPaperViolations:
    def test_clean_reports_yield_none(self):
        # 2 of 5 loops resolved: exactly at the 40% floor, which passes.
        assert paper_violations(_crosscheck(), _advice()) == []

    def test_unsound_static_doall(self):
        report = _crosscheck(proved=3, unsound=1)
        assert report.rows[0].category == "unsound-static-doall"
        assert paper_violations(report, _advice()) == [
            "unsound STATIC_DOALL: prog f.bad0 had 7 dynamic conflict(s)"]

    def test_advised_parallel_loop_with_a_conflict(self):
        assert paper_violations(_crosscheck(), _advice(conflicts=3)) == [
            "unsound advice: prog f.proved0 advised @parallel but had 3 "
            "dynamic conflict(s)"]

    def test_resolved_share_below_the_floor(self):
        violations = paper_violations(_crosscheck(proved=1, unknown=2),
                                      _advice())
        assert violations == [
            "only 1/3 loops resolved statically, below the 40% floor"]


class TestFiguresCli:
    @pytest.mark.parametrize("violations, code, status", [
        ([], 0, "complete"),
        (["unsound STATIC_DOALL: prog f.bad0 had 7 dynamic conflict(s)"],
         1, "unsound"),
    ])
    def test_exit_status_follows_the_violations(
            self, tmp_path, monkeypatch, capsys, violations, code, status):
        def fake_paper_run(runner, telemetry):
            telemetry.task_done("suite/prog", {}, cache_hit=True)
            sections = [(title, f"<{title} text>") for title in SECTION_TITLES]
            return sections, violations

        monkeypatch.setattr(experiments, "paper_run", fake_paper_run)
        monkeypatch.chdir(tmp_path)
        monkeypatch.setenv("REPRO_CACHE_DIR", str(tmp_path / "cache"))
        runs = tmp_path / "runs"
        monkeypatch.setenv("REPRO_RUNS_DIR", str(runs))
        out = io.StringIO()
        assert main(["figures", "--write-experiments-md"], out=out) == code

        text = out.getvalue()
        for title in SECTION_TITLES:
            assert f"##### {title} #" in text
            assert f"<{title} text>" in text
        assert "Paper headline numbers" in text
        err = capsys.readouterr().err
        assert err.splitlines() == [f"FAIL: {v}" for v in violations]
        [manifest] = list_runs(runs)
        assert manifest["status"] == status
        assert manifest["tasks_done"] == 1
        # The manifest is the whole run record.
        run_dir = runs / manifest["run_id"]
        assert [path.name for path in run_dir.iterdir()] == ["manifest.json"]
        written = (tmp_path / "EXPERIMENTS_MEASURED.md").read_text()
        assert "## Figure 5\n\n```\n<Figure 5 text>\n```" in written
