"""The full paper run's soundness gate: ``paper_violations`` over
hand-built reports, why it needs no advisor check, and ``repro figures``
exiting 1 on a violation while still printing every section."""

import io

import pytest

from repro.analysis.depend import VERDICT_DOALL, VERDICT_UNKNOWN, LoopDependence
from repro.cli import main
from repro.reporting import experiments
from repro.reporting.advisor import advise_suites
from repro.reporting.crosscheck import (
    CrosscheckReport,
    CrosscheckRow,
    crosscheck_suites,
)
from repro.reporting.experiments import paper_violations
from repro.runtime.telemetry import RunTelemetry, list_runs

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


class TestPaperViolations:
    def test_clean_reports_yield_none(self):
        # 2 of 5 loops resolved: exactly at the 40% floor, which passes.
        assert paper_violations(_crosscheck()) == []

    def test_unsound_static_doall(self):
        report = _crosscheck(proved=3, unsound=1)
        assert report.rows[0].category == "unsound-static-doall"
        assert paper_violations(report) == [
            "unsound STATIC_DOALL: prog f.bad0 had 7 dynamic conflict(s)"]

    def test_advised_parallel_loops_are_static_doall_rows(self, runner):
        """Why the gate has no advisor check: every advised
        ``@parallel``/``@reduce`` loop of the bundled suite is a
        ``STATIC_DOALL`` crosscheck row with the same conflicts and
        invocations, so an advised loop that conflicted is already an
        unsound ``STATIC_DOALL``."""
        rows = {(row.program, row.loop_id): row
                for row in crosscheck_suites(runner).rows}
        advised = [advice for advice in advise_suites(
            runner, crosscheck=True).advices if advice.advises_parallel]
        assert advised
        for advice in advised:
            row = rows[(advice.program, advice.loop_id)]
            assert row.verdict == VERDICT_DOALL, advice.loop_id
            assert (row.conflicts, row.invocations) == (
                advice.conflicts, advice.invocations), advice.loop_id

    def test_resolved_share_below_the_floor(self):
        violations = paper_violations(_crosscheck(proved=1, unknown=2))
        assert violations == [
            "only 1/3 loops resolved statically, below the 40% floor"]


def test_manifest_vec_decisions_match_fresh_compiles(runner, tmp_path):
    """The paper run plans the vectorizer on the modules its runner
    already compiled (and, on a cold run, executed); the summary it
    records equals the one from a fresh compile of each program."""
    from repro.bench import all_programs
    from repro.frontend.codegen import compile_source
    from repro.interp.veccodegen import (summarize_vec_decisions,
                                         vector_decisions)

    telemetry = RunTelemetry.create(root=tmp_path)
    experiments.paper_run(runner, telemetry)
    telemetry.finish()
    [manifest] = list_runs(tmp_path)
    fresh = summarize_vec_decisions([
        decision for program in all_programs()
        for decision in vector_decisions(compile_source(program.source))
    ])
    assert fresh["loops"] == 172
    assert manifest["vec_decisions"] == fresh


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
