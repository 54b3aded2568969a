"""Run telemetry: the run manifest is the one record a run leaves.

The contract under test: a run directory holds only ``manifest.json``,
published when the run is created, after every task and when it
finishes, so a run that dies part-way leaves a ``running`` manifest with
the tasks it finished. Evaluation results are never written to disk.
"""

import json

import pytest

from repro.bench.suites import SuiteRunner, suite_programs
from repro.runtime.telemetry import (
    MANIFEST_NAME,
    RUN_MANIFEST_SCHEMA,
    RunTelemetry,
    format_run_summary,
    format_runs_table,
    list_runs,
    load_manifest,
    purge_runs,
    runs_root,
)

CONFIGS = ("doall:reduc1-dep0-fn0", "pdoall:reduc1-dep2-fn2")


@pytest.fixture(scope="module")
def grid_results():
    """Real EvaluationResults for two cheap benchmarks."""
    runner = SuiteRunner()
    programs = suite_programs("eembc")[:2]
    grid = runner.evaluate_many(programs, CONFIGS)
    return grid


def test_create_writes_only_the_manifest(tmp_path):
    telemetry = RunTelemetry.create(root=tmp_path)
    assert [path.name for path in telemetry.run_dir.iterdir()] == [
        MANIFEST_NAME]
    manifest = json.loads(telemetry.manifest_path.read_text())
    assert manifest["schema"] == RUN_MANIFEST_SCHEMA
    assert manifest["status"] == "running"
    assert manifest["tasks_done"] == 0


def test_manifest_aggregates(tmp_path, grid_results):
    telemetry = RunTelemetry.create(root=tmp_path)
    tasks = list(grid_results)
    telemetry.task_done(tasks[0], grid_results[tasks[0]],
                        wall_s=1.0, cache_hit=True, instructions=100)
    # Published after every task: a run killed here reads ``running``
    # with the one task it finished.
    partial = load_manifest(telemetry.run_id, root=tmp_path)
    assert (partial["status"], partial["tasks_done"]) == ("running", 1)
    telemetry.task_done(tasks[1], grid_results[tasks[1]],
                        wall_s=2.0, cache_hit=False, instructions=50)
    telemetry.finish()

    manifest = load_manifest(telemetry.run_id, root=tmp_path)
    assert manifest["status"] == "complete"
    assert manifest["tasks_done"] == 2
    assert manifest["cache_hits"] == 1
    assert manifest["cache_misses"] == 1
    assert manifest["instructions"] == 150
    assert manifest["task_wall_s"] == pytest.approx(3.0)
    loops_total = sum(
        len(result.loops)
        for row in grid_results.values()
        for result in row.values()
    )
    assert (manifest["outcomes"]["parallel_loops"]
            + manifest["outcomes"]["serial_loops"]) == loops_total
    # The manifest holds tallies, not results.
    text = telemetry.manifest_path.read_text()
    assert "total_serial" not in text and CONFIGS[0] not in text
    assert [path.name for path in telemetry.run_dir.iterdir()] == [
        MANIFEST_NAME]


def test_runs_registry_and_formatting(tmp_path, grid_results):
    a = RunTelemetry.create(root=tmp_path)
    task, results = next(iter(grid_results.items()))
    a.task_done(task, results)
    a.finish()
    b = RunTelemetry.create(root=tmp_path)
    b.finish(status="interrupted")

    manifests = list_runs(root=tmp_path)
    assert {m["run_id"] for m in manifests} == {a.run_id, b.run_id}
    table = format_runs_table(manifests)
    assert a.run_id in table and b.run_id in table
    assert "interrupted" in table
    summary = format_run_summary(load_manifest(a.run_id, root=tmp_path))
    assert "tasks:        1 done" in summary

    removed = purge_runs(root=tmp_path)
    assert removed == 2
    assert list_runs(root=tmp_path) == []


def test_summary_prints_only_what_the_run_recorded(tmp_path, grid_results):
    """A fuzz run counts oracle runs, not sweep tasks, so its summary has
    no sweep tallies; a sweep's summary keeps them and has no fuzz line."""
    fuzz = RunTelemetry.create(root=tmp_path)
    fuzz.fuzz_case(verdict="ok", wall_s=0.5)
    fuzz.finish()
    summary = format_run_summary(load_manifest(fuzz.run_id, root=tmp_path))
    assert "  fuzz:         1 oracle runs, 0 quarantined" in summary
    for tally in ("tasks:", "profile cache:", "instructions:", "task wall:",
                  "outcomes:"):
        assert tally not in summary

    sweep = RunTelemetry.create(root=tmp_path)
    task, results = next(iter(grid_results.items()))
    sweep.task_done(task, results, cache_hit=True)
    sweep.finish()
    summary = format_run_summary(load_manifest(sweep.run_id, root=tmp_path))
    assert "  tasks:        1 done" in summary
    assert "  profile cache: 1 hits, 0 misses" in summary
    assert "fuzz:" not in summary


def test_runs_recorded_by_older_versions_still_list_and_purge(tmp_path):
    # Runs recorded before the manifest became the only record carry a
    # schema-1 manifest with retired fields, next to an event log.
    run_dir = tmp_path / "20200101-000000-abcdef"
    run_dir.mkdir()
    (run_dir / MANIFEST_NAME).write_text(json.dumps({
        "schema": 1, "run_id": run_dir.name, "status": "complete",
        "tasks_done": 48, "tasks_resumed": 48, "corrupt_lines": 0,
    }))
    (run_dir / "events.jsonl").write_text("{}\n")
    [manifest] = list_runs(root=tmp_path)
    assert "48 done" in format_run_summary(manifest)
    assert run_dir.name in format_runs_table([manifest])
    assert purge_runs(root=tmp_path) == 1
    assert not run_dir.exists()


def test_runs_clean_removes_only_runs(monkeypatch, tmp_path):
    """``repro runs clean`` removes the directories that hold a manifest
    and leaves every other file and directory under the runs root."""
    import io

    from repro.cli import main

    monkeypatch.setenv("REPRO_RUNS_DIR", str(tmp_path))
    run = RunTelemetry.create()
    run.finish()
    notes = tmp_path / "my-notes"
    notes.mkdir()
    (notes / "keep.txt").write_text("mine")
    (tmp_path / "README").write_text("mine")

    out = io.StringIO()
    assert main(["runs", "clean"], out=out) == 0
    assert "removed 1 recorded run(s)" in out.getvalue()
    assert not run.run_dir.exists()
    assert (notes / "keep.txt").read_text() == "mine"
    assert (tmp_path / "README").read_text() == "mine"


def test_runs_root_env_override(monkeypatch, tmp_path):
    monkeypatch.setenv("REPRO_RUNS_DIR", str(tmp_path / "runs-here"))
    assert runs_root() == tmp_path / "runs-here"
