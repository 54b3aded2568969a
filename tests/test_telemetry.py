"""Run telemetry: ledger/manifest round-trips and resume semantics.

The contract under test: every completed task checkpointed through
:class:`RunTelemetry` can be restored from the on-disk ledger by a later
process with *bit-identical* results (JSON floats round-trip exactly via
``repr``), the manifest aggregates survive replay, and defects in the
ledger (corrupt lines, schema drift, unknown runs) fail loudly or degrade
to re-evaluation — never to wrong numbers.
"""

import json

import pytest

from repro.bench.suites import SuiteRunner, suite_programs
from repro.runtime.telemetry import (
    RUN_LEDGER_SCHEMA,
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


def test_create_writes_ledger_and_manifest(tmp_path):
    telemetry = RunTelemetry.create(root=tmp_path)
    assert telemetry.ledger_path.exists()
    assert telemetry.manifest_path.exists()
    first = json.loads(telemetry.ledger_path.read_text().splitlines()[0])
    assert first["type"] == "start"
    assert first["schema"] == RUN_LEDGER_SCHEMA


def test_task_done_round_trips_bit_identical(tmp_path, grid_results):
    telemetry = RunTelemetry.create(root=tmp_path)
    for task, results in grid_results.items():
        telemetry.task_done(task, results, wall_s=0.5, cache_hit=False,
                            instructions=123)
    telemetry.finish()

    resumed = RunTelemetry.resume(telemetry.run_id, root=tmp_path)
    assert resumed.ledger_tasks == len(grid_results)
    for task, results in grid_results.items():
        restored = resumed.completed_results(task, list(CONFIGS))
        assert restored is not None
        for name, result in results.items():
            other = restored[name]
            assert other.speedup == result.speedup
            assert other.coverage == result.coverage
            assert other.total_serial == result.total_serial
            assert other.total_parallel == result.total_parallel
            assert other.config.name == result.config.name
            assert set(other.loops) == set(result.loops)
            for loop_id, summary in result.loops.items():
                assert other.loops[loop_id].to_dict() == summary.to_dict()


def test_completed_results_requires_full_coverage(tmp_path, grid_results):
    telemetry = RunTelemetry.create(root=tmp_path)
    task, results = next(iter(grid_results.items()))
    only_first = {CONFIGS[0]: results[CONFIGS[0]]}
    telemetry.task_done(task, only_first)
    assert telemetry.completed_results(task, [CONFIGS[0]]) is not None
    assert telemetry.completed_results(task, list(CONFIGS)) is None
    assert telemetry.completed_results("unknown/task", [CONFIGS[0]]) is None


def test_resume_unknown_run_raises(tmp_path):
    with pytest.raises(FileNotFoundError):
        RunTelemetry.resume("20990101-000000-abcdef", root=tmp_path)


def test_resume_rejects_foreign_schema(tmp_path):
    run_dir = tmp_path / "old-run"
    run_dir.mkdir()
    (run_dir / "ledger.jsonl").write_text(
        json.dumps({"type": "start", "schema": RUN_LEDGER_SCHEMA + 99}) + "\n"
    )
    with pytest.raises(ValueError, match="schema"):
        RunTelemetry.resume("old-run", root=tmp_path)


def test_corrupt_ledger_lines_degrade_gracefully(tmp_path, grid_results):
    telemetry = RunTelemetry.create(root=tmp_path)
    task, results = next(iter(grid_results.items()))
    telemetry.task_done(task, results)
    with open(telemetry.ledger_path, "a") as handle:
        handle.write("{not json\n")
    resumed = RunTelemetry.resume(telemetry.run_id, root=tmp_path)
    assert resumed.corrupt_lines == 1
    assert resumed.completed_results(task, list(CONFIGS)) is not None


def test_ledger_with_retired_event_type_resumes(tmp_path, grid_results):
    # Ledgers written while the parallel execution tier existed carry
    # ``par_stats`` events: replay skips them as unknown, not corrupt.
    telemetry = RunTelemetry.create(root=tmp_path)
    task, results = next(iter(grid_results.items()))
    telemetry.task_done(task, results)
    with open(telemetry.ledger_path, "a") as handle:
        handle.write(json.dumps({
            "type": "par_stats",
            "stats": {"soundness": {"runs_checked": 24},
                      "soundness_mismatches": 0},
        }) + "\n")
    resumed = RunTelemetry.resume(telemetry.run_id, root=tmp_path)
    assert resumed.corrupt_lines == 0
    assert resumed.completed_results(task, list(CONFIGS)) is not None
    assert "par_stats" not in resumed.summary()


def test_ledger_from_the_process_pool_sweep_resumes(tmp_path, grid_results):
    # Ledgers written while the sweep could run on a process pool carry a
    # ``jobs`` count in ``sweep`` events, ``retry`` and ``quarantine``
    # events, and ``attempt``/``path`` fields in ``task`` events. Replay
    # skips what it no longer knows and restores every task.
    (first, first_results), (second, second_results) = grid_results.items()
    run_dir = tmp_path / "pool-run"
    run_dir.mkdir()
    events = [
        {"type": "start", "schema": RUN_LEDGER_SCHEMA},
        {"type": "sweep", "programs": 2, "configs": 2, "jobs": 2},
        {"type": "retry", "task": first, "attempt": 1,
         "reason": "worker-crash"},
        {"type": "task", "task": first, "configs": sorted(CONFIGS),
         "attempt": 2, "wall_s": 0.5, "cache_hit": False,
         "instructions": 10, "path": "pool",
         "tally": {"parallel_loops": 0, "serial_loops": 0},
         "results": {name: r.to_dict() for name, r in first_results.items()}},
        {"type": "quarantine", "task": second, "reason": "timeout"},
        {"type": "task", "task": second, "configs": sorted(CONFIGS),
         "attempt": 3, "wall_s": 0.25, "cache_hit": True,
         "instructions": 20, "path": "serial",
         "tally": {"parallel_loops": 0, "serial_loops": 0},
         "results": {name: r.to_dict() for name, r in second_results.items()}},
        {"type": "finish", "status": "interrupted"},
    ]
    (run_dir / "ledger.jsonl").write_text(
        "".join(json.dumps(event) + "\n" for event in events)
    )

    resumed = RunTelemetry.resume("pool-run", root=tmp_path)
    assert resumed.corrupt_lines == 0
    summary = resumed.summary()
    assert summary["tasks_done"] == 2
    assert "retries" not in summary and "tasks_quarantined" not in summary

    runner = SuiteRunner(store=False)
    grid = runner.evaluate_many(
        suite_programs("eembc")[:2], CONFIGS, telemetry=resumed
    )
    assert resumed.resumed == 2
    assert runner.profiles_measured == 0
    for task, results in grid_results.items():
        for name, result in results.items():
            assert grid[task][name].to_dict() == result.to_dict()


def test_manifest_aggregates(tmp_path, grid_results):
    telemetry = RunTelemetry.create(root=tmp_path)
    tasks = list(grid_results)
    telemetry.task_done(tasks[0], grid_results[tasks[0]],
                        wall_s=1.0, cache_hit=True, instructions=100)
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

    # Replay reproduces the same aggregates.
    resumed = RunTelemetry.resume(telemetry.run_id, root=tmp_path)
    replayed = resumed.summary()
    for key in ("tasks_done", "cache_hits", "cache_misses",
                "instructions", "outcomes"):
        assert replayed[key] == manifest[key]


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
    assert "tasks" in summary

    removed = purge_runs(root=tmp_path)
    assert removed == 2
    assert list_runs(root=tmp_path) == []


def test_runs_root_env_override(monkeypatch, tmp_path):
    monkeypatch.setenv("REPRO_RUNS_DIR", str(tmp_path / "runs-here"))
    assert runs_root() == tmp_path / "runs-here"
