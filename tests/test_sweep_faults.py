"""Interrupted sweeps resume from the run ledger.

The sweep runs in one process and checkpoints each benchmark to the run
ledger as soon as all of its configurations are evaluated, so the ledger
is the only recovery path: a sweep that dies part-way must leave exactly
the completed benchmarks behind, and a fresh runner resuming from them
must report the same floats as an undisturbed run.
"""

import json

import pytest

from repro.bench.suites import SuiteRunner, suite_programs
from repro.runtime.profile_store import ProfileStore
from repro.runtime.telemetry import RunTelemetry

CONFIGS = ("doall:reduc1-dep0-fn0", "helix:reduc1-dep1-fn2")


def _programs():
    return suite_programs("eembc")[:3]


def _flat(grid):
    return {
        (full_name, config_name): result.to_dict()
        for full_name, row in grid.items()
        for config_name, result in row.items()
    }


@pytest.fixture()
def baseline(tmp_path):
    runner = SuiteRunner(store=ProfileStore(tmp_path / "baseline"))
    return _flat(runner.evaluate_many(_programs(), CONFIGS))


class TestLedgerResume:
    def test_resumed_sweep_restores_without_reeval(self, tmp_path, baseline):
        runs_root = tmp_path / "runs"
        first = SuiteRunner(store=ProfileStore(tmp_path / "shared"))
        telemetry = RunTelemetry.create(root=runs_root)
        first.evaluate_many(_programs(), CONFIGS, telemetry=telemetry)
        telemetry.finish(status="interrupted")

        # A brand-new process (fresh runner, empty in-memory caches, no
        # profile store) resumes purely from the ledger.
        resumed = RunTelemetry.resume(telemetry.run_id, root=runs_root)
        second = SuiteRunner(store=ProfileStore(tmp_path / "cold"))
        grid = second.evaluate_many(_programs(), CONFIGS, telemetry=resumed)
        resumed.finish()
        assert _flat(grid) == baseline
        assert resumed.resumed == len(_programs())
        assert second.profiles_measured == 0

    def test_partial_ledger_resumes_only_covered_tasks(self, tmp_path,
                                                       baseline):
        runs_root = tmp_path / "runs"
        programs = _programs()
        first = SuiteRunner(store=ProfileStore(tmp_path / "shared"))
        telemetry = RunTelemetry.create(root=runs_root)
        # Simulate an interrupt after the first task only.
        first.evaluate_many(programs[:1], CONFIGS, telemetry=telemetry)
        telemetry.finish(status="interrupted")

        resumed = RunTelemetry.resume(telemetry.run_id, root=runs_root)
        second = SuiteRunner(store=ProfileStore(tmp_path / "cold"))
        grid = second.evaluate_many(programs, CONFIGS, telemetry=resumed)
        resumed.finish()
        assert _flat(grid) == baseline
        assert resumed.resumed == 1
        # Only the uncovered benchmarks were re-profiled.
        assert second.profiles_measured == len(programs) - 1

    def test_sweep_killed_mid_run_resumes_from_ledger(self, tmp_path,
                                                      monkeypatch, baseline):
        runs_root = tmp_path / "runs"
        programs = _programs()
        doomed = programs[1].full_name
        runner = SuiteRunner(store=ProfileStore(tmp_path / "shared"))
        evaluate = runner.evaluate

        def dies_inside_second_program(program, config):
            # Fail on the second configuration, after the first one of the
            # same benchmark has been evaluated, so a half-finished task
            # exists in memory when the sweep dies.
            if program.full_name == doomed and config.name == CONFIGS[1]:
                raise RuntimeError("simulated interrupt")
            return evaluate(program, config)

        monkeypatch.setattr(runner, "evaluate", dies_inside_second_program)
        telemetry = RunTelemetry.create(root=runs_root)
        with pytest.raises(RuntimeError, match="simulated interrupt"):
            runner.evaluate_many(programs, CONFIGS, telemetry=telemetry)
        telemetry.finish(status="interrupted")

        events = [
            json.loads(line)
            for line in telemetry.ledger_path.read_text().splitlines()
        ]
        tasks = [event for event in events if event["type"] == "task"]
        assert [task["task"] for task in tasks] == [programs[0].full_name]
        assert sorted(tasks[0]["results"]) == sorted(CONFIGS)

        resumed = RunTelemetry.resume(telemetry.run_id, root=runs_root)
        fresh = SuiteRunner(store=ProfileStore(tmp_path / "cold"))
        grid = fresh.evaluate_many(programs, CONFIGS, telemetry=resumed)
        resumed.finish()
        assert _flat(grid) == baseline
        assert resumed.resumed == 1
        assert fresh.profiles_measured == len(programs) - 1
