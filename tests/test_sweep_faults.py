"""A killed sweep is recovered by running it again, and sweeps in two
processes can share one profile store.

Nothing but profiles outlives a sweep: evaluation results stay in memory,
and the run manifest only counts them. A sweep killed part-way therefore
leaves its finished profiles in the content-keyed profile store, and a
fresh runner over that store measures only the missing ones and reports
the same floats as an undisturbed run. Entries are published atomically,
so two sweeps writing the same keys at once leave whole entries only.
"""

import json
import os
import signal
import subprocess
import sys

from repro.bench.suites import SuiteRunner, suite_programs
from repro.runtime.profile_store import ProfileStore
from repro.runtime.telemetry import MANIFEST_NAME, list_runs

CONFIGS = ("doall:reduc1-dep0-fn0", "helix:reduc1-dep1-fn2")

REPO_SRC = os.path.join(os.path.dirname(__file__), os.pardir, "src")

#: A sweep over eembc[:3] that sends itself SIGKILL as soon as its second
#: profile is stored: no handler, ``finally`` or atexit hook runs.
KILLED_SWEEP = """
import os, signal, sys
from repro.bench.suites import SuiteRunner, suite_programs
from repro.runtime.profile_store import ProfileStore
from repro.runtime.telemetry import RunTelemetry

class DiesAfterSecondStore(ProfileStore):
    def store(self, *args, **kwargs):
        stored = super().store(*args, **kwargs)
        if self.stats.stores == 2:
            os.kill(os.getpid(), signal.SIGKILL)
        return stored

store_root, runs_root, *configs = sys.argv[1:]
runner = SuiteRunner(store=DiesAfterSecondStore(store_root))
telemetry = RunTelemetry.create(root=runs_root)
runner.evaluate_many(suite_programs("eembc")[:3], configs, telemetry=telemetry)
telemetry.finish()
"""


#: A sweep over eembc[:3] that prints its results as JSON. It first waits
#: at a barrier (a file per sweep in one directory), so that two of them
#: start profiling together.
SHARED_SWEEP = """
import json, os, sys, time
from repro.bench.suites import SuiteRunner, suite_programs
from repro.runtime.profile_store import ProfileStore

store_root, barrier, *configs = sys.argv[1:]
runner = SuiteRunner(store=ProfileStore(store_root))
open(os.path.join(barrier, str(os.getpid())), "w").close()
deadline = time.monotonic() + 60
while len(os.listdir(barrier)) < 2 and time.monotonic() < deadline:
    time.sleep(0.01)
grid = runner.evaluate_many(suite_programs("eembc")[:3], configs)
print(json.dumps([[name, config, result.to_dict()]
                  for name, row in grid.items()
                  for config, result in row.items()]))
"""


def _programs():
    return suite_programs("eembc")[:3]


def _flat(grid):
    return {
        (full_name, config_name): result.to_dict()
        for full_name, row in grid.items()
        for config_name, result in row.items()
    }


class TestKilledRun:
    def test_sigkilled_sweep_is_recovered_by_running_it_again(self,
                                                              tmp_path):
        undisturbed = SuiteRunner(store=ProfileStore(tmp_path / "baseline"))
        baseline = _flat(undisturbed.evaluate_many(_programs(), CONFIGS))

        store_root, runs_root = tmp_path / "store", tmp_path / "runs"
        env = dict(os.environ, PYTHONPATH=REPO_SRC,
                   REPRO_CACHE_DIR=str(tmp_path / "cache"))
        killed = subprocess.run(
            [sys.executable, "-c", KILLED_SWEEP, str(store_root),
             str(runs_root), *CONFIGS],
            capture_output=True, text=True, env=env, timeout=300)
        assert killed.returncode == -signal.SIGKILL, killed.stderr

        # The manifest was last published after the first task.
        [manifest] = list_runs(runs_root)
        assert manifest["status"] == "running"
        assert manifest["tasks_done"] == 1
        run_dir = runs_root / manifest["run_id"]
        assert [path.name for path in run_dir.iterdir()] == [MANIFEST_NAME]
        assert len(ProfileStore(store_root).entries()) == 2

        fresh = SuiteRunner(store=ProfileStore(store_root))
        grid = fresh.evaluate_many(_programs(), CONFIGS)
        assert fresh.profiles_measured == 1
        assert _flat(grid) == baseline


class TestConcurrentWriters:
    def test_two_sweeps_share_one_store(self, tmp_path):
        undisturbed = SuiteRunner(store=ProfileStore(tmp_path / "baseline"))
        baseline = _flat(undisturbed.evaluate_many(_programs(), CONFIGS))

        store_root, barrier = tmp_path / "store", tmp_path / "barrier"
        barrier.mkdir()
        env = dict(os.environ, PYTHONPATH=REPO_SRC,
                   REPRO_CACHE_DIR=str(tmp_path / "cache"))
        sweeps = [
            subprocess.Popen(
                [sys.executable, "-c", SHARED_SWEEP, str(store_root),
                 str(barrier), *CONFIGS],
                stdout=subprocess.PIPE, stderr=subprocess.PIPE, text=True,
                env=env)
            for _ in range(2)
        ]
        try:
            for sweep in sweeps:
                out, err = sweep.communicate(timeout=300)
                assert sweep.returncode == 0, err
                assert {(name, config): result
                        for name, config, result in json.loads(out)} \
                    == baseline
        finally:
            for sweep in sweeps:
                sweep.kill()
                sweep.wait()

        store = ProfileStore(store_root)
        assert len(store.entries()) == 3
        assert sorted(path.name for path in store_root.iterdir()) == sorted(
            path.name for path in store.entries())
        fresh = SuiteRunner(store=store)
        grid = fresh.evaluate_many(_programs(), CONFIGS)
        assert fresh.profiles_measured == 0
        assert store.stats.corrupt == 0
        assert _flat(grid) == baseline
