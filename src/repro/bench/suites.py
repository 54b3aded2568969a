"""Suite registry, cached benchmark runner, and the parallel sweep engine.

Five suites mirror the paper's benchmark groups:

* non-numeric: ``specint2000``, ``specint2006``
* numeric: ``eembc``, ``specfp2000``, ``specfp2006``

Profiling a benchmark is the expensive step (one instrumented interpreter
run). Three layers of caching keep it off the iteration loop:

1. the :class:`~repro.core.framework.Loopapalooza` instance per benchmark is
   memoized per runner, so profiles are shared within a process;
2. every profiling run is persisted in the on-disk
   :class:`~repro.runtime.profile_store.ProfileStore` (keyed by source +
   fuel + schema versions), so warm starts — a second ``pytest`` run, a
   re-run of ``examples/full_paper_run.py`` — skip re-profiling entirely;
3. evaluation results are memoized per ``(benchmark, configuration)``, so
   the figure harnesses never evaluate the same cell twice (Fig. 4 and
   Fig. 5 reuse the Fig. 2/3 sweep).

:meth:`SuiteRunner.evaluate_many` adds the multiprocess sweep: the
(benchmark x configuration) grid is chunked *by benchmark* so each worker
materializes one profile (from the shared disk store when warm) and
evaluates every configuration against it, amortizing deserialization.
Results are merged in input order — process-pool completion order never
leaks into the aggregation, so the parallel sweep is bit-identical to the
serial one (enforced by ``tests/test_sweep_determinism.py``).

Fault tolerance: the sweep survives worker crashes, hangs, and poisoned
tasks instead of aborting. Failed tasks are retried with exponential
backoff up to ``retries`` times; a task that keeps failing is
*quarantined* — degraded to the in-process serial path — so one bad
benchmark cannot kill a long run. Repeated pool collapses
(``_CRASH_LOOP_LIMIT`` consecutive broken pools) trip crash-loop
detection and degrade the whole remaining sweep to serial. When a
:class:`~repro.runtime.telemetry.RunTelemetry` is attached, every
completed task is checkpointed (with its serialized results) to the run's
JSONL ledger, so an interrupted sweep resumes via
``RunTelemetry.resume(run_id)`` and skips completed cells.
"""

from __future__ import annotations

import os
import signal
import time
from concurrent.futures import BrokenExecutor, ProcessPoolExecutor
from concurrent.futures import TimeoutError as FuturesTimeoutError

from ..core.config import LPConfig
from ..core.framework import Loopapalooza
from ..errors import FrameworkError
from ..runtime.profile_store import ProfileStore, default_store
from .programs import eembc, specfp2000, specfp2006, specint2000, specint2006

#: Consecutive broken process pools before the sweep stops rebuilding pools
#: and degrades every remaining task to the serial path.
_CRASH_LOOP_LIMIT = 3

#: Exponential-backoff schedule between retry rounds (seconds).
_BACKOFF_BASE_S = 0.25
_BACKOFF_CAP_S = 5.0

#: Test hook for the fault-injection smoke (``make sweep-fault-smoke``).
#: When set to a path, exactly one worker task atomically creates the
#: sentinel file and SIGKILLs itself; when set to ``always``, every worker
#: task dies — exercising retry and quarantine respectively.
FAULT_SENTINEL_ENV = "REPRO_SWEEP_FAULT_SENTINEL"

NON_NUMERIC_SUITES = ("specint2000", "specint2006")
NUMERIC_SUITES = ("eembc", "specfp2000", "specfp2006")
ALL_SUITES = NON_NUMERIC_SUITES + NUMERIC_SUITES

_SUITE_MODULES = {
    "eembc": eembc,
    "specfp2000": specfp2000,
    "specfp2006": specfp2006,
    "specint2000": specint2000,
    "specint2006": specint2006,
}


def suite_programs(suite):
    """The :class:`BenchmarkProgram` list of one suite."""
    try:
        module = _SUITE_MODULES[suite]
    except KeyError:
        raise FrameworkError(
            f"unknown suite {suite!r} (choose from {sorted(_SUITE_MODULES)})"
        ) from None
    return module.programs()


def all_programs():
    """Every benchmark across every suite."""
    result = []
    for suite in ALL_SUITES:
        result.extend(suite_programs(suite))
    return result


def find_program(full_name):
    """Look up ``suite/name``."""
    suite, _, name = full_name.partition("/")
    for program in suite_programs(suite):
        if program.name == name:
            return program
    raise FrameworkError(f"unknown benchmark {full_name!r}")


def _as_config(config):
    return LPConfig.parse(config) if isinstance(config, str) else config


class SuiteRunner:
    """Compiles, profiles, and evaluates benchmarks with caching.

    ``cache_dir`` selects a profile-store location; by default the shared
    store under ``~/.cache/repro/profiles`` is used (``store=False``
    disables persistence, ``store=<ProfileStore>`` injects one).
    """

    def __init__(self, fuel=50_000_000, cache_dir=None, store=None):
        self.fuel = fuel
        if store is False:
            self.store = None
        elif store is not None:
            self.store = store
        elif cache_dir is not None:
            self.store = ProfileStore(cache_dir)
        else:
            self.store = default_store()
        self._instances = {}
        self._results = {}  # (full_name, config.name) -> EvaluationResult

    def instance(self, program):
        """The (cached) Loopapalooza instance for one benchmark."""
        key = program.full_name
        lp = self._instances.get(key)
        if lp is None:
            lp = Loopapalooza(
                program.source, name=key, fuel=self.fuel, store=self.store
            )
            lp.profile()
            self._instances[key] = lp
        return lp

    @property
    def profiles_measured(self):
        """How many instances actually re-profiled (cache misses)."""
        return sum(
            1 for lp in self._instances.values() if not lp.profiled_from_cache
        )

    def evaluate(self, program, config):
        config = _as_config(config)
        key = (program.full_name, config.name)
        result = self._results.get(key)
        if result is None:
            result = self.instance(program).evaluate(config)
            self._results[key] = result
        return result

    # -- the parallel sweep engine ---------------------------------------------

    def evaluate_many(self, programs, configs, jobs=None, *, telemetry=None,
                      task_timeout=None, retries=2):
        """Evaluate the full (program x config) grid; returns
        ``{program.full_name: {config.name: EvaluationResult}}`` in input
        order.

        ``jobs > 1`` fans the grid out over a process pool, chunked by
        benchmark: one task per program, each evaluating every
        configuration against a single materialized profile. Workers share
        the runner's on-disk profile store, so a cold parallel sweep also
        populates the cache for the parent process (e.g. the Table-I census
        that follows never re-profiles). ``jobs=1`` is the documented
        serial fast path: it shares this runner's in-process caches and
        spawns no pool (identical to ``jobs=None``); ``jobs < 1`` is an
        error.

        Fault handling (pool path only): a task that raises, times out
        (``task_timeout`` seconds per result wait), or dies with its worker
        is retried up to ``retries`` times with exponential backoff;
        beyond that it is quarantined and evaluated on the serial path
        instead of aborting the sweep. ``telemetry``
        (a :class:`~repro.runtime.telemetry.RunTelemetry`) checkpoints
        every completed task to the run ledger and restores
        previously-completed cells on a resumed run.
        """
        programs = list(programs)
        configs = [_as_config(c) for c in configs]
        if jobs is not None and jobs < 1:
            raise FrameworkError(
                f"jobs must be a positive worker count, got {jobs!r}"
            )
        config_names = [config.name for config in configs]
        if telemetry is not None:
            telemetry.sweep_started(len(programs), len(configs), jobs)
            self._restore_from_ledger(programs, config_names, telemetry)
        quarantined = {}
        if jobs is not None and jobs > 1 and programs:
            quarantined = self._sweep_parallel(
                programs, configs, jobs, telemetry, task_timeout, retries
            )
        grid = {}
        for program in programs:
            full_name = program.full_name
            missing = [
                config for config in configs
                if (full_name, config.name) not in self._results
            ]
            if missing:
                path = (
                    "serial-fallback" if full_name in quarantined else "serial"
                )
                start = time.perf_counter()
                for config in missing:
                    self.evaluate(program, config)
                if telemetry is not None:
                    lp = self._instances[full_name]
                    telemetry.task_done(
                        full_name,
                        {
                            config.name: self._results[(full_name, config.name)]
                            for config in missing
                        },
                        wall_s=time.perf_counter() - start,
                        cache_hit=lp.profiled_from_cache,
                        instructions=lp.profile().total_cost,
                        path=path,
                    )
            grid[full_name] = {
                config.name: self._results[(full_name, config.name)]
                for config in configs
            }
        return grid

    def _restore_from_ledger(self, programs, config_names, telemetry):
        """Resume support: adopt every completed task the ledger covers."""
        for program in programs:
            full_name = program.full_name
            needed = [
                name for name in config_names
                if (full_name, name) not in self._results
            ]
            if not needed:
                continue
            restored = telemetry.completed_results(full_name, needed)
            if restored is None:
                continue
            for config_name, result in restored.items():
                self._results[(full_name, config_name)] = result
            telemetry.task_resumed(full_name)

    def _sweep_parallel(self, programs, configs, jobs, telemetry,
                        task_timeout, retries):
        """Round-based fault-tolerant fan-out; returns the quarantine map
        (``{full_name: reason}``) of tasks degraded to the serial path."""
        config_names = [config.name for config in configs]
        cache_root = str(self.store.root) if self.store is not None else None
        pending = [
            program.full_name
            for program in programs
            if any(
                (program.full_name, name) not in self._results
                for name in config_names
            )
        ]
        quarantined = {}
        if not pending:
            return quarantined
        attempts = dict.fromkeys(pending, 0)
        pool_breaks = 0
        remaining = list(pending)
        round_no = 0
        while remaining:
            if round_no > 0:
                time.sleep(min(
                    _BACKOFF_BASE_S * (2 ** (round_no - 1)), _BACKOFF_CAP_S
                ))
            failed = []
            pool_broken = False
            abandoned = False
            pool = ProcessPoolExecutor(max_workers=jobs)
            try:
                futures = []
                for full_name in remaining:
                    try:
                        futures.append((full_name, pool.submit(
                            _sweep_worker, full_name, config_names,
                            self.fuel, cache_root,
                        )))
                    except BrokenExecutor:
                        # An abrupt worker death can break the pool while
                        # submissions are still in flight, in which case
                        # submit itself raises; everything not yet
                        # submitted fails over to the retry rounds.
                        pool_broken = True
                        for missed in remaining[len(futures):]:
                            attempts[missed] += 1
                            failed.append((missed, "worker-crash"))
                        break
                # Collect in submission (= input) order: pool completion
                # order must never influence the result structure.
                for full_name, future in futures:
                    attempts[full_name] += 1
                    try:
                        name, results, meta = future.result(
                            timeout=task_timeout
                        )
                    except FuturesTimeoutError:
                        abandoned = True
                        failed.append((full_name, "timeout"))
                    except BrokenExecutor:
                        pool_broken = True
                        failed.append((full_name, "worker-crash"))
                    except Exception as exc:
                        failed.append(
                            (full_name, f"error:{type(exc).__name__}")
                        )
                    else:
                        for config_name, result in results.items():
                            self._results[(name, config_name)] = result
                        if telemetry is not None:
                            telemetry.task_done(
                                name, results,
                                attempt=attempts[name],
                                wall_s=meta["wall_s"],
                                cache_hit=meta["cache_hit"],
                                instructions=meta["instructions"],
                                path="pool",
                            )
            finally:
                # A hung task cannot be killed through the executor API:
                # abandon the pool without waiting (the stray worker dies
                # with its task) and rebuild for the retry round.
                pool.shutdown(
                    wait=not (abandoned or pool_broken), cancel_futures=True
                )
            if pool_broken:
                pool_breaks += 1
            else:
                pool_breaks = 0
            crash_loop = pool_breaks >= _CRASH_LOOP_LIMIT
            next_round = []
            for full_name, reason in failed:
                if crash_loop:
                    quarantined[full_name] = "crash-loop"
                elif attempts[full_name] > retries:
                    quarantined[full_name] = reason
                else:
                    if telemetry is not None:
                        telemetry.task_retry(
                            full_name, attempts[full_name], reason
                        )
                    next_round.append(full_name)
                    continue
                if telemetry is not None:
                    telemetry.task_quarantined(
                        full_name, quarantined[full_name]
                    )
            remaining = next_round
            round_no += 1
        return quarantined

    def evaluate_suite(self, suite, config):
        """``{benchmark_name: EvaluationResult}`` for one configuration."""
        return {
            program.name: self.evaluate(program, config)
            for program in suite_programs(suite)
        }

    def suite_speedups(self, suite, config):
        return {
            name: result.speedup
            for name, result in self.evaluate_suite(suite, config).items()
        }

    def suite_coverages(self, suite, config):
        return {
            name: result.coverage
            for name, result in self.evaluate_suite(suite, config).items()
        }


def _maybe_inject_fault():
    """Kill this worker when the fault-injection smoke hook is armed.

    ``always`` kills every task (quarantine path); a path kills exactly one
    task fleet-wide — the sentinel file is created with ``O_EXCL`` so
    concurrent workers race for a single SIGKILL (retry path).
    """
    sentinel = os.environ.get(FAULT_SENTINEL_ENV)
    if not sentinel:
        return
    if sentinel != "always":
        try:
            fd = os.open(sentinel, os.O_CREAT | os.O_EXCL | os.O_WRONLY)
        except OSError:
            return
        os.close(fd)
    os.kill(os.getpid(), signal.SIGKILL)


def _sweep_worker(full_name, config_names, fuel, cache_root):
    """Process-pool task: one benchmark, every configuration.

    Runs in a worker process. The profile comes from the shared disk store
    when warm (deserialized once per worker task, not once per config);
    a cold worker profiles and *stores*, so concurrent workers and the
    parent all converge on one profiling run per benchmark. Returns
    ``(full_name, results, meta)`` where ``meta`` feeds the run telemetry.
    """
    _maybe_inject_fault()
    start = time.perf_counter()
    program = find_program(full_name)
    store = ProfileStore(cache_root) if cache_root is not None else None
    lp = Loopapalooza(program.source, name=full_name, fuel=fuel, store=store)
    results = lp.evaluate_many(config_names)
    meta = {
        "wall_s": time.perf_counter() - start,
        "cache_hit": lp.profiled_from_cache,
        "instructions": lp.profile().total_cost,
    }
    return full_name, results, meta


_DEFAULT_RUNNER = None


def default_runner():
    """Process-wide shared runner (profiles are expensive; share them)."""
    global _DEFAULT_RUNNER
    if _DEFAULT_RUNNER is None:
        _DEFAULT_RUNNER = SuiteRunner()
    return _DEFAULT_RUNNER
