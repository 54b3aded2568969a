"""Suite registry, cached benchmark runner, and the sweep.

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
   re-run of ``repro figures`` — skip re-profiling entirely;
3. evaluation results are memoized per ``(benchmark, configuration)`` in
   memory, so the figure harnesses never evaluate the same cell twice
   (Fig. 4 and Fig. 5 reuse the Fig. 2/3 sweep). They are never written
   to disk: figures are always computed from profiles.

:meth:`SuiteRunner.evaluate_many` sweeps the (benchmark x configuration)
grid in this process, one benchmark at a time. When a
:class:`~repro.runtime.telemetry.RunTelemetry` is attached, every
completed benchmark is counted in the run manifest. A sweep that is
killed part-way is recovered by running it again: the profiles it
finished are already in the store.
"""

from __future__ import annotations

import time

from ..core.config import LPConfig
from ..core.framework import Loopapalooza
from ..errors import FrameworkError
from ..runtime.profile_store import default_cache_root, default_store
from .programs import eembc, specfp2000, specfp2006, specint2000, specint2006

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

    By default profiles persist in the shared store (``REPRO_CACHE_DIR``,
    else ``~/.cache/repro/profiles``); ``store=<ProfileStore>`` injects
    another one and ``store=False`` turns persistence off.
    """

    def __init__(self, fuel=50_000_000, store=None):
        self.fuel = fuel
        if store is False:
            self.store = None
        elif store is not None:
            self.store = store
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

    # -- the sweep -------------------------------------------------------------

    def evaluate_many(self, programs, configs, *, telemetry=None):
        """Evaluate the full (program x config) grid; returns
        ``{program.full_name: {config.name: EvaluationResult}}`` in input
        order.

        With ``telemetry`` (a :class:`~repro.runtime.telemetry.RunTelemetry`)
        each benchmark that had configurations left to evaluate is counted
        in the run manifest as soon as they are done.
        """
        programs = list(programs)
        configs = [_as_config(c) for c in configs]
        grid = {}
        for program in programs:
            full_name = program.full_name
            missing = [
                config for config in configs
                if (full_name, config.name) not in self._results
            ]
            if missing:
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
                    )
            grid[full_name] = {
                config.name: self._results[(full_name, config.name)]
                for config in configs
            }
        return grid

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


#: One runner per profile-store root, so every caller that asks for the
#: default runner of the current ``REPRO_CACHE_DIR`` shares its profiles.
_DEFAULT_RUNNERS = {}


def default_runner():
    """The shared runner over the default profile store of the current
    ``REPRO_CACHE_DIR`` (profiles are expensive; share them)."""
    root = default_cache_root()
    runner = _DEFAULT_RUNNERS.get(root)
    if runner is None:
        runner = _DEFAULT_RUNNERS[root] = SuiteRunner()
    return runner
