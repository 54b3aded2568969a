"""The benchmark's workloads, their inputs and their output checks.

``paper_cold`` and ``paper_warm`` run the steps of
``examples/full_paper_run.py`` (serial, without ``--parexec``) over the 48
bundled programs. ``fuzz_oracle`` runs the differential oracle of
``repro.fuzz`` on a fixed campaign of generated programs. In every
workload the seed only chooses the order of the programs, so every seed
does the same work and produces the same figures and verdicts.

Everything the timed sections call is imported here, so imports are paid
during set-up.
"""

from __future__ import annotations

import hashlib
import json
import os
import pathlib
import random

from repro.bench import SuiteRunner, all_programs
from repro.frontend.codegen import compile_source
from repro.fuzz.genprog import generate_program
from repro.fuzz.harness import run_oracles
from repro.interp.veccodegen import summarize_vec_decisions, vector_decisions
from repro.reporting import (
    crosscheck_suites,
    figure2_nonnumeric,
    figure3_numeric,
    figure4_per_benchmark,
    figure5_coverage,
    format_census,
    format_coverage,
    format_crosscheck,
    format_figure4,
    format_speedup_figure,
    format_transform_figure,
    table1_census,
    transform_suites,
)
from repro.reporting.advisor import advise_suites, format_advice
from repro.runtime.profile_store import default_code_cache
from repro.runtime.serialize import profile_to_dict
from repro.runtime.telemetry import RunTelemetry

EXPECTED_PAPER = pathlib.Path(__file__).resolve().parent / "expected" / "paper.json"

PAPER_WORKLOADS = ("paper_cold", "paper_warm")
WORKLOADS = PAPER_WORKLOADS + ("fuzz_oracle",)

#: The fuzz campaign: generator seeds ``0 .. FUZZ_PROGRAMS-1`` of the mixed
#: grammar profile, the programs ``repro fuzz --seed 0 --profile mixed``
#: starts with. The benchmark seed only orders them: oracle time varies
#: with a coefficient of variation of 0.44 from program to program, and
#: peak memory follows the largest program, so drawing a new campaign per
#: seed made wall time and peak RSS depend on the seed.
FUZZ_PROFILE = "mixed"
FUZZ_PROGRAMS = 20


def sha256(text):
    return hashlib.sha256(text.encode("utf-8")).hexdigest()


# -- paper_cold / paper_warm ----------------------------------------------------


def profiling_order(seed):
    programs = all_programs()
    random.Random(seed).shuffle(programs)
    return programs


def fill_cache(seed):
    """Profile every bundled program into the default (private) store."""
    runner = SuiteRunner()
    for program in profiling_order(seed):
        runner.instance(program)


def run_paper(programs, runs_dir):
    """The timed section: the steps of ``examples/full_paper_run.py``
    without ``--parexec``, after profiling ``programs`` in their order.
    Returns the runner and the ``(title, text)`` sections."""
    runner = SuiteRunner()
    telemetry = RunTelemetry.create(root=runs_dir)
    sweep = {"telemetry": telemetry, "task_timeout": None, "retries": 2}
    sections = []
    try:
        for program in programs:
            runner.instance(program)
        sections.append(("Figure 2", format_speedup_figure(
            figure2_nonnumeric(runner, sweep=sweep),
            "Fig. 2 (reproduced) — non-numeric GEOMEAN speedups")))
        sections.append(("Figure 3", format_speedup_figure(
            figure3_numeric(runner, sweep=sweep),
            "Fig. 3 (reproduced) — numeric GEOMEAN speedups")))
        sections.append(("Figure 4", format_figure4(
            figure4_per_benchmark(runner, sweep=sweep))))
        sections.append(("Figure 5", format_coverage(
            figure5_coverage(runner, sweep=sweep))))
        sections.insert(0, ("Table I", format_census(
            table1_census(runner, sweep=sweep))))
        sections.insert(1, ("Static crosscheck", format_crosscheck(
            crosscheck_suites(runner))))
        sections.insert(2, ("Transform unlock", format_transform_figure(
            transform_suites())))
        sections.insert(3, ("Parallelizability advisor", format_advice(
            advise_suites(runner, crosscheck=True))))
    except BaseException:
        telemetry.finish(status="interrupted")
        raise
    telemetry.record_cache_stats(_cache_stats(runner))
    telemetry.record_vec_decisions(_vec_decisions())
    telemetry.finish()
    return runner, sections


def _cache_stats(runner):
    stats = {"profile_store": runner.store.info()}
    code_cache = default_code_cache()
    if code_cache is not None:
        stats["code_cache"] = code_cache.info()
    return stats


def _vec_decisions():
    decisions = []
    for program in all_programs():
        decisions.extend(vector_decisions(compile_source(program.source)))
    return summarize_vec_decisions(decisions)


def paper_digests(runner, sections):
    """Digest of each figure/table section, and per program the result,
    the output, the dynamic IR instruction count and the sha256 of the
    serialized profile. Run-specific text (wall time, run id, cache
    statistics) lives in the run footer, which is not digested."""
    programs = {}
    for program in all_programs():
        lp = runner.instance(program)
        profile = lp.profile()
        serialized = json.dumps(profile_to_dict(profile), sort_keys=True,
                                separators=(",", ":"))
        programs[program.full_name] = {
            "result": profile.result,
            "output": list(lp.output),
            "ir_instructions": profile.total_cost,
            "profile_sha256": sha256(serialized),
        }
    return {
        "sections": {title: sha256(text) for title, text in sections},
        "programs": programs,
    }


def paper_cache_failures(workload, runner):
    """Cache-state assertions: a cold pass only writes, a warm one only
    reads, and both use the private cache root."""
    stats = runner.store.stats
    expected_hits, expected_misses = (
        (0, len(all_programs())) if workload == "paper_cold"
        else (len(all_programs()), 0)
    )
    failures = []
    if (stats.hits, stats.misses) != (expected_hits, expected_misses):
        failures.append(
            f"profile store {stats.hits} hits / {stats.misses} misses, "
            f"expected {expected_hits} / {expected_misses}")
    code_cache = default_code_cache()
    private = pathlib.Path(os.environ["REPRO_CACHE_DIR"])
    if runner.store.root != private or code_cache.root != private / "code":
        failures.append(f"caches at {runner.store.root} and "
                        f"{code_cache.root}, not under {private}")
    if workload == "paper_cold" and code_cache.stats.hits:
        failures.append(f"code cache {code_cache.stats.hits} hits on a "
                        f"cold pass, expected 0")
    return failures


def check_paper(observed, expected):
    """``(operation, detail)`` for every program record or section that
    differs from the expected file; the sections form one operation."""
    failures = []
    for name in sorted(set(expected["programs"]) | set(observed["programs"])):
        want = expected["programs"].get(name)
        got = observed["programs"].get(name)
        if want != got:
            fields = sorted(
                key for key in set(want or {}) | set(got or {})
                if (want or {}).get(key) != (got or {}).get(key)
            )
            failures.append((name, f"differs from expected in {fields}"))
    bad = sorted(
        title
        for title in set(expected["sections"]) | set(observed["sections"])
        if expected["sections"].get(title) != observed["sections"].get(title)
    )
    if bad:
        failures.append(("figures", f"sections differ from expected: {bad}"))
    return failures


def load_expected():
    return json.loads(EXPECTED_PAPER.read_text())


# -- fuzz_oracle ------------------------------------------------------------------


def fuzz_programs(seed):
    """The campaign's programs, in the order of ``seed``."""
    programs = [generate_program(current, FUZZ_PROFILE)
                for current in range(FUZZ_PROGRAMS)]
    random.Random(seed).shuffle(programs)
    return programs


def run_fuzz(programs):
    """The timed section: every oracle on every program. A program whose
    oracle run raises yields the exception instead of a report."""
    outcomes = []
    for program in programs:
        try:
            outcomes.append(run_oracles(program.source, program.name))
        except Exception as error:  # counted as a failed operation
            outcomes.append(error)
    return outcomes


def fuzz_digests(programs, outcomes):
    return {
        program.name: (
            dict(outcome.checks) if not isinstance(outcome, Exception)
            else f"{type(outcome).__name__}: {outcome}"
        )
        for program, outcome in zip(programs, outcomes)
    }


def fuzz_failures(programs, outcomes):
    failures = []
    for program, outcome in zip(programs, outcomes):
        if isinstance(outcome, Exception):
            failures.append((program.name,
                             f"{type(outcome).__name__}: {outcome}"))
        elif not outcome.ok:
            failures.append((program.name, outcome.describe()))
    return failures
