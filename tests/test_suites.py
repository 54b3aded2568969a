"""Benchmark-suite integrity tests: every synthetic program compiles,
verifies, runs deterministically, records the pinned profile, and
exhibits its designed traits."""

import hashlib
import json
import pathlib

import pytest

from repro.bench import (
    ALL_SUITES,
    all_programs,
    find_program,
    suite_programs,
)
from repro.bench.program import (
    TRAIT_CALLS,
    TRAIT_DOALL,
    TRAIT_PDOALL_FRIENDLY,
    TRAIT_PREDICTABLE_LCD,
    TRAIT_UNSAFE_CALLS,
)
from repro.core import BEST_HELIX, BEST_PDOALL, LPConfig
from repro.core.static_info import CALL_UNSAFE
from repro.ir import verify_module
from repro.runtime.serialize import profile_to_dict

ALL = all_programs()

#: The per-program digests the benchmark's expected file pins (only read).
EXPECTED = pathlib.Path(__file__).resolve().parents[1] / "perfbench" / \
    "expected" / "paper.json"


@pytest.fixture(scope="module")
def pinned():
    return json.loads(EXPECTED.read_text())["programs"]


class TestRegistry:
    def test_five_suites(self):
        assert set(ALL_SUITES) == {
            "specint2000", "specint2006", "eembc", "specfp2000", "specfp2006",
        }

    def test_suite_sizes(self):
        assert len(suite_programs("specint2000")) == 12
        assert len(suite_programs("specint2006")) == 12
        assert len(suite_programs("eembc")) == 8
        assert len(suite_programs("specfp2000")) == 8
        assert len(suite_programs("specfp2006")) == 8
        assert len(ALL) == 48

    def test_names_unique(self):
        names = [p.full_name for p in ALL]
        assert len(set(names)) == len(names)

    def test_find_program(self):
        program = find_program("specint2000/gzip_like")
        assert program.suite == "specint2000"
        from repro.errors import FrameworkError

        with pytest.raises(FrameworkError):
            find_program("specint2000/nope")
        with pytest.raises(FrameworkError):
            find_program("badsuite/x")

    def test_descriptions_present(self):
        for program in ALL:
            assert program.description
            assert program.traits


@pytest.mark.parametrize("program", ALL, ids=lambda p: p.full_name)
class TestEveryProgram:
    def test_compiles_runs_and_verifies(self, program, runner):
        lp = runner.instance(program)
        verify_module(lp.module)
        profile = lp.profile()
        assert profile.total_cost > 10_000, "workload too small to be meaningful"
        assert profile.result is not None
        assert len(lp.static_info.loops) >= 2

    def test_deterministic(self, program, runner):
        lp = runner.instance(program)
        result, cost, _ = lp.run_uninstrumented()
        assert result == lp.profile().result
        assert cost == lp.profile().total_cost

    def test_profile_matches_the_pinned_digest(self, program, runner,
                                               pinned):
        """The serialized profile, result, output and dynamic instruction
        count equal what ``perfbench/expected/paper.json`` pins, so a
        profile change that moves no figure fails here too. CI's tier-1
        starts from an empty profile store, so there this checks freshly
        recorded profiles, at no extra profiling cost (the shared
        ``runner`` fixture profiles every program anyway); a warm store's
        profiles are checked as loaded."""
        lp = runner.instance(program)
        profile = lp.profile()
        serialized = json.dumps(profile_to_dict(profile), sort_keys=True,
                                separators=(",", ":"))
        assert {
            "result": profile.result,
            "output": list(lp.output),
            "ir_instructions": profile.total_cost,
            "profile_sha256": hashlib.sha256(
                serialized.encode()).hexdigest(),
        } == pinned[program.full_name]


class TestTraits:
    def test_doall_trait_means_parallel_somewhere(self, runner):
        config = LPConfig("pdoall", 1, 2, 2)
        for program in ALL:
            if TRAIT_DOALL in program.traits:
                result = runner.evaluate(program, config)
                assert any(
                    s.is_parallel for s in result.loops.values()
                ), f"{program.full_name} claims DOALL-friendly loops"

    def test_pdoall_friendly_trait_holds(self, runner):
        for program in ALL:
            if TRAIT_PDOALL_FRIENDLY in program.traits:
                pd = runner.evaluate(program, BEST_PDOALL).speedup
                hx = runner.evaluate(program, BEST_HELIX).speedup
                assert pd > hx, (
                    f"{program.full_name} should prefer PDOALL "
                    f"(pd={pd:.2f}, hx={hx:.2f})"
                )

    def test_unsafe_calls_trait_matches_static_info(self, runner):
        for program in ALL:
            lp = runner.instance(program)
            has_unsafe_loop = any(
                CALL_UNSAFE in s.call_classes
                for s in lp.static_info.loops.values()
            )
            if TRAIT_UNSAFE_CALLS in program.traits:
                assert has_unsafe_loop, program.full_name

    def test_calls_trait_matches_static_info(self, runner):
        for program in ALL:
            if TRAIT_CALLS in program.traits:
                lp = runner.instance(program)
                assert any(
                    s.has_any_call for s in lp.static_info.loops.values()
                ), program.full_name

    def test_predictable_lcd_trait_gains_from_dep2(self, runner):
        dep0 = LPConfig("pdoall", 1, 0, 2)
        dep2 = LPConfig("pdoall", 1, 2, 2)
        for program in ALL:
            if TRAIT_PREDICTABLE_LCD in program.traits:
                s0 = runner.evaluate(program, dep0).speedup
                s2 = runner.evaluate(program, dep2).speedup
                assert s2 > s0 * 1.05, (
                    f"{program.full_name} claims a predictable LCD "
                    f"(dep0={s0:.2f}, dep2={s2:.2f})"
                )


class TestSerialInputPhases:
    """Every benchmark carries a serial input phase (DESIGN.md substitution
    for SPEC's input parsing); limit speedups must stay Amdahl-bounded."""

    def test_no_benchmark_fully_parallelizes(self, runner):
        config = LPConfig("pdoall", 0, 3, 3)  # the most generous PDOALL
        for program in ALL:
            result = runner.evaluate(program, config)
            assert result.coverage < 0.999, program.full_name

    def test_best_helix_bounded(self, runner):
        for program in ALL:
            speedup = runner.evaluate(program, BEST_HELIX).speedup
            assert speedup < 1000, (
                f"{program.full_name} exploded to {speedup:.0f}x: "
                "missing a serial phase?"
            )
