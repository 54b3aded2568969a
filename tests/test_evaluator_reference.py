"""The columnar evaluator against the record walk it replaced.

``reference_evaluator`` keeps the walk: one Python visit per invocation,
per configuration and per static-marking round. Every result must
serialize byte-identically, dict order included (no ``sort_keys``), through
``EvaluationResult.to_dict()``. Every number in it must also be a builtin
``int`` or ``float``, so a result always serializes (``json.dumps``
rejects NumPy integers).
"""

import json

import pytest

import reference_evaluator as reference
from helpers import valid_configurations
from repro.bench.suites import ALL_SUITES, suite_programs
from repro.core.config import LPConfig, paper_configurations
from repro.core.evaluator import ProfileCache, _evaluate_round, evaluate_config
from repro.core.framework import Loopapalooza
from repro.fuzz.genprog import generate_program
from repro.runtime import cost_models


def non_builtin_numbers(value, path="result"):
    """Paths of the numbers in ``value`` that are not builtin ints/floats."""
    if isinstance(value, dict):
        return [bad for key, item in value.items()
                for bad in non_builtin_numbers(item, f"{path}.{key}")]
    if isinstance(value, str):
        return []
    return [] if type(value) in (int, float) else [f"{path}: {type(value)}"]


def assert_matches_reference(lp, configs, innermost_only=False):
    profile = lp.profile()
    cache = ProfileCache(profile)
    walk = reference.ReferenceCache(profile)
    for config in configs:
        result = evaluate_config(profile, lp.static_info, config, cache,
                                 innermost_only=innermost_only)
        expected = reference.evaluate_config(
            profile, lp.static_info, config, walk,
            innermost_only=innermost_only,
        )
        data = result.to_dict()
        assert json.dumps(data) == json.dumps(expected.to_dict()), \
            f"{lp.name} {config.name} innermost_only={innermost_only}"
        assert non_builtin_numbers(data) == [], (lp.name, config.name)


def assert_rounds_match_reference(lp, configs, innermost_only=False):
    """One round with a forced marking set, against one reference round.

    A full evaluation only marks loops that were parallel, so it never
    marks a loop that another mask serializes. Marking all loops, and
    every other loop, exposes the whole mask precedence."""
    profile = lp.profile()
    cache = ProfileCache(profile)
    cache.prepare(lp.static_info)
    walk = reference.ReferenceCache(profile)
    loop_ids = profile.loop_ids()
    for config in configs:
        leaves = cache.leaf_outcomes(config)
        for forced in (set(loop_ids), set(loop_ids[::2])):
            result = _evaluate_round(profile, cache, config, leaves, forced,
                                     innermost_only)
            expected = reference._evaluate_once(
                profile, lp.static_info, config, walk, forced,
                innermost_only=innermost_only,
            )
            assert json.dumps(result.to_dict()) == \
                json.dumps(expected.to_dict()), (lp.name, config.name)


@pytest.mark.parametrize("suite", ALL_SUITES)
def test_paper_configurations_on_bundled_programs(runner, suite):
    for program in suite_programs(suite):
        assert_matches_reference(runner.instance(program),
                                 paper_configurations())


@pytest.mark.parametrize("suite", ["specint2000", "specint2006"])
def test_innermost_only_on_non_numeric_suites(runner, suite):
    configs = [LPConfig.parse("pdoall:reduc1-dep2-fn2"),
               LPConfig.parse("helix:reduc1-dep1-fn2")]
    for program in suite_programs(suite):
        assert_matches_reference(runner.instance(program), configs,
                                 innermost_only=True)


@pytest.mark.parametrize("innermost_only", [False, True])
@pytest.mark.parametrize("suite", ["specint2000", "specint2006"])
def test_marked_rounds_on_non_numeric_suites(runner, suite, innermost_only):
    for program in suite_programs(suite):
        assert_rounds_match_reference(runner.instance(program),
                                      paper_configurations(), innermost_only)


@pytest.mark.parametrize("innermost_only", [False, True])
@pytest.mark.parametrize(
    "kernel", ["doall_kernel", "chain_kernel", "reduction_kernel"]
)
def test_every_configuration_on_kernels(request, kernel, innermost_only):
    lp = request.getfixturevalue(kernel)
    assert_matches_reference(lp, valid_configurations(), innermost_only)
    assert_rounds_match_reference(lp, valid_configurations(), innermost_only)


def test_every_configuration_on_a_loop_free_program():
    lp = Loopapalooza("int main() { return 3; }", name="loop_free")
    assert_matches_reference(lp, valid_configurations())


@pytest.fixture(scope="module")
def generated_programs():
    """The 20 ``mixed`` programs of the fuzz campaign (seeds 0-19)."""
    return [
        Loopapalooza(program.source, name=program.name)
        for program in map(generate_program, range(20))
    ]


@pytest.mark.parametrize("innermost_only", [False, True])
def test_every_configuration_on_generated_programs(generated_programs,
                                                   innermost_only):
    for lp in generated_programs:
        assert_matches_reference(lp, valid_configurations(), innermost_only)
        assert_rounds_match_reference(lp, valid_configurations(),
                                      innermost_only)


@pytest.mark.parametrize("cutoff", [0.2, 0.5, 0.8, 0.95])
def test_pdoall_cutoffs(runner, monkeypatch, cutoff):
    monkeypatch.setattr(cost_models, "PDOALL_SERIAL_THRESHOLD", cutoff)
    monkeypatch.setattr(reference, "PDOALL_SERIAL_THRESHOLD", cutoff)
    for program in suite_programs("specint2006"):
        assert_matches_reference(runner.instance(program),
                                 [LPConfig.parse("pdoall:reduc1-dep2-fn2")])
