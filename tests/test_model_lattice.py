"""The execution models are monotone over the Table II lattice.

Within one model, relaxing one flag (``reduc`` 0->1, ``dep`` k->k+1,
``fn`` k->k+1) only removes reasons to keep a loop serial, so it must
never lower a program's speedup or coverage. At equal flags, PDOALL's
transactional restart only adds parallel loops to DOALL's, so DOALL never
beats PDOALL. PDOALL and HELIX are not ordered — Fig. 4 shows each
winning on some programs — so that pair is not checked.

These are properties of the model, not of one implementation: the
columnar evaluator and the reference walk it is tested against could
share a bug that breaks them. A violation is either an evaluator bug or
a property of the model the paper would need to state; DESIGN.md must
explain it before a check here is narrowed.
"""

import pytest

from helpers import valid_configurations
from repro.bench.suites import all_programs
from repro.core.config import LPConfig

CONFIGS = valid_configurations()


def relaxations(config):
    """The configurations of the same model with one flag relaxed by one
    step."""
    model, reduc, dep, fn = config.model, config.reduc, config.dep, config.fn
    steps = []
    if reduc == 0:
        steps.append(LPConfig(model, 1, dep, fn))
    if model != "doall" and dep < 3:
        steps.append(LPConfig(model, reduc, dep + 1, fn))
    if fn < 3:
        steps.append(LPConfig(model, reduc, dep, fn + 1))
    return steps


@pytest.fixture(scope="module")
def cells(runner):
    """``(speedup, coverage)`` of every bundled program under each of the
    72 configurations."""
    table = {}
    for program in all_programs():
        lp = runner.instance(program)
        for config in CONFIGS:
            result = lp.evaluate(config)
            table[program.full_name, config] = (result.speedup,
                                                result.coverage)
    return table


def lowered(cells, pairs):
    """One line per program and ``(weaker, stronger)`` pair in which the
    stronger configuration has a lower speedup or coverage."""
    violations = []
    for name in sorted({name for name, _ in cells}):
        for weaker, stronger in pairs:
            (s0, c0), (s1, c1) = cells[name, weaker], cells[name, stronger]
            if s1 < s0 or c1 < c0:
                violations.append(
                    f"{name}: {weaker.name} -> {stronger.name} gives "
                    f"speedup {s0!r} -> {s1!r}, coverage {c0!r} -> {c1!r}")
    return violations


def test_relaxing_one_flag_never_lowers_speedup_or_coverage(cells):
    pairs = [(config, relaxed)
             for config in CONFIGS for relaxed in relaxations(config)]
    assert len(pairs) == 138
    assert lowered(cells, pairs) == []


def test_doall_never_beats_pdoall_at_equal_flags(cells):
    pairs = [(config, LPConfig("pdoall", config.reduc, config.dep, config.fn))
             for config in CONFIGS if config.model == "doall"]
    assert len(pairs) == 8
    assert lowered(cells, pairs) == []
