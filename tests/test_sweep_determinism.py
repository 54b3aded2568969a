"""The sweep's grid shape: input order and the in-process result memo.

``SuiteRunner.evaluate_many`` returns ``{program: {config: result}}`` in
the order it was given, and a cell evaluated once is never evaluated
again by the same runner.
"""

from repro.bench.suites import SuiteRunner, suite_programs
from repro.runtime.profile_store import ProfileStore

CONFIGS = (
    "doall:reduc1-dep0-fn0",
    "pdoall:reduc1-dep2-fn2",
    "helix:reduc1-dep1-fn2",
)


def _programs():
    return suite_programs("eembc")[:4]


def test_evaluate_many_memoizes(tmp_path):
    programs = _programs()[:2]
    runner = SuiteRunner(store=ProfileStore(tmp_path / "memo"))
    first = runner.evaluate_many(programs, CONFIGS)
    second = runner.evaluate_many(programs, CONFIGS)
    # Every cell was already memoized in-process: the second sweep
    # evaluates nothing and returns the very same result objects.
    for full_name, row in first.items():
        for config_name, result in row.items():
            assert second[full_name][config_name] is result


def test_grid_order_follows_input_order(tmp_path):
    programs = list(reversed(_programs()))
    runner = SuiteRunner(store=ProfileStore(tmp_path / "order"))
    grid = runner.evaluate_many(programs, CONFIGS)
    assert list(grid) == [program.full_name for program in programs]
    for row in grid.values():
        assert list(row) == list(CONFIGS)
