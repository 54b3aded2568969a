"""Integration tests: the paper's qualitative results (§IV, Figs. 2-5).

These assert the *shapes* the reproduction is supposed to preserve — who
wins, in which order configurations improve, and where the crossovers fall —
not the absolute numbers (the substrate is synthetic; see DESIGN.md).
"""

import pytest

from repro.bench import NON_NUMERIC_SUITES, NUMERIC_SUITES
from repro.core import BEST_HELIX, BEST_PDOALL, LPConfig
from repro.reporting import geomean


@pytest.fixture(scope="module")
def figures(runner):
    """Geomean speedups per (config, suite) for the whole paper matrix."""
    from repro.core import paper_configurations

    table = {}
    for config in paper_configurations():
        for suite in NON_NUMERIC_SUITES + NUMERIC_SUITES:
            speedups = runner.suite_speedups(suite, config)
            table[(config.name, suite)] = geomean(speedups.values())
    return table


def g(figures, config_name, suite):
    return figures[(config_name, suite)]


class TestFig2NonNumeric:
    """SpecINT2000/2006 (paper: 1.1-1.3x DOALL ... 4.6x/7.2x best HELIX)."""

    def test_doall_barely_gains(self, figures):
        for suite in NON_NUMERIC_SUITES:
            assert g(figures, "doall:reduc0-dep0-fn0", suite) < 1.6

    def test_pdoall_min_config_equals_doall(self, figures):
        """Infrequent memory LCDs are not the first bottleneck (paper §IV)."""
        for suite in NON_NUMERIC_SUITES:
            doall = g(figures, "doall:reduc0-dep0-fn0", suite)
            pdoall = g(figures, "pdoall:reduc0-dep0-fn0", suite)
            assert pdoall == pytest.approx(doall, rel=0.02)

    def test_progressive_relaxation_monotone(self, figures):
        ladder = [
            "pdoall:reduc0-dep0-fn0",
            "pdoall:reduc0-dep2-fn0",
            "pdoall:reduc1-dep2-fn0",
        ]
        for suite in NON_NUMERIC_SUITES:
            values = [g(figures, name, suite) for name in ladder]
            assert values == sorted(values)

    def test_dep3_fn3_is_pdoall_upper_bound(self, figures):
        for suite in NON_NUMERIC_SUITES:
            best_realistic = g(figures, "pdoall:reduc1-dep2-fn2", suite)
            upper = g(figures, "pdoall:reduc0-dep3-fn3", suite)
            assert upper >= best_realistic * 0.99

    def test_helix_dep1_fn2_is_the_best_configuration(self, figures):
        """The paper's headline: only dep1-fn2 HELIX unlocks non-numeric
        codes (4.6x and 7.2x)."""
        for suite in NON_NUMERIC_SUITES:
            helix_best = g(figures, "helix:reduc1-dep1-fn2", suite)
            for other in (
                "doall:reduc1-dep0-fn0",
                "pdoall:reduc1-dep2-fn2",
                "helix:reduc0-dep0-fn2",
            ):
                assert helix_best > g(figures, other, suite)

    def test_helix_best_in_paper_ballpark(self, figures):
        """Paper: 4.6x (INT2000) and 7.2x (INT2006). Accept 2x band."""
        assert 2.3 < g(figures, "helix:reduc1-dep1-fn2", "specint2000") < 9.5
        assert 3.6 < g(figures, "helix:reduc1-dep1-fn2", "specint2006") < 15.0

    def test_int2006_above_int2000(self, figures):
        for config_name in (
            "pdoall:reduc1-dep2-fn2",
            "helix:reduc1-dep1-fn2",
            "helix:reduc0-dep0-fn2",
        ):
            assert g(figures, config_name, "specint2006") > g(
                figures, config_name, "specint2000"
            )

    def test_dep1_matters_more_than_dep0_under_helix(self, figures):
        """Frequent register LCDs are the non-numeric bottleneck."""
        for suite in NON_NUMERIC_SUITES:
            dep0 = g(figures, "helix:reduc0-dep0-fn2", suite)
            dep1 = g(figures, "helix:reduc0-dep1-fn2", suite)
            assert dep1 > dep0 * 1.5


class TestFig3Numeric:
    """EEMBC, SpecFP2000/2006 (paper: 1.6-3.1x DOALL ... 21.6-50.6x HELIX)."""

    def test_doall_already_gains(self, figures):
        for suite in NUMERIC_SUITES:
            assert g(figures, "doall:reduc0-dep0-fn0", suite) > 1.4

    def test_reduc1_helps_doall(self, figures):
        for suite in NUMERIC_SUITES:
            assert g(figures, "doall:reduc1-dep0-fn0", suite) > g(
                figures, "doall:reduc0-dep0-fn0", suite
            )

    def test_numeric_beats_nonnumeric_everywhere(self, figures):
        from repro.core import paper_configurations

        for config in paper_configurations():
            numeric = geomean(
                g(figures, config.name, s) for s in NUMERIC_SUITES
            )
            non_numeric = geomean(
                g(figures, config.name, s) for s in NON_NUMERIC_SUITES
            )
            assert numeric > non_numeric

    def test_eembc_prefers_fn2_over_reduc_dep(self, figures):
        """Paper: EEMBC performs better with reduc0-dep0-fn2 PDOALL than
        with reduc1-dep2-fn0 PDOALL."""
        fn2_only = g(figures, "pdoall:reduc0-dep0-fn2", "eembc")
        reduc_dep_only = g(figures, "pdoall:reduc1-dep2-fn0", "eembc")
        assert fn2_only > reduc_dep_only

    def test_fp2000_gains_from_both_reduc1_and_dep2(self, figures):
        base = g(figures, "pdoall:reduc0-dep0-fn0", "specfp2000")
        dep2 = g(figures, "pdoall:reduc0-dep2-fn0", "specfp2000")
        both = g(figures, "pdoall:reduc1-dep2-fn0", "specfp2000")
        assert dep2 > base * 1.1
        assert both > dep2 * 1.1

    def test_helix_best_in_paper_ballpark(self, figures):
        """Paper: 21.6x-50.6x for the best HELIX configuration."""
        for suite in NUMERIC_SUITES:
            value = g(figures, "helix:reduc1-dep1-fn2", suite)
            assert 10 < value < 110


class TestFig4PerBenchmark:
    def test_helix_wins_overall_but_pdoall_wins_named_cases(self, runner):
        """Paper: HELIX is more consistent, but 179_art, 450_soplex,
        482_sphinx and mcf prefer PDOALL."""
        pdoall_wins = []
        helix_wins = 0
        from repro.bench import suite_programs

        for suite in ("specint2000", "specint2006", "specfp2000", "specfp2006"):
            for program in suite_programs(suite):
                pd = runner.evaluate(program, BEST_PDOALL).speedup
                hx = runner.evaluate(program, BEST_HELIX).speedup
                if pd > hx:
                    pdoall_wins.append(program.full_name)
                else:
                    helix_wins += 1
        assert helix_wins > len(pdoall_wins), "HELIX should win most benchmarks"
        for name in (
            "specint2000/mcf_like",
            "specint2006/mcf_like06",
            "specfp2000/art_like",
            "specfp2006/soplex_like",
            "specfp2006/sphinx_like",
        ):
            assert name in pdoall_wins, f"{name} should prefer PDOALL (Fig. 4)"


class TestFig5Coverage:
    def test_coverage_ordering(self, runner):
        """Paper Fig. 5: coverage grows PDOALL-dep0-fn2 < HELIX-dep0-fn2 <
        HELIX-dep1-fn2, and the jump explains the non-numeric speedups."""
        configs = [
            LPConfig("pdoall", 0, 0, 2),
            LPConfig("helix", 0, 0, 2),
            LPConfig("helix", 0, 1, 2),
        ]
        for suite in NON_NUMERIC_SUITES:
            means = []
            for config in configs:
                coverages = runner.suite_coverages(suite, config)
                means.append(sum(coverages.values()) / len(coverages))
            assert means[0] <= means[1] + 0.02
            assert means[1] >= means[0] * 0.9
            assert means[1] < means[2]
            assert means[2] > 0.5, "dep1-fn2 HELIX must reach high coverage"

    def test_coverage_within_bounds(self, runner):
        for suite in NON_NUMERIC_SUITES + NUMERIC_SUITES:
            coverages = runner.suite_coverages(suite, BEST_HELIX)
            assert all(0.0 <= c <= 1.0 for c in coverages.values())
