"""Evaluator semantics tests: each Table-II flag changes outcomes the way
the paper says it should, on purpose-built kernels."""

import pytest

from repro.core import LPConfig, Loopapalooza


def speedups(lp, *config_names):
    return [lp.evaluate(name).speedup for name in config_names]


class TestDOALLSemantics:
    def test_conflict_free_loop_parallelizes(self, doall_kernel):
        result = doall_kernel.evaluate("doall:reduc0-dep0-fn2")
        assert result.speedup > 20

    def test_fn0_serializes_loop_with_calls(self, doall_kernel):
        result = doall_kernel.evaluate("doall:reduc0-dep0-fn0")
        assert result.speedup == pytest.approx(1.0)

    def test_single_conflict_marks_whole_loop_serial(self):
        # Conflicts only in the first invocation; DOALL must also serialize
        # the conflict-free second invocation of the same static loop.
        lp = Loopapalooza(
            """
            int A[64];
            int run(int chain) {
              int i;
              for (i = 1; i < 32; i = i + 1) {
                if (chain) { A[i] = A[i-1] + 1; }
                if (!chain) { A[i + 32] = i; }
              }
              return A[31];
            }
            int main() { return run(1) + run(0); }
            """,
            "marking",
        )
        result = lp.evaluate("doall:reduc0-dep0-fn2")
        summary = result.loops["run.for.cond1"]
        assert summary.parallel_invocations == 0

    def test_reduction_blocks_doall_until_reduc1(self, reduction_kernel):
        reduc0 = reduction_kernel.evaluate("doall:reduc0-dep0-fn0")
        reduc1 = reduction_kernel.evaluate("doall:reduc1-dep0-fn0")
        assert reduc0.speedup == pytest.approx(1.0)
        assert reduc1.speedup > 1.3


class TestPDOALLSemantics:
    def test_matches_doall_when_no_infrequent_lcds(self, doall_kernel):
        doall = doall_kernel.evaluate("doall:reduc0-dep0-fn2")
        pdoall = doall_kernel.evaluate("pdoall:reduc0-dep0-fn2")
        assert pdoall.speedup == pytest.approx(doall.speedup, rel=1e-6)

    def test_rare_conflicts_cost_one_phase_each(self):
        lp = Loopapalooza(
            """
            int A[200]; int S[1];
            int main() {
              int i;
              for (i = 0; i < 200; i = i + 1) {
                int seen = S[0];
                A[i] = i + seen;
                if (i == 50 || i == 150) { S[0] = i; }
              }
              return A[199];
            }
            """,
            "rare",
        )
        result = lp.evaluate("pdoall:reduc0-dep0-fn2")
        summary = result.loops["main.for.cond1"]
        assert summary.is_parallel
        assert summary.speedup > 30  # ~3 phases over 200 iterations

    def test_frequent_chain_stays_serial(self, chain_kernel):
        result = chain_kernel.evaluate("pdoall:reduc0-dep0-fn2")
        assert result.speedup == pytest.approx(1.0, abs=0.05)

    def test_static_marking_reads_the_one_cutoff(self, monkeypatch):
        # One conflicting iteration out of 11 in the first invocation, none
        # in the second: the aggregate rate (1/22) is below the paper's 80 %
        # but above a 1 % cut-off, which must mark the loop serial in both
        # invocations although only cost_models is patched.
        import repro.runtime.cost_models as cost_models

        lp = Loopapalooza(
            """
            int A[16];
            int run(int chain) {
              int i;
              for (i = 1; i < 11; i = i + 1) {
                if (chain && i == 5) { A[i] = A[i-1] + 1; }
                else { A[i] = i * 3; }
              }
              return A[10];
            }
            int main() { return run(1) + run(0); }
            """,
            "cutoff",
        )
        summary = lp.evaluate("pdoall:reduc0-dep0-fn2").loops["run.for.cond1"]
        assert summary.iterations == 22
        assert summary.conflicting_iterations == 1
        assert summary.parallel_invocations == 2

        monkeypatch.setattr(cost_models, "PDOALL_SERIAL_THRESHOLD", 0.01)
        summary = lp.evaluate("pdoall:reduc0-dep0-fn2").loops["run.for.cond1"]
        assert summary.parallel_invocations == 0
        assert summary.reasons == {"marked": 2}

    def test_dep2_unlocks_predictable_lcd(self):
        lp = Loopapalooza(
            """
            float OUT[300];
            float S = 0.0;
            int main() {
              int i;
              float x = 0.5;
              for (i = 0; i < 300; i = i + 1) {
                OUT[i] = x * 2.0;
                x = x + 0.25;       // exact dyadic stride: predictable
              }
              S = OUT[299];
              return 0;
            }
            """,
            "predictable",
        )
        dep0 = lp.evaluate("pdoall:reduc0-dep0-fn2")
        dep2 = lp.evaluate("pdoall:reduc0-dep2-fn2")
        assert dep0.speedup == pytest.approx(1.0, abs=0.05)
        assert dep2.speedup > 10

    def test_dep2_cannot_unlock_unpredictable_lcd(self):
        lp = Loopapalooza(
            """
            int OUT[300];
            int main() {
              int i;
              int x = 17;
              for (i = 0; i < 300; i = i + 1) {
                OUT[i] = x;
                x = (x * 1103515245 + 12345) & 2147483647;
              }
              return OUT[299] & 255;
            }
            """,
            "unpredictable",
        )
        dep2 = lp.evaluate("pdoall:reduc0-dep2-fn2")
        dep3 = lp.evaluate("pdoall:reduc0-dep3-fn2")
        assert dep2.speedup < 1.5
        assert dep3.speedup > 10  # perfect prediction removes the LCD

    def test_dep3_does_not_remove_memory_conflicts(self, chain_kernel):
        result = chain_kernel.evaluate("pdoall:reduc0-dep3-fn3")
        assert result.speedup == pytest.approx(1.0, abs=0.05)


class TestHELIXSemantics:
    def test_pipelines_early_resolving_chain(self):
        lp = Loopapalooza(
            """
            int OUT[300];
            int main() {
              int i;
              int cursor = 3;
              int sink = 0;
              for (i = 0; i < 300; i = i + 1) {
                cursor = (cursor * 5 + 1) & 255;   // early producer
                int k; int w = 0;
                for (k = 0; k < 10; k = k + 1) { w = w + ((cursor + k) & 7); }
                OUT[i] = w;
                sink = sink + w;
              }
              return sink & 32767;
            }
            """,
            "pipeline",
        )
        pdoall = lp.evaluate("pdoall:reduc1-dep2-fn2")
        helix = lp.evaluate("helix:reduc1-dep1-fn2")
        assert helix.speedup > 3 * pdoall.speedup

    def test_late_producer_early_consumer_stays_serial(self):
        lp = Loopapalooza(
            """
            int OUT[200];
            int main() {
              int i;
              int state = 1;
              for (i = 0; i < 200; i = i + 1) {
                int k; int w = state;               // early consumer
                for (k = 0; k < 10; k = k + 1) { w = (w * 3 + k) & 1023; }
                OUT[i] = w;
                state = w;                           // late producer
              }
              return OUT[199];
            }
            """,
            "serial_chain",
        )
        helix = lp.evaluate("helix:reduc1-dep1-fn2")
        # The outer loop's state chain (late producer, early consumer) allows
        # at most a sliver of overlap — nothing like the 200x trip count.
        outer = helix.loops["main.for.cond1"]
        assert outer.speedup < 1.3
        assert helix.speedup < 3.5

    def test_memory_sync_formula(self, chain_kernel):
        # A[i] = A[i-1] + i: short producer->consumer distance; HELIX gains
        # a pipelining factor but nowhere near the trip count.
        result = chain_kernel.evaluate("helix:reduc0-dep0-fn2")
        assert 1.0 < result.speedup < 20

    def test_dep1_lowers_register_lcds(self):
        lp = Loopapalooza(
            """
            int OUT[300];
            int main() {
              int i;
              int x = 17;
              int sink = 0;
              for (i = 0; i < 300; i = i + 1) {
                x = (x * 1103515245 + 12345) & 2147483647;  // early
                int k; int w = 0;
                for (k = 0; k < 8; k = k + 1) { w = w + ((x >> k) & 15); }
                sink = sink + w;
                OUT[i] = w;
              }
              return sink & 32767;
            }
            """,
            "dep1",
        )
        dep0 = lp.evaluate("helix:reduc1-dep0-fn2")
        dep1 = lp.evaluate("helix:reduc1-dep1-fn2")
        # dep0: the outer loop's register LCD blocks it (inner loops may
        # still parallelize); dep1 lowers it to memory and pipelines it.
        outer0 = dep0.loops["main.for.cond1"]
        outer1 = dep1.loops["main.for.cond1"]
        assert not outer0.is_parallel
        assert "register-lcd" in outer0.reasons
        assert outer1.is_parallel
        assert dep1.speedup > 2 * dep0.speedup


class TestNestedPropagation:
    def test_inner_savings_shrink_outer_iterations(self):
        lp = Loopapalooza(
            """
            int A[40];
            int OUT[40];
            int main() {
              int t; int i;
              for (t = 1; t < 40; t = t + 1) {
                // outer chain: serial
                A[t] = A[t-1] + 1;
                // inner parallel work dominating the iteration
                for (i = 0; i < 40; i = i + 1) { OUT[i] = i * t; }
              }
              return A[39];
            }
            """,
            "nested",
        )
        result = lp.evaluate("pdoall:reduc0-dep0-fn2")
        # outer serial, inner parallel: most of each outer iteration vanishes
        assert result.speedup > 5
        outer = result.loops["main.for.cond1"]
        assert not outer.is_parallel

    def test_coverage_counts_outermost_parallel_region(self, reduction_kernel):
        result = reduction_kernel.evaluate("helix:reduc1-dep1-fn2")
        assert 0.5 < result.coverage <= 1.0

    def test_serial_program_has_zero_coverage(self, chain_kernel):
        result = chain_kernel.evaluate("pdoall:reduc0-dep0-fn2")
        assert result.coverage == pytest.approx(0.0, abs=0.01)


class TestEvaluationResultAccounting:
    def test_speedup_consistency(self, reduction_kernel):
        result = reduction_kernel.evaluate("helix:reduc1-dep1-fn2")
        assert result.speedup == pytest.approx(
            result.total_serial / result.total_parallel
        )

    def test_parallel_never_exceeds_serial(self, runner):
        from repro.bench import suite_programs
        from repro.core import paper_configurations

        for program in suite_programs("eembc")[:3]:
            for config in paper_configurations()[:6]:
                result = runner.evaluate(program, config)
                assert result.total_parallel <= result.total_serial + 1e-6

    def test_string_config_accepted(self, doall_kernel):
        by_string = doall_kernel.evaluate("helix:reduc1-dep1-fn2")
        by_object = doall_kernel.evaluate(LPConfig("helix", 1, 1, 2))
        assert by_string.speedup == pytest.approx(by_object.speedup)


class TestInnermostOnlyMode:
    """Related-work baseline (paper §V): Kejariwal-style innermost-only."""

    def test_outer_loops_serialized(self):
        lp = Loopapalooza(
            """
            int A[400];
            int main() {
              int i; int j;
              for (i = 0; i < 20; i = i + 1) {
                for (j = 0; j < 20; j = j + 1) { A[i*20+j] = i + j; }
              }
              return A[5];
            }
            """,
            "innermost",
        )
        nested = lp.evaluate("pdoall:reduc1-dep2-fn2")
        innermost = lp.evaluate("pdoall:reduc1-dep2-fn2", innermost_only=True)
        assert nested.speedup > innermost.speedup > 1.0
        outer = innermost.loops["main.for.cond1"]
        assert not outer.is_parallel
        assert "outer-loop" in outer.reasons

    def test_flat_loops_unaffected(self, doall_kernel):
        full = doall_kernel.evaluate("pdoall:reduc1-dep2-fn2")
        restricted = doall_kernel.evaluate(
            "pdoall:reduc1-dep2-fn2", innermost_only=True
        )
        assert restricted.speedup == pytest.approx(full.speedup)
