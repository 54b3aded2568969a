"""Function-call/continuation TLS estimator tests (paper §I extension)."""

import pytest

from repro.core import Loopapalooza, estimate_call_tls, format_call_tls

from helpers import on_all_backends


def report_for(source, name="calltls"):
    lp = Loopapalooza(source, name)
    return lp, lp.call_tls_report()


class TestDependenceDetection:
    def test_immediate_result_use_blocks_overlap(self):
        lp, report = report_for(
            """
            int heavy(int seed) {
              int k; int acc = seed;
              for (k = 0; k < 50; k = k + 1) { acc = (acc * 31 + k) & 32767; }
              return acc;
            }
            int main() {
              int i; int sum = 0;
              for (i = 0; i < 20; i = i + 1) {
                sum = sum + heavy(i);     // consumed immediately
              }
              return sum & 32767;
            }
            """
        )
        site = next(iter(report.sites.values()))
        assert site.calls == 20
        assert site.dependent_calls == 20
        assert site.hidden_fraction < 0.05
        assert report.speedup < 1.1

    def test_unused_result_with_independent_continuation_overlaps(self):
        lp, report = report_for(
            """
            int SCRATCH[64];
            int OUT[64];
            void produce(int i) {
              int k;
              for (k = 0; k < 30; k = k + 1) {
                SCRATCH[(i + k) & 63] = i * k;
              }
            }
            int main() {
              int i;
              int sum = 0;
              for (i = 0; i < 20; i = i + 1) {
                produce(i);
                // long continuation that never touches SCRATCH
                int k; int w = 0;
                for (k = 0; k < 40; k = k + 1) { w = w + ((i * k) & 15); }
                OUT[i & 63] = w;
                sum = sum + w;
              }
              return sum & 32767;
            }
            """
        )
        site = [s for s in report.sites.values() if "produce" in s.site_id][0]
        assert site.hidden_fraction > 0.8
        assert report.speedup > 1.2

    def test_memory_raw_into_continuation_detected(self):
        lp, report = report_for(
            """
            int BOX[8];
            void write_box(int v) { BOX[0] = v; }
            int main() {
              int i; int sum = 0;
              for (i = 0; i < 20; i = i + 1) {
                write_box(i * 3);
                sum = sum + BOX[0];      // immediate RAW on the callee write
                int k; int w = 0;
                for (k = 0; k < 30; k = k + 1) { w = w + k; }
                sum = sum + (w & 1);
              }
              return sum & 32767;
            }
            """
        )
        site = [s for s in report.sites.values() if "write_box" in s.site_id][0]
        assert site.dependent_calls == 20
        assert site.hidden_fraction < 0.6

    def test_a_write_two_calls_deep_reaches_the_outer_call(self):
        """A write goes to the innermost active call only; the calls around
        it inherit it when the inner ones end. So the continuation of
        ``outer`` depends on what ``leaf`` wrote, on every backend, and
        ``mid``'s continuation inside ``outer`` never reads it."""
        def sites(backend):
            lp = Loopapalooza(
                """
                int BOX[8];
                void leaf(int v) { BOX[1] = v; }
                void mid(int v) { leaf(v); }
                int outer(int v) { mid(v); return 5; }
                int main() {
                  int i; int sum = 0;
                  for (i = 0; i < 10; i = i + 1) {
                    outer(i);
                    sum = sum + BOX[1];
                  }
                  return sum;
                }
                """, "deep", backend=backend)
            return {site_id: summary.dependent_calls for site_id, summary
                    in lp.profile().call_sites.items()}

        assert on_all_backends(sites) == {
            "main@outer#0": 10, "outer@mid#0": 0, "mid@leaf#0": 0}

    def test_late_memory_dependence_allows_partial_overlap(self):
        lp, report = report_for(
            """
            int BOX[8];
            void write_box(int v) {
              int k;
              for (k = 0; k < 20; k = k + 1) { BOX[k & 7] = v + k; }
            }
            int main() {
              int i; int sum = 0;
              for (i = 0; i < 20; i = i + 1) {
                write_box(i);
                int k; int w = 0;                      // independent work...
                for (k = 0; k < 60; k = k + 1) { w = w + ((i + k) & 7); }
                sum = sum + w + BOX[2];                // ...then the RAW
              }
              return sum & 32767;
            }
            """
        )
        site = [s for s in report.sites.values() if "write_box" in s.site_id][0]
        assert site.dependent_calls == 20
        assert site.hidden_fraction > 0.5  # the dep lands late

    def test_intrinsic_calls_not_tracked(self):
        lp, report = report_for(
            """
            int main() {
              int i; int s = 0;
              for (i = 0; i < 10; i = i + 1) { s = s + hash_i32(i); }
              return s & 32767;
            }
            """
        )
        assert report.sites == {}
        assert report.speedup == pytest.approx(1.0)


class TestReportShape:
    SOURCE = """
    int A[64];
    int pure_fn(int x) { return (x * 7) & 1023; }
    int main() {
      int i; int s = 0;
      for (i = 0; i < 15; i = i + 1) {
        int r = pure_fn(i);
        A[i & 63] = i;
        s = s + r;
      }
      return s;
    }
    """

    def test_site_ids_name_caller_and_callee(self):
        lp, report = report_for(self.SOURCE)
        assert all(
            site_id.startswith("main@pure_fn#") for site_id in report.sites
        )

    def test_ranked_sites_sorted_by_saving(self):
        lp, report = report_for(self.SOURCE)
        ranked = report.ranked_sites()
        savings = [s.total_saving for s in ranked]
        assert savings == sorted(savings, reverse=True)

    def test_format_renders(self):
        lp, report = report_for(self.SOURCE)
        text = format_call_tls(report)
        assert "estimated limit speedup" in text
        assert "main@pure_fn#0" in text

    def test_call_coverage_bounded(self, runner):
        from repro.bench import suite_programs

        for program in suite_programs("eembc")[:3]:
            report = estimate_call_tls(runner.instance(program).profile())
            assert 0.0 <= report.call_coverage <= 1.0
            assert report.speedup >= 1.0

    def test_serialization_preserves_call_sites(self):
        from repro.runtime.serialize import profile_from_dict, profile_to_dict

        lp, report = report_for(self.SOURCE)
        rebuilt = profile_from_dict(profile_to_dict(lp.profile()))
        rebuilt_report = estimate_call_tls(rebuilt)
        assert rebuilt_report.speedup == pytest.approx(report.speedup)
        assert set(rebuilt_report.sites) == set(report.sites)

    def test_recursive_calls_do_not_crash(self):
        lp, report = report_for(
            """
            int fib(int n) { if (n < 2) { return n; } return fib(n-1) + fib(n-2); }
            int main() { return fib(12); }
            """
        )
        assert report.speedup >= 1.0
        assert any("fib@fib#" in site for site in report.sites)
