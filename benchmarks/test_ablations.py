"""Ablation benchmarks for the design choices DESIGN.md calls out:

1. HELIX multi-sync-point vs classic single-sync DOACROSS;
2. Partial-DOALL cut-off sensitivity (the paper's 80 % rule);
3. predictor ablation: each scheme alone vs perfect hybridization, on the
   register-LCD value streams recorded from the real suites.

Run: ``pytest benchmarks/test_ablations.py --benchmark-only -s``
"""

import pytest

from repro.bench import suite_programs
from repro.core import LPConfig
from repro.predictors import (
    FCMPredictor,
    LastValuePredictor,
    StridePredictor,
    TwoDeltaStridePredictor,
    accuracy,
    perfect_hybrid_accuracy,
)
from repro.reporting import geomean
from repro.runtime.cost_models import doacross_cost, helix_cost

from conftest import publish


class TestHelixVsDoacross:
    def test_multi_sync_beats_single_sync(self, benchmark, artifact_dir):
        """HELIX generalizes DOACROSS with one sync per LCD; with one early
        and one late LCD the single sync must cover the whole span."""

        def sweep():
            rows = []
            iter_costs = [50.0] * 64
            for late_gap in (2.0, 10.0, 20.0, 40.0):
                producers = [5.0, 5.0 + late_gap]
                consumers = [3.0, 3.0 + late_gap]
                helix_delta = 2.0  # each LCD has skew 2 under per-LCD sync
                helix = helix_cost(iter_costs, helix_delta)
                doacross = doacross_cost(iter_costs, producers, consumers)
                rows.append((late_gap, helix.cost, doacross.cost))
            return rows

        rows = benchmark(sweep)
        lines = ["Ablation — HELIX (per-LCD sync) vs single-sync DOACROSS",
                 f"{'LCD span':>10s}{'HELIX':>12s}{'DOACROSS':>12s}"]
        for gap, helix_val, doacross_val in rows:
            lines.append(f"{gap:>10.0f}{helix_val:>12.0f}{doacross_val:>12.0f}")
        publish(artifact_dir, "ablation_doacross.txt", "\n".join(lines))
        for _, helix_val, doacross_val in rows:
            assert helix_val <= doacross_val


class TestPdoallThreshold:
    def test_cutoff_sensitivity(self, benchmark, runner, artifact_dir):
        """Sweep the 80 % conflicting-iteration cut-off and measure the
        non-numeric geomean at the best realistic PDOALL configuration."""
        import repro.runtime.cost_models as models

        config = LPConfig("pdoall", 1, 2, 2)
        programs = suite_programs("specint2006")

        def sweep():
            results = []
            original = models.PDOALL_SERIAL_THRESHOLD
            try:
                for threshold in (0.2, 0.5, 0.8, 0.95):
                    models.PDOALL_SERIAL_THRESHOLD = threshold
                    speedups = []
                    for program in programs:
                        lp = runner.instance(program)
                        # bypass the per-instance cache: fresh evaluation
                        from repro.core.evaluator import evaluate_config

                        result = evaluate_config(
                            lp.profile(), lp.static_info, config
                        )
                        speedups.append(result.speedup)
                    results.append((threshold, geomean(speedups)))
            finally:
                models.PDOALL_SERIAL_THRESHOLD = original
            return results

        rows = benchmark.pedantic(sweep, rounds=1, iterations=1)
        lines = ["Ablation — PDOALL serial cut-off sensitivity (specint2006, "
                 "reduc1-dep2-fn2)",
                 f"{'cutoff':>8s}{'geomean speedup':>18s}"]
        for threshold, value in rows:
            lines.append(f"{threshold:>8.2f}{value:>17.2f}x")
        publish(artifact_dir, "ablation_pdoall_cutoff.txt", "\n".join(lines))
        values = [value for _, value in rows]
        assert values == sorted(values), "harsher cut-offs must not help"
        # The paper's 0.8 sits on the flat part of the curve.
        assert values[2] == pytest.approx(values[3], rel=0.2)


class TestPredictorAblation:
    def test_each_predictor_alone_vs_hybrid(self, benchmark, runner, artifact_dir):
        """Measure per-scheme accuracy on the actual register-LCD value
        streams recorded while profiling the SPEC-like suites."""

        def collect_streams():
            streams = []
            for suite in ("specint2000", "specfp2000"):
                for program in suite_programs(suite):
                    profile = runner.instance(program).profile()
                    for invocation in profile.all_invocations():
                        for values in invocation.lcd_values.values():
                            if len(values) >= 8:
                                streams.append(values[:512])
            return streams

        streams = collect_streams()
        assert streams, "suites must expose register-LCD streams"

        def measure():
            schemes = {
                "last-value": LastValuePredictor,
                "stride": StridePredictor,
                "2-delta": TwoDeltaStridePredictor,
                "fcm": lambda: FCMPredictor(order=2),
            }
            rows = {}
            for name, factory in schemes.items():
                scores = [accuracy(factory(), values) for values in streams]
                rows[name] = sum(scores) / len(scores)
            hybrid_scores = [perfect_hybrid_accuracy(v) for v in streams]
            rows["perfect-hybrid"] = sum(hybrid_scores) / len(hybrid_scores)
            return rows

        rows = benchmark(measure)
        lines = [
            "Ablation — value-predictor accuracy on recorded LCD streams "
            f"({len(streams)} streams)",
            f"{'scheme':>16s}{'mean accuracy':>16s}",
        ]
        for name, value in rows.items():
            lines.append(f"{name:>16s}{value * 100:>15.1f}%")
        publish(artifact_dir, "ablation_predictors.txt", "\n".join(lines))
        hybrid = rows.pop("perfect-hybrid")
        assert all(hybrid >= value - 1e-9 for value in rows.values())
