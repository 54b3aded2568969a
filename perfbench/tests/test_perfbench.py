"""Tests of the benchmark's own code: ``python3 -m pytest perfbench/tests``."""

from __future__ import annotations

import copy
import hashlib
import json
import pathlib
import shutil
import subprocess
import sys

import pytest

from perfbench import run, worker, workloads
from perfbench.tracing import Tracer
from repro.core.framework import Loopapalooza
from repro.runtime.serialize import profile_to_dict

ROOT = pathlib.Path(__file__).resolve().parents[2]

SOURCE = """
int A[256];

int main() {
  int i;
  int s = 0;
  for (i = 0; i < 256; i = i + 1) { A[i] = (i * 7) & 63; }
  for (i = 1; i < 256; i = i + 1) { A[i] = A[i - 1] + A[i]; }
  for (i = 0; i < 256; i = i + 1) { s = s + A[i]; }
  return s & 65535;
}
"""


def _profile_digest(backend):
    lp = Loopapalooza(SOURCE, name="transparency", backend=backend)
    text = json.dumps(profile_to_dict(lp.profile()), sort_keys=True)
    return hashlib.sha256(text.encode()).hexdigest(), lp.output


@pytest.mark.parametrize("backend", ["closure", "vec"])
def test_wrappers_are_transparent(backend):
    untraced = _profile_digest(backend)
    tracer = Tracer()
    tracer.install()
    try:
        traced = _profile_digest(backend)
    finally:
        tracer.uninstall()
    assert traced == untraced
    assert tracer.missing == []
    metrics = tracer.layer_metrics()
    assert metrics["frontend.modules"] == 1
    assert metrics["recorder.calls"] > 0
    assert metrics["recorder.mem_events"] > 0
    assert metrics["interp.ir_instructions"] > 0
    from repro.frontend import codegen
    from repro.runtime.recorder import ProfilingRuntime

    assert not hasattr(codegen.compile_source, "__wrapped__")
    assert not hasattr(ProfilingRuntime.mem_batch, "__wrapped__")


def test_missing_entry_points_are_listed_not_fatal(monkeypatch):
    from perfbench import tracing

    monkeypatch.setattr(tracing, "_ENTRY_POINTS", tracing._ENTRY_POINTS + (
        ("repro.frontend.codegen", "no_such_function", "frontend", None),
        ("repro.no_such_module", "no_such_function", "frontend", None),
    ))
    tracer = Tracer()
    tracer.install()
    tracer.uninstall()
    assert tracer.missing == ["repro.frontend.codegen.no_such_function",
                              "repro.no_such_module.no_such_function"]


def test_planted_digest_mismatch_is_counted():
    expected = workloads.load_expected()
    assert workloads.check_paper(expected, expected) == []
    observed = copy.deepcopy(expected)
    planted = sorted(observed["programs"])[0]
    observed["programs"][planted]["profile_sha256"] = "0" * 64
    observed["sections"]["Figure 2"] = "0" * 64
    failures = workloads.check_paper(observed, expected)
    assert [operation for operation, _ in failures] == [planted, "figures"]
    attempted = len(expected["programs"]) + 1
    failed = worker.failed_operations(attempted, failures, None)
    assert failed == 2
    assert run.tally([{"attempted": attempted, "failed": failed}]) == (
        attempted, 2)
    assert worker.failed_operations(attempted, [], "Traceback") == attempted


def test_metric_names_match_benchmark_json():
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    produced = set(Tracer().layer_metrics()) | {
        "interp.plain_s", "recorder.overhead_x", "trace.overhead_frac"}
    assert produced == {entry["name"] for entry in spec["per_layer"]}
    assert {entry["name"] for entry in spec["end_to_end"]} == {
        "wall_s", "setup_s", "peak_rss_mb"}
    assert [entry["name"] for entry in spec["workloads"]] == list(
        run.WORKLOADS)


def test_fuzz_reps_are_private_and_repeat_exactly(tmp_path, monkeypatch):
    home = tmp_path / "home"
    home.mkdir()
    monkeypatch.setenv("HOME", str(home))
    run_dir = tmp_path / "run"
    run_dir.mkdir()
    untraced = run.run_rep("fuzz_oracle", 3, run_dir)
    first = run.run_rep("fuzz_oracle", 3, run_dir, trace=True)
    second = run.run_rep("fuzz_oracle", 3, run_dir, trace=True)
    for rep in (untraced, first, second):
        assert "error" not in rep, rep.get("error")
        assert rep["failed"] == 0, rep["failures"]
    assert first["digests"] == untraced["digests"]

    def counts(rep):
        return {name: value for name, value in rep["layers"].items()
                if isinstance(value, int)}

    assert counts(first) == counts(second)
    assert counts(first)["fuzz.programs"] == len(workloads.fuzz_programs(3))
    assert not (home / ".cache").exists()
    assert list(run_dir.iterdir()) == []


def test_refuses_to_run_without_the_program(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(ROOT / "perfbench", tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("tmp", "out", "__pycache__"))
    proc = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", "fuzz_oracle",
         "--seed", "0", "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=60,
    )
    assert proc.returncode != 0
    assert proc.stdout == ""
