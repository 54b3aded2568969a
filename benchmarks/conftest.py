"""Shared fixtures for the table and ablation harnesses.

Figures 2-5 come from ``python -m repro figures``; these harnesses cover
Fig. 1, Tables I-II (with the dynamic census), the ablations and the
related-work comparisons. They are plain tests, run with
``pytest benchmarks/ -q``, and time nothing: perfbench is the one timing
harness. The 48 synthetic benchmarks are profiled once per test run and
shared. Each harness also writes its regenerated table under
``benchmarks/out/`` (ignored by git) so the artifacts survive without
``-s``.
"""

from __future__ import annotations

import pathlib

import pytest

from repro.bench.suites import SuiteRunner

OUT_DIR = pathlib.Path(__file__).parent / "out"


@pytest.fixture(scope="session")
def runner():
    return SuiteRunner()


@pytest.fixture(scope="session")
def artifact_dir():
    OUT_DIR.mkdir(exist_ok=True)
    return OUT_DIR


def publish(artifact_dir, name, text):
    """Print a regenerated table and save it under benchmarks/out/."""
    print()
    print(text)
    (artifact_dir / name).write_text(text + "\n")
