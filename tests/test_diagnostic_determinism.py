"""Diagnostics must be byte-identical across interpreter hash seeds.

Checker messages are built from stable names only — never from ``id()``
values, hashes, or set iteration order. These tests run the real CLI in
subprocesses with different ``PYTHONHASHSEED`` values and require the
outputs to match byte for byte.
"""

import os
import subprocess
import sys
import tempfile

import pytest

REPO_SRC = os.path.join(os.path.dirname(__file__), os.pardir, "src")

# A program with material for every layer: an UNKNOWN verdict (LP204),
# a proven LCD with real dynamic conflicts, and a clean DOALL loop.
DEMO = """
int A[128]; int B[64];
int main() {
  int i;
  A[0] = 3;
  for (i = 1; i < 64; i = i + 1) { A[i] = A[i-1] + i; }
  for (i = 0; i < 63; i = i + 1) { A[2*i] = A[i] + 1; }
  for (i = 0; i < 64; i = i + 1) { B[i] = A[i] * 2; }
  return B[63];
}
"""


def run_cli(arguments, seed, extra_env=None):
    env = dict(os.environ)
    env["PYTHONHASHSEED"] = str(seed)
    env["PYTHONPATH"] = REPO_SRC
    if extra_env:
        env.update(extra_env)
    # A private, empty cache per run: both runs must agree on freshly
    # computed results, not on a shared cache entry.
    with tempfile.TemporaryDirectory() as cache:
        env["REPRO_CACHE_DIR"] = cache
        completed = subprocess.run(
            [sys.executable, "-m", "repro", *arguments],
            capture_output=True, text=True, env=env, timeout=300)
    return completed.returncode, completed.stdout


@pytest.fixture(scope="module")
def demo_file(tmp_path_factory):
    path = tmp_path_factory.mktemp("determinism") / "demo.c"
    path.write_text(DEMO)
    return str(path)


class TestHashSeedIndependence:
    def test_lint_output_identical_across_seeds(self, demo_file):
        code0, out0 = run_cli(["lint", demo_file], seed=0)
        code1, out1 = run_cli(["lint", demo_file], seed=1)
        assert code0 == code1 == 0
        assert "LP204" in out0
        assert out0 == out1

    def test_crosscheck_output_identical_across_seeds(self, demo_file):
        code0, out0 = run_cli(["crosscheck", "--loops", demo_file], seed=0)
        code1, out1 = run_cli(["crosscheck", "--loops", demo_file], seed=1)
        assert code0 == code1 == 0
        assert "confirmed-lcd" in out0
        assert out0 == out1

    def test_lint_bench_identical_across_seeds(self):
        arguments = ["lint", "--bench", "eembc/viterbi_like"]
        code0, out0 = run_cli(arguments, seed=7)
        code1, out1 = run_cli(arguments, seed=4242)
        assert code0 == code1 == 0
        assert out0 == out1
