"""Per-loop reports must be byte-identical across interpreter hash seeds.

The advisor's evidence lines (every reason a dependence verdict gives)
and the crosscheck's joins are built from stable names only — never from
``id()`` values, hashes, or set iteration order. These tests run the
real CLI in subprocesses with different ``PYTHONHASHSEED`` values and
require the outputs to match byte for byte.
"""

import os
import subprocess
import sys
import tempfile

import pytest

from repro.bench import find_program

REPO_SRC = os.path.join(os.path.dirname(__file__), os.pardir, "src")

# A program with material for every layer: an UNKNOWN verdict (the
# advisor prints its reason as a `blocked:` line), a proven LCD with real
# dynamic conflicts, and a clean DOALL loop.
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
    def test_advise_loops_identical_across_seeds(self, demo_file):
        code0, out0 = run_cli(["advise", "--loops", demo_file], seed=0)
        code1, out1 = run_cli(["advise", "--loops", demo_file], seed=1)
        assert code0 == code1 == 0
        assert "blocked:" in out0
        assert out0 == out1

    def test_crosscheck_output_identical_across_seeds(self, demo_file):
        code0, out0 = run_cli(["crosscheck", "--loops", demo_file], seed=0)
        code1, out1 = run_cli(["crosscheck", "--loops", demo_file], seed=1)
        assert code0 == code1 == 0
        assert "confirmed-lcd" in out0
        assert out0 == out1

    def test_advise_bench_identical_across_seeds(self, tmp_path):
        # Several reasons block one loop here; all of them must print in
        # the same order under every seed.
        path = tmp_path / "viterbi_like.c"
        path.write_text(find_program("eembc/viterbi_like").source)
        arguments = ["advise", "--loops", str(path)]
        code0, out0 = run_cli(arguments, seed=7)
        code1, out1 = run_cli(arguments, seed=4242)
        assert code0 == code1 == 0
        assert out0.count("blocked:") > 1
        assert out0 == out1
