"""Shared fixtures for the test suite.

Profiling all 48 benchmarks takes ~10 s, so the suite runner and a few
commonly-reused compiled kernels are session-scoped.
"""

from __future__ import annotations

import pytest
from hypothesis import settings

from repro.bench.suites import SuiteRunner
from repro.core.framework import Loopapalooza

# One shared hypothesis profile for the whole suite — individual test
# files must not re-declare deadline/derandomize in per-test ``settings``
# (a per-test ``max_examples`` override is fine). ``deadline=None``
# because compile+profile examples legitimately take tens of
# milliseconds; derandomized by default so the suite replays the same
# example corpus on every run. Opt into fresh random exploration with
# hypothesis's own option: ``pytest --hypothesis-profile=repro-explore``
# (pytest loads this file before the plugin applies the option).
settings.register_profile("repro-ci", deadline=None, derandomize=True)
settings.register_profile("repro-explore", deadline=None,
                          derandomize=False)
settings.load_profile("repro-ci")


@pytest.fixture(scope="session")
def runner():
    """A shared SuiteRunner so benchmark profiles are computed once."""
    return SuiteRunner()


@pytest.fixture(scope="session")
def doall_kernel():
    """A trivially parallel loop (calls a pure intrinsic)."""
    return Loopapalooza(
        """
        int N = 120;
        int A[120];
        int main() {
          int i;
          for (i = 0; i < N; i = i + 1) { A[i] = hash_i32(i); }
          return A[7] & 255;
        }
        """,
        "doall_kernel",
    )


@pytest.fixture(scope="session")
def chain_kernel():
    """A frequent memory-LCD loop (A[i] depends on A[i-1])."""
    return Loopapalooza(
        """
        int N = 120;
        int A[120];
        int main() {
          int i;
          A[0] = 1;
          for (i = 1; i < N; i = i + 1) { A[i] = A[i-1] + i; }
          return A[119] & 65535;
        }
        """,
        "chain_kernel",
    )


@pytest.fixture(scope="session")
def reduction_kernel():
    """A reduction-bound loop plus an independent producer loop."""
    return Loopapalooza(
        """
        int N = 150;
        float X[150];
        float S = 0.0;
        int main() {
          int i;
          float acc = 0.0;
          for (i = 0; i < N; i = i + 1) { X[i] = noise_f64(i); }
          for (i = 0; i < N; i = i + 1) { acc = acc + X[i]; }
          S = acc;
          return (int)(acc * 8.0);
        }
        """,
        "reduction_kernel",
    )
