"""Regenerates paper Table II as a legality/behaviour matrix: every flag
combination, its validity, and its observed effect on a probe kernel.

Run: ``pytest benchmarks/test_table2_configs.py -s``
"""

import itertools

from repro.core import LPConfig, Loopapalooza
from repro.errors import ConfigError

from conftest import publish

PROBE = """
float OUT = 0.0;
float X[120];
int main() {
  int i;
  float acc = 0.0;
  float drift = 0.5;
  for (i = 0; i < 120; i = i + 1) { X[i] = noise_f64(i); }
  for (i = 0; i < 120; i = i + 1) {
    acc = acc + X[i];              // reduction (reducX)
    drift = drift + 0.25;          // predictable register LCD (depX)
    X[i] = X[i] * drift + sqrt(X[i]);  // pure intrinsic call (fnX)
  }
  OUT = acc;
  return (int)(acc * 4.0);
}
"""


def sweep_full_matrix():
    lp = Loopapalooza(PROBE, "table2_probe")
    rows = []
    for model, reduc, dep, fn in itertools.product(
        ("doall", "pdoall", "helix"), (0, 1), (0, 1, 2, 3), (0, 1, 2, 3)
    ):
        try:
            config = LPConfig(model, reduc, dep, fn)
        except ConfigError:
            rows.append((f"{model}:reduc{reduc}-dep{dep}-fn{fn}", None))
            continue
        rows.append((config.name, lp.evaluate(config).speedup))
    return rows


def test_table2_configuration_matrix(artifact_dir):
    rows = sweep_full_matrix()
    lines = ["Table II (reproduced) — full flag matrix on the probe kernel",
             f"{'configuration':30s}{'speedup':>12s}"]
    for name, speedup in rows:
        rendered = "invalid" if speedup is None else f"{speedup:.2f}x"
        lines.append(f"{name:30s}{rendered:>12s}")
    publish(artifact_dir, "table2_configs.txt", "\n".join(lines))

    by_name = dict(rows)
    # DOALL rejects dep1-3 (paper: incompatible).
    assert by_name["doall:reduc0-dep1-fn0"] is None
    # Monotonicity along each axis on the probe.
    assert by_name["pdoall:reduc1-dep2-fn2"] >= by_name["pdoall:reduc0-dep2-fn2"]
    assert by_name["pdoall:reduc1-dep2-fn2"] >= by_name["pdoall:reduc1-dep0-fn2"]
    assert by_name["pdoall:reduc1-dep2-fn2"] >= by_name["pdoall:reduc1-dep2-fn0"]
