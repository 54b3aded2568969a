"""Fig. 1 counterpart: execution-model micro-benchmarks.

Fig. 1 in the paper is a semantics diagram (DOALL / Partial-DOALL /
DOACROSS-HELIX timelines). Its executable counterpart here drives the three
cost models over a canonical conflict timeline and checks the relative
outcomes the diagram depicts.

Run: ``pytest benchmarks/test_fig1_models.py -s``
"""

from repro.runtime.cost_models import (
    doall_cost,
    helix_cost,
    pdoall_cost,
    pdoall_phase_breaks,
)

from conftest import publish

# The Fig. 1 scenario: four iterations, one LCD from iteration 1 -> 2.
ITER_COSTS = [100, 110, 105, 100]
CONFLICT_PAIRS = {2: 1}
EARLY_SKEW = 10.0   # producer shortly after the consumer point


def run_models():
    doall = doall_cost(ITER_COSTS, has_any_conflict=True)
    breaks = pdoall_phase_breaks(CONFLICT_PAIRS, len(ITER_COSTS))
    pdoall = pdoall_cost(ITER_COSTS, breaks)
    helix = helix_cost(ITER_COSTS, EARLY_SKEW)
    return doall, pdoall, helix


def test_fig1_execution_models(artifact_dir):
    doall, pdoall, helix = run_models()
    serial = sum(ITER_COSTS)
    lines = [
        "Fig. 1 (reproduced) — execution-model semantics on one timeline",
        f"  iterations: {ITER_COSTS}, LCD 1->2, early-resolving skew {EARLY_SKEW}",
        f"  serial          : {serial}",
        f"  DOALL           : {doall.cost:.0f} ({'parallel' if doall.parallel else 'serial: ' + doall.reason})",
        f"  Partial-DOALL   : {pdoall.cost:.0f} (one restart phase)",
        f"  HELIX           : {helix.cost:.0f} (sync every iteration)",
    ]
    publish(artifact_dir, "fig1_models.txt", "\n".join(lines))
    # Fig. 1 ordering: DOALL aborts (serial); PDOALL pays one phase;
    # HELIX overlaps everything but pays the per-iteration skew.
    assert not doall.parallel and doall.cost == serial
    assert pdoall.parallel and max(ITER_COSTS) < pdoall.cost < serial
    assert helix.parallel
    assert helix.cost == max(ITER_COSTS) + EARLY_SKEW * len(ITER_COSTS)
    assert helix.cost < pdoall.cost  # with early skew, sync wins here
