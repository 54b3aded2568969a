"""Parallel execution cost models: DOALL, Partial-DOALL, HELIX (paper §III-B).

All three consume the *effective* per-iteration costs of one loop invocation
(raw iteration spans with inner-loop parallel savings already subtracted) and
the manifesting-LCD observations, and return a :class:`ModelOutcome` with the
loop's parallel execution cost, or the serial cost if the model rejects the
loop.

Semantics, straight from the paper:

* **DOALL** — any manifesting LCD makes the loop serial; otherwise the loop
  costs its slowest iteration.
* **Partial-DOALL** — conflicting iterations split execution into phases;
  each phase costs its slowest iteration and the conflicting iteration
  restarts at the end of the previous phase. If more than
  ``PDOALL_SERIAL_THRESHOLD`` (80 %) of iterations conflict, the loop is
  serial.
* **HELIX** — ``cost = iter_slowest + delta_largest * num_iter`` where
  ``delta_largest`` is the largest per-iteration producer->consumer skew over
  every manifesting LCD; if the result is not below the serial cost the loop
  is marked serial.
"""

from __future__ import annotations

import numpy as np

PDOALL_SERIAL_THRESHOLD = 0.80


class ModelOutcome:
    """Result of applying one execution model to one loop invocation."""

    __slots__ = ("cost", "parallel", "reason")

    def __init__(self, cost, parallel, reason=""):
        self.cost = cost
        self.parallel = parallel
        self.reason = reason

    def __repr__(self):
        state = "parallel" if self.parallel else f"serial({self.reason})"
        return f"<ModelOutcome {state} cost={self.cost:.0f}>"


def serial_outcome(iter_costs, reason, serial=None):
    """``serial`` lets callers that already summed the array skip the
    re-sum; the value is identical either way."""
    if serial is None:
        serial = float(np.sum(iter_costs)) if len(iter_costs) else 0.0
    return ModelOutcome(serial, False, reason)


def doall_cost(iter_costs, has_any_conflict, serial=None):
    """DOALL: all iterations start together; a single conflict aborts."""
    if len(iter_costs) == 0:
        return ModelOutcome(0.0, True)
    if has_any_conflict:
        return serial_outcome(iter_costs, "conflict", serial)
    return ModelOutcome(float(np.max(iter_costs)), True)


def pdoall_phase_breaks(conflict_pairs, n):
    """Phase boundaries under Partial-DOALL restart semantics.

    ``conflict_pairs`` maps consumer iteration -> latest producer iteration.
    All iterations of a phase start together; a RAW from producer ``w`` to
    consumer ``c`` aborts ``c`` (and starts a new phase there) only when
    ``w`` is in the *same* phase — once a phase break separates them, the
    producer committed before the consumer started and the read is
    satisfied. Returns the sorted break positions.
    """
    breaks = []
    phase_start = 0
    for consumer in sorted(conflict_pairs):
        if not 0 < consumer < n:
            continue
        producer = conflict_pairs[consumer]
        if producer >= phase_start:
            breaks.append(consumer)
            phase_start = consumer
    return breaks


def pdoall_cost(iter_costs, breaks, serial=None, conflicts=None):
    """Partial-DOALL phase simulation over precomputed phase breaks.

    ``conflicts`` is the number of *conflicting iterations* — the quantity
    the paper's 80 % serial cutoff is defined on. It can exceed
    ``len(breaks)``: a conflict whose producer committed in an earlier
    phase is absorbed (no restart, no break) but still counts against the
    threshold. Callers that only know the breaks may omit it, in which
    case the break count is used as a lower bound.
    """
    n = len(iter_costs)
    if n == 0:
        return ModelOutcome(0.0, True)
    if conflicts is None:
        conflicts = len(breaks)
    if conflicts / n > PDOALL_SERIAL_THRESHOLD:
        return serial_outcome(iter_costs, "conflict-rate", serial)
    if breaks:
        # Segment maxima over [0, b1), [b1, b2), ..., [bm, n).
        costs = np.asarray(iter_costs, dtype=float)
        starts = np.concatenate(([0], np.asarray(breaks, dtype=int)))
        total = float(np.sum(np.maximum.reduceat(costs, starts)))
    else:
        total = float(np.max(np.asarray(iter_costs, dtype=float)))
    if serial is None:
        serial = float(np.sum(np.asarray(iter_costs, dtype=float)))
    if total >= serial:
        return serial_outcome(iter_costs, "no-gain", serial)
    return ModelOutcome(total, True)


def helix_cost(iter_costs, delta_largest, serial=None):
    """HELIX-style synchronized execution.

    ``delta_largest`` is the largest per-iteration producer->consumer skew
    over all manifesting LCDs (memory and, per configuration, lowered or
    mispredicted register LCDs), in IR instructions.
    """
    n = len(iter_costs)
    if n == 0:
        return ModelOutcome(0.0, True)
    cost = float(np.max(iter_costs)) + float(delta_largest) * n
    if serial is None:
        serial = float(np.sum(iter_costs))
    if cost >= serial:
        return serial_outcome(iter_costs, "sync-bound", serial)
    return ModelOutcome(cost, True)


def doacross_cost(iter_costs, producer_offsets, consumer_offsets):
    """Classic single-sync-point DOACROSS (for the ablation benchmark).

    With only one synchronization point the wait must cover the *span* from
    the earliest consumer to the latest producer: effectively
    ``delta = max_producer_off - min_consumer_off`` per iteration.
    """
    n = len(iter_costs)
    if n == 0:
        return ModelOutcome(0.0, True)
    if not producer_offsets:
        return ModelOutcome(float(np.max(iter_costs)), True)
    delta = max(0.0, max(producer_offsets) - min(consumer_offsets))
    return helix_cost(iter_costs, delta)
