"""Snapshot-analysis invalidation.

:class:`~repro.analysis.cfg.CFG` and
:class:`~repro.analysis.loop_info.LoopInfo` are immutable snapshots of a
function's control flow. Historically nothing stopped a caller from keeping
one across a CFG-mutating pass and silently reading blocks that no longer
exist. Every snapshot now registers itself with its function on
construction (``Function.snapshots``, a weak set); the pass manager calls
:func:`invalidate_module_analyses` at every stage boundary, after which any
query against a stale snapshot raises
:class:`~repro.errors.StaleAnalysisError`.

Invalidation visits only the snapshots of the module or function it is
given, so compiling one program never touches the snapshots other
programs' modules still hold.
"""

from __future__ import annotations

import weakref

from ..errors import StaleAnalysisError


def register_snapshot(analysis):
    """Track a newly built snapshot with its function for invalidation."""
    function = analysis.function
    if function.snapshots is None:
        function.snapshots = weakref.WeakSet()
    function.snapshots.add(analysis)


def invalidate_module_analyses(module=None, function=None):
    """Mark the CFG/LoopInfo snapshots of ``function``, or of every function
    of ``module``, stale.

    A stale snapshot never becomes fresh again, so the function stops
    tracking it.
    """
    owners = (function,) if function is not None else module.functions.values()
    for owner in owners:
        if owner.snapshots is not None:
            for analysis in owner.snapshots:
                analysis._stale = True
            owner.snapshots = None


def check_fresh(analysis, kind):
    """Raise :class:`StaleAnalysisError` if ``analysis`` was invalidated."""
    if analysis._stale:
        raise StaleAnalysisError(
            f"stale {kind} snapshot for function '{analysis.function.name}' "
            f"queried after a CFG-mutating pass; rebuild the analysis instead "
            f"of reusing it"
        )
