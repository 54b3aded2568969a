"""The instrumentation planner — Loopapalooza's compile-time component.

Builds one :class:`~repro.interp.interpreter.FunctionInstrumentation` per
defined function, from the static classification:

* **loop edges** — entry (preheader->header), iteration (latch->header), and
  every exit edge, fired in exits-innermost-first order when one CFG edge
  leaves several loops at once;
* **register-LCD tracking** for every non-computable header phi (reductions
  included — they are non-computable LCDs under ``reduc0`` and their value
  streams feed the ``dep2`` predictors): the latch-incoming value is shipped
  with each iteration event, its producing definition is def-hooked, and
  every user of the phi is use-hooked.

Computable phis are filtered out here — the paper's point that compile-time
analysis minimizes run-time tracking overhead.
"""

from __future__ import annotations

from ..interp.interpreter import FunctionInstrumentation
from ..ir.instructions import Instruction
from .static_info import PHI_COMPUTABLE, phi_key_for

#: Bump whenever the instrumentation plan (what gets hooked, event
#: ordering, timestamp conventions) or the runtime's reading of its events
#: changes: recorded profiles depend on both, so the persistent profile
#: cache keys on this number.
INSTRUMENTATION_VERSION = 2


def build_instrumentation(static_info):
    """Return ``{function_name: FunctionInstrumentation}`` for a module."""
    plans = {}
    for function in static_info.module.defined_functions():
        plan = _plan_function(function, static_info)
        if not plan.is_empty:
            plans[function.name] = plan
    return plans


def _plan_function(function, static_info):
    plan = FunctionInstrumentation()
    loop_info = static_info.loop_infos[function.name]
    cfg = loop_info.cfg

    def add_action(pred, succ, kind, loop, priority):
        key = (id(pred), id(succ))
        plan.edge_actions.setdefault(key, []).append((priority, kind, loop.loop_id))

    # Collect per-edge actions with sortable priorities: exits first
    # (innermost loop first), then iteration, then entry.
    for loop in loop_info.loops_in_postorder():  # innermost first
        static = static_info.loops[loop.loop_id]
        if not static.trackable:
            continue
        preheader = loop.preheader(cfg)
        latch = loop.single_latch()
        add_action(preheader, loop.header, "enter", loop, (2, loop.depth))
        add_action(latch, loop.header, "iter", loop, (1, 0))
        for inside, outside in loop.exit_edges(cfg):
            add_action(inside, outside, "exit", loop, (0, -loop.depth))

        # Register-LCD tracking for non-computable phis (incl. reductions).
        latch_specs = []
        for position, phi in enumerate(loop.header.phis()):
            key = phi_key_for(loop.loop_id, position, phi)
            if static.phi_classes.get(key, PHI_COMPUTABLE) == PHI_COMPUTABLE:
                continue
            latch_value = phi.incoming_for_block(latch)
            latch_specs.append((key, latch_value))
            if isinstance(latch_value, Instruction):
                plan.def_hooks.setdefault(id(latch_value), []).append(
                    (loop.loop_id, key)
                )
            for user in phi.users():
                if user is phi:
                    continue
                plan.use_hooks.setdefault(id(user), []).append(
                    (loop.loop_id, key)
                )
        if latch_specs:
            plan.latch_values[(id(latch), id(loop.header))] = latch_specs

    # Sort each edge's actions by priority and strip the sort key.
    plan.edge_actions = {
        key: [(kind, loop_id) for _, kind, loop_id in sorted(actions)]
        for key, actions in plan.edge_actions.items()
    }

    _plan_call_sites(function, plan)
    return plan


def _plan_call_sites(function, plan):
    """Instrument every direct call to a *defined* user function for the
    call/continuation TLS estimator: the call itself (start/end) and every
    instruction consuming its return value (a continuation dependence)."""
    from ..ir.instructions import Call

    counter = 0
    for block in function.blocks:
        for instruction in block.instructions:
            if not isinstance(instruction, Call):
                continue
            callee = instruction.callee
            if callee.is_intrinsic or callee.is_declaration:
                continue
            site_id = f"{function.name}@{callee.name}#{counter}"
            counter += 1
            plan.call_sites[id(instruction)] = site_id
            for user in instruction.users():
                plan.call_use_hooks.setdefault(id(user), []).append(site_id)
