"""ProfilingRuntime — the run-time component of Loopapalooza (§III-B).

Receives the instrumentation callbacks from the interpreter and records
one :class:`~repro.runtime.profile.LoopInvocation` node per loop
invocation, which :meth:`ProfilingRuntime.finish` flattens once into the
columnar :class:`~repro.runtime.profile.ProgramProfile`:

* maintains the dynamic loop-invocation stack (properly nested; early
  function returns force-exit the invocations of that frame);
* tracks cross-iteration memory RAW dependencies per active invocation with
  cactus-stack privatization (accesses to storage born inside the current
  iteration of an invocation are iteration-private for it);
* records register-LCD latch values and producer/consumer offsets for the
  tracked (non-computable) header phis.
"""

from __future__ import annotations

from ..errors import FrameworkError
from .call_records import CallRecord, CallSiteSummary
from .profile import LoopInvocation, ProgramProfile


class _ActiveLoop:
    """Stack entry: the invocation, its entry index, and its live tracking
    state."""

    __slots__ = ("invocation", "index", "last_write", "last_def_ts",
                 "first_use_off")

    def __init__(self, invocation, index):
        self.invocation = invocation
        self.index = index
        self.last_write = {}     # addr -> (iter_idx, ts)
        self.last_def_ts = {}    # phi_key -> ts (most recent producer def)
        self.first_use_off = {}  # phi_key -> offset within current iteration


class ProfilingRuntime:
    """Implements the interpreter's callback interface and owns the profile."""

    def __init__(self, name="program"):
        self.name = name
        self.invocations = []       # LoopInvocation list, in entry order
        self.parents = []           # entry index of each one's parent, or -1
        self.stack = []             # list[_ActiveLoop]
        self.frame_markers = []     # loop-stack depth at each function entry
        self.by_loop = {}           # loop_id -> list[_ActiveLoop] (recursion-safe)
        self.machine = None
        # Function-call/continuation TLS tracking (paper §I extension).
        self.call_summaries = {}    # site_id -> CallSiteSummary
        self.active_calls = []      # CallRecord stack (user calls in flight)
        self.pending_calls = {}     # frame depth -> last completed CallRecord

    def attach(self, machine):
        """Give the runtime access to the interpreter (cost counter, memory)."""
        self.machine = machine

    # -- function events ------------------------------------------------------

    def func_enter(self, function):
        self.frame_markers.append(len(self.stack))

    def func_exit(self, function):
        ts = self.machine.cost if self.machine is not None else 0
        # The exiting frame's continuation window closes here.
        self._finalize_pending(len(self.frame_markers), ts)
        depth = self.frame_markers.pop()
        while len(self.stack) > depth:
            self._pop_invocation(ts)

    # -- call-continuation events ------------------------------------------------

    def call_start(self, site_id, ts):
        # A new call at this depth ends the previous call's continuation.
        self._finalize_pending(len(self.frame_markers), ts)
        self.active_calls.append(CallRecord(site_id, ts))

    def call_end(self, site_id, ts):
        record = self.active_calls.pop()
        record.end_ts = ts
        self.pending_calls[len(self.frame_markers)] = record

    def call_result_use(self, site_id, ts):
        record = self.pending_calls.get(len(self.frame_markers))
        if record is not None and record.site_id == site_id:
            record.note_dependence(ts)

    def _finalize_pending(self, depth, horizon_ts):
        record = self.pending_calls.pop(depth, None)
        if record is None:
            return
        saving = record.finalize(horizon_ts)
        summary = self.call_summaries.get(record.site_id)
        if summary is None:
            summary = self.call_summaries[record.site_id] = CallSiteSummary(
                record.site_id
            )
        summary.absorb(record, saving)

    # -- loop events -------------------------------------------------------------

    def loop_enter(self, loop_id, ts):
        if self.stack:
            parent_entry = self.stack[-1]
            parent = parent_entry.invocation
            parent_iter = parent.current_iter
            self.parents.append(parent_entry.index)
        else:
            parent = None
            parent_iter = -1
            self.parents.append(-1)
        invocation = LoopInvocation(loop_id, parent, parent_iter, ts)
        entry = _ActiveLoop(invocation, len(self.invocations))
        self.invocations.append(invocation)
        self.stack.append(entry)
        self.by_loop.setdefault(loop_id, []).append(entry)

    def loop_iter(self, loop_id, ts, lcd_values):
        entry = self._top_for(loop_id)
        self._finalize_iteration(entry, lcd_values)
        entry.invocation.iter_starts.append(ts)
        if entry.first_use_off:
            entry.first_use_off = {}

    def loop_exit(self, loop_id, ts):
        entry = self._top_for(loop_id)
        if self.stack[-1] is not entry:
            # Mis-nesting should be impossible with edge-derived events.
            raise FrameworkError(
                f"loop_exit for {loop_id} while {self.stack[-1].invocation.loop_id} "
                f"is innermost"
            )
        self._pop_invocation(ts)

    def _pop_invocation(self, ts):
        entry = self.stack.pop()
        invocation = entry.invocation
        # The last iteration produced no loop_iter event; finalize it without
        # latch values (they never fed another iteration).
        self._finalize_iteration(entry, ())
        invocation.end_ts = ts
        invocation.exited = True
        stack_for_loop = self.by_loop.get(invocation.loop_id)
        if stack_for_loop:
            stack_for_loop.pop()

    def vec_loop(self, loop_id, enter_ts, trip, step_cost, exit_ts,
                 accesses=()):
        """Closed-form delivery of one whole loop invocation, emitted by
        the vector tier after a kernel commits: equivalent to one
        ``loop_enter``, ``trip`` ``loop_iter`` events at ``enter_ts +
        k * step_cost``, the loop's memory events in iteration-major
        program order, and the ``loop_exit`` — byte-identical to what the
        scalar tiers produce for the same (hook-free, DOALL) loop.

        ``accesses`` holds ``(is_write, offset, base, stride)`` per
        static access: iteration ``k`` touches ``base + stride * k`` at
        ``enter_ts + k * step_cost + offset``.

        The kernel's own invocation can never record a conflict (the
        static DOALL proof excludes cross-iteration overlaps, and a
        same-iteration pair never trips the ``last[0] < cur`` test), so
        memory events only matter to *enclosing* trackers: when this
        invocation is outermost and no call records are live, they are
        unobservable and skipped wholesale — that short-circuit is where
        the closed form's speed comes from."""
        self.loop_enter(loop_id, enter_ts)
        entry = self.stack[-1]
        entry.invocation.iter_starts.extend(
            enter_ts + k * step_cost for k in range(1, trip + 1)
        )
        if accesses and (len(self.stack) > 1 or self.pending_calls
                         or self.active_calls):
            self.mem_batch(
                (is_write, base + stride * k, enter_ts + k * step_cost + off)
                for k in range(trip)
                for is_write, off, base, stride in accesses
            )
        self.loop_exit(loop_id, exit_ts)

    def _top_for(self, loop_id):
        entries = self.by_loop.get(loop_id)
        if not entries:
            raise FrameworkError(f"event for inactive loop {loop_id}")
        return entries[-1]

    def _finalize_iteration(self, entry, lcd_values):
        """Close out the iteration that just ended: ship latch values and
        per-iteration def/use offsets into the invocation record."""
        if not lcd_values and not entry.first_use_off:
            return  # nothing observed this iteration (the common case)
        invocation = entry.invocation
        iter_start = invocation.iter_starts[-1]
        for phi_key, value in lcd_values:
            invocation.lcd_values.setdefault(phi_key, []).append(value)
            def_ts = entry.last_def_ts.get(phi_key)
            def_off = max(0, def_ts - iter_start) if def_ts is not None else 0
            invocation.lcd_def_offsets.setdefault(phi_key, []).append(def_off)
        # Use offsets recorded for any tracked phi that was consumed this
        # iteration (keyed independently of production).
        for phi_key, use_off in entry.first_use_off.items():
            uses = invocation.lcd_use_offsets.setdefault(phi_key, [])
            # Pad skipped iterations (no use observed) with None.
            while len(uses) < invocation.num_iterations - 1:
                uses.append(None)
            uses.append(use_off)

    # -- register LCD events ---------------------------------------------------

    def lcd_def(self, loop_id, phi_key, ts):
        entries = self.by_loop.get(loop_id)
        if entries:
            entries[-1].last_def_ts[phi_key] = ts

    def lcd_use(self, loop_id, phi_key, ts):
        entries = self.by_loop.get(loop_id)
        if not entries:
            return
        entry = entries[-1]
        if phi_key not in entry.first_use_off:
            offset = ts - entry.invocation.iter_starts[-1]
            entry.first_use_off[phi_key] = max(0, offset)

    # -- memory events ------------------------------------------------------------

    def mem_read(self, address, ts):
        pending = self.pending_calls
        if pending:
            record = pending.get(len(self.frame_markers))
            if (
                record is not None
                and record.first_dep_ts is None
                and address in record.write_set
            ):
                record.note_dependence(ts)
        stack = self.stack
        if not stack:
            return
        marks = self.machine.space.marks_for(address)
        for entry in stack:
            invocation = entry.invocation
            if marks is not None and marks.get(id(invocation)) == invocation.current_iter:
                continue  # iteration-private storage (cactus-stack rule)
            last = entry.last_write.get(address)
            if last is not None and last[0] < invocation.current_iter:
                invocation.record_conflict(
                    last[0], last[1], invocation.current_iter, ts
                )

    def mem_write(self, address, ts):
        for record in self.active_calls:
            record.write_set.add(address)
        stack = self.stack
        if not stack:
            return
        marks = self.machine.space.marks_for(address)
        for entry in stack:
            invocation = entry.invocation
            if marks is not None and marks.get(id(invocation)) == invocation.current_iter:
                continue
            entry.last_write[address] = (invocation.current_iter, ts)

    def mem_batch(self, events):
        """Deliver a block's batched ``(is_write, address, ts)`` events in
        program order; semantics match per-event mem_read/mem_write exactly.

        The JIT tiers only batch call-free blocks, so the loop stack,
        frame depth, and call records are constant across the batch and can
        be hoisted out of the loop.
        """
        stack = self.stack
        pending = self.pending_calls
        active_calls = self.active_calls
        if not stack and not pending and not active_calls:
            return
        if stack:
            marks_for = self.machine.space.marks_for
            # Per-entry tracking state is loop-invariant across the batch
            # (batched blocks carry no loop or call events), so hoist the
            # dicts, ids, and current iteration indices out of the event loop.
            tracks = [
                (
                    entry.last_write,
                    entry.invocation,
                    id(entry.invocation),
                    len(entry.invocation.iter_starts) - 1,
                )
                for entry in stack
            ]
        else:
            marks_for = None
            tracks = ()
        # The pending-call record for this depth is equally batch-invariant.
        record = pending.get(len(self.frame_markers)) if pending else None
        for is_write, address, ts in events:
            if is_write:
                for call in active_calls:
                    call.write_set.add(address)
                if tracks:
                    marks = marks_for(address)
                    if marks is None:
                        for last_write, _invocation, _inv_id, cur in tracks:
                            last_write[address] = (cur, ts)
                    else:
                        for last_write, _invocation, inv_id, cur in tracks:
                            if marks.get(inv_id) == cur:
                                continue  # iteration-private (cactus-stack rule)
                            last_write[address] = (cur, ts)
            else:
                if (
                    record is not None
                    and record.first_dep_ts is None
                    and address in record.write_set
                ):
                    record.note_dependence(ts)
                if tracks:
                    marks = marks_for(address)
                    if marks is None:
                        for last_write, invocation, _inv_id, cur in tracks:
                            last = last_write.get(address)
                            if last is not None and last[0] < cur:
                                invocation.record_conflict(
                                    last[0], last[1], cur, ts
                                )
                    else:
                        for last_write, invocation, inv_id, cur in tracks:
                            if marks.get(inv_id) == cur:
                                continue
                            last = last_write.get(address)
                            if last is not None and last[0] < cur:
                                invocation.record_conflict(
                                    last[0], last[1], cur, ts
                                )

    def deliver_block_events(self, mem_events, lcd_events):
        """One call per JIT basic block: the block's batched memory events
        (``(is_write, address, ts)``) plus its register-LCD events
        (``(is_def, loop_id, phi_key, ts)``), each list in program order.

        LCD and memory events touch disjoint tracking state (``last_def_ts``
        / ``first_use_off`` vs ``last_write`` / conflicts) and carry explicit
        timestamps, so replaying them as two ordered lists is equivalent to
        the reference interpreter's interleaved per-event delivery. Loop
        and call events never occur inside a batched block, so the stacks
        are stable across the batch.
        """
        if lcd_events:
            by_loop = self.by_loop
            for is_def, loop_id, phi_key, ts in lcd_events:
                entries = by_loop.get(loop_id)
                if not entries:
                    continue
                entry = entries[-1]
                if is_def:
                    entry.last_def_ts[phi_key] = ts
                elif phi_key not in entry.first_use_off:
                    offset = ts - entry.invocation.iter_starts[-1]
                    entry.first_use_off[phi_key] = max(0, offset)
        if mem_events:
            self.mem_batch(mem_events)

    # -- allocation provenance -----------------------------------------------------

    def current_marks(self):
        """Snapshot ``{id(invocation): current_iter}`` for new allocations."""
        if not self.stack:
            return None
        return {
            id(entry.invocation): entry.invocation.current_iter
            for entry in self.stack
        }

    # -- finishing ------------------------------------------------------------------

    def finish(self, total_cost, result=None):
        """Close every open invocation and call, and return the run's
        columnar :class:`ProgramProfile`; the invocation nodes are dropped,
        so none outlives the run."""
        ts = total_cost
        while self.stack:
            self._pop_invocation(ts)
        for depth in list(self.pending_calls):
            self._finalize_pending(depth, ts)
        invocations, self.invocations = self.invocations, []
        parents, self.parents = self.parents, []
        return ProgramProfile.from_invocations(
            self.name, invocations, parents, total_cost, result,
            dict(self.call_summaries),
        )
