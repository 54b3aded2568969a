"""ProfilingRuntime — the run-time component of Loopapalooza (§III-B).

Receives the instrumentation callbacks from the interpreter and keeps one
record per loop invocation, which :meth:`ProfilingRuntime.finish`
flattens once into the columnar
:class:`~repro.runtime.profile.ProgramProfile`:

* maintains the dynamic loop-invocation stack (properly nested; early
  function returns force-exit the invocations of that frame);
* detects cross-iteration memory RAW dependencies with one last-write
  table ordered by loop epochs, with cactus-stack privatization (storage
  born inside the current iteration of an invocation is iteration-private
  for it);
* records register-LCD latch values and producer/consumer offsets for the
  tracked (non-computable) header phis.

**Epochs.** The epoch counts the ``loop_enter`` and ``loop_iter`` events
delivered so far, so every iteration of every invocation begins at an
epoch of its own; each active invocation keeps the epochs its iterations
began at. A write while any loop is active stores ``(epoch, ts)`` for its
address, and every allocation is born at the epoch current when it is
made (:meth:`ProfilingRuntime.current_marks`). A read conflicts at an
active invocation when the write it sees has an epoch ``w`` with
``entry epoch <= w < current iteration's epoch`` and the storage was not
born after the write. These windows are disjoint across the nest, so a
read conflicts at one level at most. Timestamps cannot order the events
instead: an intrinsic's memory events carry the cost counter after the
call's charge, which equals the next iteration's start when the call
ends a loop body.
"""

from __future__ import annotations

from bisect import bisect_right

from ..errors import FrameworkError
from .call_records import CallRecord, CallSiteSummary
from .profile import ProgramProfile


class _Invocation:
    """One loop invocation: the fields a profile record keeps (see
    :data:`~repro.runtime.profile.FIELDS`), plus, while it is active, the
    epoch each of its iterations began at and its register-LCD state."""

    __slots__ = (
        "loop_id", "parent_iter", "iter_starts", "end_ts", "conflict_pairs",
        "max_mem_skew", "conflict_count", "exited", "lcd_values",
        "lcd_def_offsets", "lcd_use_offsets",
        "index", "epochs", "last_def_ts", "first_use_off",
    )

    def __init__(self, loop_id, parent_iter, start_ts, epoch, index):
        self.loop_id = loop_id
        self.parent_iter = parent_iter
        self.iter_starts = [start_ts]
        self.end_ts = start_ts
        # consumer iteration -> latest producer iteration observed for it.
        # The latest producer is the binding constraint: a Partial-DOALL
        # phase break before it commits every earlier producer too.
        self.conflict_pairs = {}
        self.max_mem_skew = 0.0
        self.conflict_count = 0
        self.exited = False
        self.lcd_values = {}
        self.lcd_def_offsets = {}
        self.lcd_use_offsets = {}
        self.index = index          # entry index, for the children's parents
        self.epochs = [epoch]       # epoch at which each iteration began
        self.last_def_ts = {}       # phi_key -> ts (most recent producer def)
        self.first_use_off = {}     # phi_key -> offset within current iteration


class ProfilingRuntime:
    """Implements the interpreter's callback interface and owns the profile."""

    def __init__(self, name="program"):
        self.name = name
        self.invocations = []       # _Invocation list, in entry order
        self.parents = []           # entry index of each one's parent, or -1
        self.stack = []             # active _Invocations, outermost first
        self.frame_markers = []     # loop-stack depth at each function entry
        self.by_loop = {}           # loop_id -> active _Invocations (recursion-safe)
        self.epoch = 0              # loop_enter + loop_iter events so far
        self.last_write = {}        # address -> (epoch, ts) of its latest write
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
            parent = self.stack[-1]
            parent_iter = len(parent.iter_starts) - 1
            self.parents.append(parent.index)
        else:
            parent_iter = -1
            self.parents.append(-1)
        self.epoch += 1
        invocation = _Invocation(loop_id, parent_iter, ts, self.epoch,
                                 len(self.invocations))
        self.invocations.append(invocation)
        self.stack.append(invocation)
        self.by_loop.setdefault(loop_id, []).append(invocation)

    def loop_iter(self, loop_id, ts, lcd_values):
        invocation = self._top_for(loop_id)
        self._finalize_iteration(invocation, lcd_values)
        invocation.iter_starts.append(ts)
        self.epoch += 1
        invocation.epochs.append(self.epoch)
        if invocation.first_use_off:
            invocation.first_use_off = {}

    def loop_exit(self, loop_id, ts):
        invocation = self._top_for(loop_id)
        if self.stack[-1] is not invocation:
            # Mis-nesting should be impossible with edge-derived events.
            raise FrameworkError(
                f"loop_exit for {loop_id} while {self.stack[-1].loop_id} "
                f"is innermost"
            )
        self._pop_invocation(ts)

    def _pop_invocation(self, ts):
        invocation = self.stack.pop()
        # The last iteration produced no loop_iter event; finalize it without
        # latch values (they never fed another iteration).
        self._finalize_iteration(invocation, ())
        invocation.end_ts = ts
        invocation.exited = True
        # Only an active invocation needs its epochs and LCD state.
        invocation.epochs = invocation.last_def_ts = None
        invocation.first_use_off = None
        self.by_loop[invocation.loop_id].pop()
        if not self.stack:
            # Every later invocation is entered after these writes, so no
            # read can conflict with them any more.
            self.last_write.clear()

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

        The epoch advances by ``trip`` before the memory events, so they
        all fall in the kernel's last iteration: its own invocation
        records no conflict (the static DOALL proof excludes
        cross-iteration overlaps anyway), and they matter only to
        *enclosing* invocations. When this invocation is outermost and no
        call records are live, they are unobservable and skipped
        wholesale — that short-circuit is where the closed form's speed
        comes from."""
        self.loop_enter(loop_id, enter_ts)
        invocation = self.stack[-1]
        invocation.iter_starts.extend(
            enter_ts + k * step_cost for k in range(1, trip + 1)
        )
        invocation.epochs.extend(range(self.epoch + 1, self.epoch + trip + 1))
        self.epoch += trip
        if accesses and (len(self.stack) > 1 or self.pending_calls
                         or self.active_calls):
            self.mem_batch(
                (is_write, base + stride * k, enter_ts + k * step_cost + off)
                for k in range(trip)
                for is_write, off, base, stride in accesses
            )
        self.loop_exit(loop_id, exit_ts)

    def _top_for(self, loop_id):
        invocations = self.by_loop.get(loop_id)
        if not invocations:
            raise FrameworkError(f"event for inactive loop {loop_id}")
        return invocations[-1]

    def _finalize_iteration(self, invocation, lcd_values):
        """Close out the iteration that just ended: ship latch values and
        per-iteration def/use offsets into the invocation record."""
        if not lcd_values and not invocation.first_use_off:
            return  # nothing observed this iteration (the common case)
        iter_start = invocation.iter_starts[-1]
        for phi_key, value in lcd_values:
            invocation.lcd_values.setdefault(phi_key, []).append(value)
            def_ts = invocation.last_def_ts.get(phi_key)
            def_off = max(0, def_ts - iter_start) if def_ts is not None else 0
            invocation.lcd_def_offsets.setdefault(phi_key, []).append(def_off)
        # Use offsets recorded for any tracked phi that was consumed this
        # iteration (keyed independently of production).
        for phi_key, use_off in invocation.first_use_off.items():
            uses = invocation.lcd_use_offsets.setdefault(phi_key, [])
            # Pad skipped iterations (no use observed) with None.
            while len(uses) < len(invocation.iter_starts) - 1:
                uses.append(None)
            uses.append(use_off)

    # -- register LCD events ---------------------------------------------------

    def lcd_def(self, loop_id, phi_key, ts):
        invocations = self.by_loop.get(loop_id)
        if invocations:
            invocations[-1].last_def_ts[phi_key] = ts

    def lcd_use(self, loop_id, phi_key, ts):
        invocations = self.by_loop.get(loop_id)
        if not invocations:
            return
        invocation = invocations[-1]
        if phi_key not in invocation.first_use_off:
            offset = ts - invocation.iter_starts[-1]
            invocation.first_use_off[phi_key] = max(0, offset)

    # -- memory events ------------------------------------------------------------

    def mem_read(self, address, ts):
        self.mem_batch(((False, address, ts),))

    def mem_write(self, address, ts):
        self.mem_batch(((True, address, ts),))

    def mem_batch(self, events):
        """Deliver ``(is_write, address, ts)`` events in program order: the
        one path every memory event takes.

        Loop and call events never occur inside a batch (the JIT tiers
        only batch call-free blocks), so the loop stack, the epoch, the
        frame depth and the call records are constant across it. A read
        can conflict at some level only if the write it sees lies between
        the outermost invocation's entry epoch and the innermost one's
        current iteration epoch; only such reads leave the loop.
        """
        stack = self.stack
        pending = self.pending_calls
        active_calls = self.active_calls
        if not stack and not pending and not active_calls:
            return
        record = pending.get(len(self.frame_markers)) if pending else None
        last_write = self.last_write
        epoch = self.epoch
        if stack:
            low, high = stack[0].epochs[0], stack[-1].epochs[-1]
        else:
            low = high = 0  # no active loop, so no read can conflict
        for is_write, address, ts in events:
            if is_write:
                for call in active_calls:
                    call.write_set.add(address)
                if stack:
                    last_write[address] = (epoch, ts)
            else:
                if (
                    record is not None
                    and record.first_dep_ts is None
                    and address in record.write_set
                ):
                    record.note_dependence(ts)
                write = last_write.get(address)
                if write is not None and low <= write[0] < high:
                    self._conflict(write, address, ts)

    def _conflict(self, write, address, ts):
        """Record the conflict, if any, of a read of ``address`` at ``ts``
        that sees ``write`` (``(epoch, ts)``, inside the batch window)."""
        epoch, write_ts = write
        if self.machine.space.birth_of(address) > epoch:
            return  # the storage was born after the write (cactus-stack rule)
        # The innermost invocation entered by the write's epoch is the only
        # one whose window can hold it.
        for invocation in reversed(self.stack):
            epochs = invocation.epochs
            if epochs[0] <= epoch:
                break
        if epoch >= epochs[-1]:
            return  # written in that invocation's current iteration
        producer = bisect_right(epochs, epoch) - 1
        consumer = len(epochs) - 1
        invocation.conflict_count += 1
        if producer > invocation.conflict_pairs.get(consumer, -1):
            invocation.conflict_pairs[consumer] = producer
        starts = invocation.iter_starts
        producer_off = write_ts - starts[producer]
        consumer_off = ts - starts[consumer]
        skew = (producer_off - consumer_off) / (consumer - producer)
        if skew > invocation.max_mem_skew:
            invocation.max_mem_skew = skew

    def deliver_block_events(self, mem_events, lcd_events):
        """One call per JIT basic block: the block's batched memory events
        (``(is_write, address, ts)``) plus its register-LCD events
        (``(is_def, loop_id, phi_key, ts)``), each list in program order.

        LCD and memory events touch disjoint tracking state and carry
        explicit timestamps, so replaying them as two ordered lists is
        equivalent to the reference interpreter's interleaved per-event
        delivery.
        """
        for is_def, loop_id, phi_key, ts in lcd_events:
            if is_def:
                self.lcd_def(loop_id, phi_key, ts)
            else:
                self.lcd_use(loop_id, phi_key, ts)
        if mem_events:
            self.mem_batch(mem_events)

    # -- allocation provenance -----------------------------------------------------

    def current_marks(self):
        """The birth epoch of an allocation made now: the current epoch."""
        return self.epoch

    # -- finishing ------------------------------------------------------------------

    def finish(self, total_cost, result=None):
        """Close every open invocation and call, and return the run's
        columnar :class:`ProgramProfile`; the invocation records are
        dropped, so none outlives the run."""
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
