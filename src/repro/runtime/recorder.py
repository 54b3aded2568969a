"""ProfilingRuntime — the run-time component of Loopapalooza (§III-B).

Receives the instrumentation events of one run and keeps one record per
loop invocation, which :meth:`ProfilingRuntime.finish` flattens once into
the columnar :class:`~repro.runtime.profile.ProgramProfile`:

* maintains the dynamic loop-invocation stack (properly nested; early
  function returns force-exit the invocations of that frame);
* detects cross-iteration memory RAW dependencies against a shadow write
  table ordered by loop epochs, with cactus-stack privatization (storage
  born inside the current iteration of an invocation is iteration-private
  for it);
* records register-LCD latch values and producer/consumer offsets for the
  tracked (non-computable) header phis.

**Epochs.** The epoch counts the loop entries and iterations so far, so
every iteration of every invocation begins at an epoch of its own; each
active invocation keeps the epochs its iterations began at. Every
allocation is born at the epoch current when it is made
(:meth:`ProfilingRuntime.current_marks`). A read conflicts at an active
invocation when the write it sees has an epoch ``w`` with ``entry epoch
<= w < current iteration's epoch`` and the storage was not born after the
write. These windows are disjoint across the nest, so a read conflicts at
one level at most. Timestamps cannot order the events instead: an
intrinsic's memory events carry the cost counter after the call's charge,
which equals the next iteration's start when the call ends a loop body.

**Shadow table and window.** Each write stores ``(epoch << 40) + ts`` in
the address space's shadow write table
(:meth:`~repro.interp.memory.AddressSpace.track_writes`), so ``attach``
refuses a fuel budget of ``2**40`` or more. The runtime keeps ``window =
(low << 40, high << 40, epoch << 40)``, where ``low`` is the outermost
active invocation's entry epoch and ``high`` the innermost one's current
iteration epoch (both 0 when no loop is active): a read can conflict
only if ``low <= shadow[address] < high``, and then
:meth:`ProfilingRuntime.conflict_at` attributes it. Every path that
changes the loop stack or the epoch refreshes the window. Every later
window starts at a later epoch, so an entry older than the outermost
active invocation can never conflict, and the table is never cleared.

**Two event protocols.** The reference interpreter delivers every event
through a method: ``mem_read``/``mem_write`` (one ``mem_batch`` loop),
``loop_iter`` with the latch values, and ``lcd_def``/``lcd_use``. The
instrumented JIT variant (:mod:`repro.interp.codegen`) does that work
inline, on the same shadow table and window: it checks each read against
the window and writes the shadow and the innermost call's write set
itself, and it keeps each loop invocation's iteration bookkeeping in
locals of its own frame, bound to the lists of the record that
:meth:`ProfilingRuntime.loop_enter` returns. It calls the runtime only
for loop entry and exit, calls, conflicts and the end of the run.

**Frame rule.** A register-LCD hook counts only when its loop is active in
the hook's own frame; under recursion an older activation of the loop is
never credited with another frame's events.
"""

from __future__ import annotations

from bisect import bisect_right

from ..errors import FrameworkError
from ..interp.memory import TS_BITS
from .call_records import CallRecord, CallSiteSummary
from .profile import ProgramProfile

_TS_MASK = (1 << TS_BITS) - 1

_UNATTACHED = ("event before attach(): the runtime has no shadow write "
               "table to record memory in")


class _Invocation:
    """One loop invocation: the fields a profile record keeps (see
    :data:`~repro.runtime.profile.FIELDS`), plus, while it is active, the
    epoch each of its iterations began at and its register-LCD state."""

    __slots__ = (
        "loop_id", "parent_iter", "iter_starts", "end_ts", "conflict_pairs",
        "max_mem_skew", "conflict_count", "exited", "lcd_values",
        "lcd_def_offsets", "lcd_use_offsets",
        "index", "depth", "epochs", "last_def_ts", "first_use_off",
    )

    def __init__(self, loop_id, parent_iter, start_ts, epoch, index, depth):
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
        self.depth = depth          # position on the loop stack
        self.epochs = [epoch]       # epoch at which each iteration began
        self.last_def_ts = {}       # phi_key -> ts (most recent producer def)
        self.first_use_off = {}     # phi_key -> offset within current iteration


class ProfilingRuntime:
    """Receives the interpreter's events and owns the profile."""

    def __init__(self, name="program"):
        self.name = name
        self.invocations = []       # _Invocation list, in entry order
        self.parents = []           # entry index of each one's parent, or -1
        self.stack = []             # active _Invocations, outermost first
        self.frame_markers = []     # loop-stack depth at each function entry
        self.by_loop = {}           # loop_id -> active _Invocations (recursion-safe)
        self.epoch = 0              # loop entries + iterations so far
        self.window = (0, 0, 0)     # (low, high, epoch), each << TS_BITS
        self.shadow = None          # the address space's shadow write table
        self.machine = None
        # Function-call/continuation TLS tracking (paper §I extension).
        self.call_summaries = {}    # site_id -> CallSiteSummary
        self.active_calls = []      # CallRecord stack (user calls in flight)
        self.write_set = None       # the innermost active call's write set
        self.pending_calls = {}     # frame depth -> last completed CallRecord

    def attach(self, machine):
        """Give the runtime access to the interpreter (cost counter,
        memory) and start the shadow write table. Raises
        :class:`FrameworkError` for a fuel budget whose timestamps would
        not fit below the epoch of a packed shadow entry."""
        if machine.fuel > _TS_MASK:
            raise FrameworkError(
                f"fuel budget {machine.fuel} is too large to profile: "
                f"the shadow write table packs timestamps below 2**{TS_BITS}"
            )
        self.machine = machine
        self.shadow = machine.space.track_writes()

    # -- function events ------------------------------------------------------

    def func_enter(self, function):
        if self.shadow is None:
            raise FrameworkError(_UNATTACHED)
        self.frame_markers.append(len(self.stack))

    def func_exit(self, function):
        ts = self.machine.cost
        # The exiting frame's continuation window closes here.
        self._finalize_pending(len(self.frame_markers), ts)
        depth = self.frame_markers.pop()
        if len(self.stack) > depth:
            while len(self.stack) > depth:
                self._pop_invocation(ts)
            self._refresh_window()

    # -- call-continuation events ------------------------------------------------

    def call_start(self, site_id, ts):
        # A new call at this depth ends the previous call's continuation.
        self._finalize_pending(len(self.frame_markers), ts)
        record = CallRecord(site_id, ts)
        self.active_calls.append(record)
        self.write_set = record.write_set

    def call_end(self, site_id, ts):
        """Close the innermost call; its record becomes the frame's pending
        one. Returns that record if the continuation's reads must still be
        checked against its write set, else None."""
        active_calls = self.active_calls
        record = active_calls.pop()
        record.end_ts = ts
        # Writes go to the innermost active call only; the caller's call
        # inherits them here, before any read can consult its set.
        if active_calls:
            self.write_set = active_calls[-1].write_set
            self.write_set |= record.write_set
        else:
            self.write_set = None
        self.pending_calls[len(self.frame_markers)] = record
        return record if record.write_set else None

    def call_result_use(self, site_id, ts):
        """Note a use of a call's result; returns the frame's pending record
        if its reads must still be checked, as :meth:`call_end` does."""
        record = self.pending_calls.get(len(self.frame_markers))
        if record is None:
            return None
        if record.site_id == site_id:
            record.note_dependence(ts)
        if record.first_dep_ts is None and record.write_set:
            return record
        return None

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
        """Push a new invocation of ``loop_id`` and return its record: the
        JIT binds its ``iter_starts`` and ``epochs`` to frame locals."""
        stack = self.stack
        if stack:
            parent = stack[-1]
            parent_iter = len(parent.iter_starts) - 1
            self.parents.append(parent.index)
        else:
            parent_iter = -1
            self.parents.append(-1)
        self.epoch += 1
        invocation = _Invocation(loop_id, parent_iter, ts, self.epoch,
                                 len(self.invocations), len(stack))
        self.invocations.append(invocation)
        stack.append(invocation)
        self.by_loop.setdefault(loop_id, []).append(invocation)
        self._refresh_window()
        return invocation

    def loop_iter(self, loop_id, ts, lcd_values):
        invocation = self._top_for(loop_id)
        self._finalize_iteration(invocation, lcd_values)
        invocation.iter_starts.append(ts)
        self.epoch += 1
        invocation.epochs.append(self.epoch)
        if invocation.first_use_off:
            invocation.first_use_off = {}
        self._refresh_window()

    def loop_exit(self, loop_id, ts):
        invocation = self._top_for(loop_id)
        if self.stack[-1] is not invocation:
            # Mis-nesting should be impossible with edge-derived events.
            raise FrameworkError(
                f"loop_exit for {loop_id} while {self.stack[-1].loop_id} "
                f"is innermost"
            )
        self._pop_invocation(ts)
        self._refresh_window()

    def _refresh_window(self):
        stack = self.stack
        if stack:
            self.window = (stack[0].epochs[0] << TS_BITS,
                           stack[-1].epochs[-1] << TS_BITS,
                           self.epoch << TS_BITS)
        else:
            self.window = (0, 0, self.epoch << TS_BITS)

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
        if invocation.lcd_values or invocation.lcd_use_offsets:
            _drop_unobserved(invocation)

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
        invocation = self.loop_enter(loop_id, enter_ts)
        invocation.iter_starts.extend(
            enter_ts + k * step_cost for k in range(1, trip + 1)
        )
        invocation.epochs.extend(range(self.epoch + 1, self.epoch + trip + 1))
        self.epoch += trip
        self._refresh_window()
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

    def _in_frame(self, loop_id):
        """The invocation of ``loop_id`` active in the current frame, or
        None: a hook of a loop active only in a caller's frame (recursion)
        or not at all is ignored."""
        invocations = self.by_loop.get(loop_id)
        if not invocations:
            return None
        invocation = invocations[-1]
        markers = self.frame_markers
        if markers and invocation.depth < markers[-1]:
            return None
        return invocation

    def lcd_def(self, loop_id, phi_key, ts):
        invocation = self._in_frame(loop_id)
        if invocation is not None:
            invocation.last_def_ts[phi_key] = ts

    def lcd_use(self, loop_id, phi_key, ts):
        invocation = self._in_frame(loop_id)
        if invocation is not None and phi_key not in invocation.first_use_off:
            offset = ts - invocation.iter_starts[-1]
            invocation.first_use_off[phi_key] = max(0, offset)

    # -- memory events ------------------------------------------------------------

    def mem_read(self, address, ts):
        self.mem_batch(((False, address, ts),))

    def mem_write(self, address, ts):
        self.mem_batch(((True, address, ts),))

    def mem_batch(self, events):
        """Deliver ``(is_write, address, ts)`` events in program order: the
        one path of every memory event that reaches the runtime.

        Loop and call events never occur inside a batch, so the window,
        the frame depth and the call records are constant across it. A
        write stores its packed epoch and timestamp in the shadow table
        and joins the innermost active call's write set; a read notes the
        frame's pending call's first dependence, and leaves the loop only
        if its address's latest write lies inside the window.
        """
        shadow = self.shadow
        if shadow is None:
            raise FrameworkError(_UNATTACHED)
        low, high, epoch = self.window
        write_set = self.write_set
        record = self.pending_calls.get(len(self.frame_markers))
        if record is not None and record.first_dep_ts is not None:
            record = None
        for is_write, address, ts in events:
            if is_write:
                shadow[address] = epoch + ts
                if write_set is not None:
                    write_set.add(address)
            else:
                if record is not None and address in record.write_set:
                    record.note_dependence(ts)
                    record = None
                if low <= shadow[address] < high:
                    self.conflict_at(address, ts)

    def conflict_at(self, address, ts):
        """Record the conflict, if any, of a read of ``address`` at ``ts``
        whose latest write lies inside the window: the birth check, the
        owning invocation, the producer iteration, the pair and the
        skew."""
        packed = self.shadow[address]
        epoch = packed >> TS_BITS
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
        producer_off = (packed & _TS_MASK) - starts[producer]
        consumer_off = ts - starts[consumer]
        skew = (producer_off - consumer_off) / (consumer - producer)
        if skew > invocation.max_mem_skew:
            invocation.max_mem_skew = skew

    def deliver_block_events(self, mem_events, lcd_events):
        """One basic block's batched memory events (``(is_write, address,
        ts)``) plus its register-LCD events (``(is_def, loop_id, phi_key,
        ts)``), each list in program order.

        LCD and memory events touch disjoint tracking state and carry
        explicit timestamps, so replaying them as two ordered lists is
        equivalent to the reference interpreter's interleaved per-event
        delivery. No execution tier calls it any more; it stays while
        ``perfbench/tracing.py`` wraps it by name.
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
        self._refresh_window()
        for depth in list(self.pending_calls):
            self._finalize_pending(depth, ts)
        invocations, self.invocations = self.invocations, []
        parents, self.parents = self.parents, []
        return ProgramProfile.from_invocations(
            self.name, invocations, parents, total_cost, result,
            dict(self.call_summaries),
        )


def _drop_unobserved(invocation):
    """Drop what a JIT frame registered for an exited invocation but never
    observed: value and def streams when no iteration ended on the latch,
    use offsets of trailing iterations without a use, and use streams
    without any. The reference path's streams never hold either, so the
    two protocols leave equal records."""
    values = invocation.lcd_values
    if values and not next(iter(values.values())):
        values.clear()
        invocation.lcd_def_offsets.clear()
    uses = invocation.lcd_use_offsets
    for phi_key, offsets in list(uses.items()):
        while offsets and offsets[-1] is None:
            offsets.pop()
        if not offsets:
            del uses[phi_key]
