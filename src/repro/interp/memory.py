"""Flat, slot-addressed memory for the IR interpreter.

One address = one scalar slot. Globals occupy the bottom of the address
space; above them grows a bump-allocated stack of frames and allocas.

Every allocation (frame or alloca) is tagged with *birth marks* — a snapshot
of ``{loop-invocation id: iteration index}`` for the tracked loop invocations
active when the allocation happened. The Loopapalooza runtime uses these to
implement the paper's cactus-stack privatization (§II-E): an access to
storage born inside the current iteration of a loop can never be a
loop-carried dependency of that loop.
"""

from __future__ import annotations

from bisect import bisect_right

from ..errors import TrapError


class AddressSpace:
    """Slot memory with allocation provenance tracking."""

    def __init__(self):
        self.slots = []
        self.global_limit = 0
        # Parallel arrays of allocation start addresses and their birth
        # marks, always sorted ascending (bump allocation).
        self._alloc_starts = []
        self._alloc_marks = []
        self._stack_pointer = 0

    # -- initialization --------------------------------------------------------

    def add_global(self, variable):
        """Reserve and initialize storage for a global; returns its base."""
        base = len(self.slots)
        self.slots.extend(variable.flat_initializer())
        self.global_limit = len(self.slots)
        self._stack_pointer = self.global_limit
        return base

    # -- stack ------------------------------------------------------------------

    def frame_base(self):
        return self._stack_pointer

    def allocate(self, size, zero_value, marks):
        """Bump-allocate ``size`` slots tagged with ``marks``; returns base."""
        base = self._stack_pointer
        self._stack_pointer = base + size
        needed = self._stack_pointer - len(self.slots)
        if needed > 0:
            self.slots.extend([zero_value] * needed)
        else:
            for offset in range(size):
                self.slots[base + offset] = zero_value
        self._alloc_starts.append(base)
        self._alloc_marks.append(marks)
        return base

    def release_to(self, base):
        """Pop the stack back to ``base`` (frame exit)."""
        self._stack_pointer = base
        index = bisect_right(self._alloc_starts, base - 1)
        del self._alloc_starts[index:]
        del self._alloc_marks[index:]

    # -- access ------------------------------------------------------------------

    def load(self, address):
        if address < 0 or address >= self._stack_pointer:
            raise TrapError(f"load from invalid address {address}")
        return self.slots[address]

    def store(self, address, value):
        if address < 0 or address >= self._stack_pointer:
            raise TrapError(f"store to invalid address {address}")
        self.slots[address] = value

    def marks_for(self, address):
        """Birth marks of the allocation owning ``address`` (None = global)."""
        if address < self.global_limit:
            return None
        index = bisect_right(self._alloc_starts, address) - 1
        if index < 0:
            return None
        return self._alloc_marks[index]
