"""Control-flow graph helper built once per function.

Caches successor/predecessor maps and reachability so analyses avoid the
O(blocks) `BasicBlock.predecessors` scan, and provides the traversal orders
(reverse post-order) dominance and loop analysis need.
"""

from __future__ import annotations

from .invalidation import check_fresh, register_snapshot


class CFG:
    """Immutable snapshot of a function's control-flow graph.

    Invalidated by any CFG edit; passes rebuild it after mutating blocks.
    Once the pass manager marks the snapshot stale (between pipeline
    stages), queries raise :class:`~repro.errors.StaleAnalysisError`.
    """

    def __init__(self, function):
        self.function = function
        self._stale = False
        register_snapshot(self)
        self._succs = {}
        self._preds = {block: [] for block in function.blocks}
        for block in function.blocks:
            successors = block.successors()
            self._succs[block] = successors
            for successor in successors:
                self._preds[successor].append(block)
        self._reachable = self._compute_reachable()
        self._rpo = None

    def invalidate(self):
        """Mark this snapshot stale; further queries raise."""
        self._stale = True

    def successors(self, block):
        if self._stale:
            check_fresh(self, "CFG")
        return self._succs[block]

    def predecessors(self, block):
        if self._stale:
            check_fresh(self, "CFG")
        return self._preds[block]

    def is_reachable(self, block):
        if self._stale:
            check_fresh(self, "CFG")
        return block in self._reachable

    def reachable_blocks(self):
        """Reachable blocks in function order."""
        if self._stale:
            check_fresh(self, "CFG")
        return [b for b in self.function.blocks if b in self._reachable]

    def _compute_reachable(self):
        entry = self.function.entry_block
        seen = {entry}
        worklist = [entry]
        while worklist:
            block = worklist.pop()
            for successor in self._succs[block]:
                if successor not in seen:
                    seen.add(successor)
                    worklist.append(successor)
        return seen

    def reverse_post_order(self):
        """Reverse post-order over reachable blocks (entry first).

        Computed lazily and cached; uses an explicit stack so deep CFGs do
        not hit Python's recursion limit.
        """
        if self._stale:
            check_fresh(self, "CFG")
        if self._rpo is not None:
            return self._rpo
        entry = self.function.entry_block
        post = []
        visited = set()
        # Each stack entry is (block, iterator over its successors).
        stack = [(entry, iter(self._succs[entry]))]
        visited.add(entry)
        while stack:
            block, successor_iter = stack[-1]
            advanced = False
            for successor in successor_iter:
                if successor not in visited:
                    visited.add(successor)
                    stack.append((successor, iter(self._succs[successor])))
                    advanced = True
                    break
            if not advanced:
                post.append(block)
                stack.pop()
        self._rpo = list(reversed(post))
        return self._rpo
