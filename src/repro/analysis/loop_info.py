"""Natural-loop detection and the loop nesting forest.

A natural loop is identified by a *back edge* ``latch -> header`` where the
header dominates the latch; the loop body is every block that can reach the
latch without passing through the header. Back edges sharing a header are
merged into one loop (LLVM's convention). Loops are arranged in a nesting
forest; :class:`LoopInfo` answers "innermost loop containing block B".

Loop identity matters to Loopapalooza: every loop receives a stable string id
(``function.header``) that the instrumentation, runtime profile, and report
all key on.
"""

from __future__ import annotations

from .cfg import CFG
from .dominators import DominatorTree
from .invalidation import check_fresh, register_snapshot

# -- provenance ---------------------------------------------------------------
#
# The ICC opt-report taxonomy (see SNIPPETS.md): every loop the transform
# passes create or rewrite records where it came from, so figures can fold
# DISTR/PEEL/FUSED descendants back onto their source loop. Loops with no
# recorded origin are MAIN (written by the programmer, never restructured).

ORIGIN_MAIN = "MAIN"
ORIGIN_DISTR = "DISTR"
ORIGIN_FUSED = "FUSED"
ORIGIN_PEEL = "PEEL"
ORIGIN_REMAINDER = "REMAINDER"
ORIGIN_TAGS = (
    ORIGIN_MAIN, ORIGIN_DISTR, ORIGIN_FUSED, ORIGIN_PEEL, ORIGIN_REMAINDER,
)


class LoopOrigin:
    """Provenance of one loop: how it was produced and from which loop."""

    __slots__ = ("tag", "source", "note")

    def __init__(self, tag, source, note=""):
        if tag not in ORIGIN_TAGS:
            raise ValueError(f"unknown loop origin tag {tag!r}")
        self.tag = tag
        self.source = source  # loop_id of the loop this one derives from
        self.note = note

    def to_dict(self):
        return {"tag": self.tag, "source": self.source, "note": self.note}

    def describe(self):
        suffix = f" ({self.note})" if self.note else ""
        return f"{self.tag} <- {self.source}{suffix}"

    def __repr__(self):
        return f"<LoopOrigin {self.describe()}>"


def record_loop_origin(module, loop_id, tag, source, note=""):
    """Attach provenance for ``loop_id`` on its module (latest write wins)."""
    origin = LoopOrigin(tag, source, note)
    module.loop_origins[loop_id] = origin
    return origin


def loop_origin_of(module, loop_id):
    """The recorded origin of ``loop_id``, defaulting to MAIN."""
    origin = getattr(module, "loop_origins", {}).get(loop_id)
    if origin is None:
        return LoopOrigin(ORIGIN_MAIN, loop_id)
    return origin


def loop_origin_root(module, loop_id):
    """Follow the origin chain back to the source loop's id.

    A DISTR loop distributed out of a PEEL product resolves to the original
    MAIN loop, which is the id figures group descendants under.
    """
    seen = {loop_id}
    current = loop_id
    while True:
        origin = getattr(module, "loop_origins", {}).get(current)
        if origin is None or origin.source == current:
            return current
        if origin.source in seen:  # defensive: malformed cycle
            return current
        seen.add(origin.source)
        current = origin.source


class Loop:
    """One natural loop: header, body blocks, and nesting links."""

    def __init__(self, header, function):
        self.header = header
        self.function = function
        self.blocks = {header}
        self.latches = []
        self.parent = None
        self.subloops = []
        self._info = None  # owning LoopInfo snapshot (None if hand-built)

    def _check_fresh(self):
        if self._info is not None and self._info._stale:
            check_fresh(self._info, "LoopInfo")

    # -- identity ---------------------------------------------------------------

    @property
    def loop_id(self):
        return f"{self.function.name}.{self.header.name}"

    @property
    def origin(self):
        """Provenance of this loop (MAIN unless a transform produced it)."""
        module = getattr(self.function, "module", None)
        if module is None:
            return LoopOrigin(ORIGIN_MAIN, self.loop_id)
        return loop_origin_of(module, self.loop_id)

    @property
    def depth(self):
        depth = 1
        parent = self.parent
        while parent is not None:
            depth += 1
            parent = parent.parent
        return depth

    # -- membership ---------------------------------------------------------------

    def contains_loop(self, other):
        while other is not None:
            if other is self:
                return True
            other = other.parent
        return False

    # -- CFG shape queries ---------------------------------------------------------

    def preheader(self, cfg):
        """The unique out-of-loop predecessor of the header with a single
        successor, or ``None`` if the loop is not in simplified form."""
        self._check_fresh()
        outside = [
            pred for pred in cfg.predecessors(self.header)
            if pred not in self.blocks
        ]
        if len(outside) != 1:
            return None
        candidate = outside[0]
        if len(cfg.successors(candidate)) != 1:
            return None
        return candidate

    def single_latch(self):
        self._check_fresh()
        return self.latches[0] if len(self.latches) == 1 else None

    def blocks_in_function_order(self):
        """The loop body in function block order — ``self.blocks`` is a set,
        so iterating it directly gives a run-to-run varying order; every
        consumer whose output shape depends on it must use this instead."""
        self._check_fresh()
        return [b for b in self.function.blocks if b in self.blocks]

    def exiting_blocks(self, cfg):
        """Blocks inside the loop with a successor outside it."""
        result = []
        for block in self.blocks_in_function_order():
            if any(succ not in self.blocks for succ in cfg.successors(block)):
                result.append(block)
        return result

    def exit_blocks(self, cfg):
        """Blocks outside the loop that are targets of edges from inside."""
        seen = []
        for block in self.blocks_in_function_order():
            for successor in cfg.successors(block):
                if successor not in self.blocks and successor not in seen:
                    seen.append(successor)
        return seen

    def exit_edges(self, cfg):
        """All ``(inside_block, outside_block)`` edges leaving the loop."""
        edges = []
        for block in self.blocks_in_function_order():
            for successor in cfg.successors(block):
                if successor not in self.blocks:
                    edges.append((block, successor))
        return edges

    def is_invariant(self, value):
        """Is ``value`` defined outside this loop (constants/args included)?"""
        from ..ir.instructions import Instruction

        if not isinstance(value, Instruction):
            return True
        return value.parent not in self.blocks

    def __repr__(self):
        return f"<Loop {self.loop_id} depth={self.depth} blocks={len(self.blocks)}>"


class LoopInfo:
    """The loop nesting forest of one function."""

    def __init__(self, function, cfg=None, domtree=None):
        self.function = function
        self._stale = False
        register_snapshot(self)
        self.cfg = cfg if cfg is not None else CFG(function)
        self.domtree = domtree if domtree is not None else DominatorTree(function, self.cfg)
        self.top_level = []
        self._loop_of_block = {}
        self._discover()

    def invalidate(self):
        """Mark this snapshot (and its CFG) stale; further queries raise."""
        self._stale = True
        self.cfg.invalidate()

    def _discover(self):
        # 1. find back edges and group them by header.
        back_edges = {}
        for block in self.cfg.reachable_blocks():
            for successor in self.cfg.successors(block):
                if self.domtree.dominates(successor, block):
                    back_edges.setdefault(successor, []).append(block)

        # 2. build one Loop per header; body = reverse-reachable from latches.
        loops = {}
        for header, latches in back_edges.items():
            loop = Loop(header, self.function)
            loop._info = self
            loop.latches = list(latches)
            worklist = [l for l in latches if l is not header]
            while worklist:
                block = worklist.pop()
                if block in loop.blocks:
                    continue
                loop.blocks.add(block)
                for pred in self.cfg.predecessors(block):
                    if pred not in loop.blocks and self.cfg.is_reachable(pred):
                        worklist.append(pred)
            loops[header] = loop

        # 3. nest loops: process headers in dominator-tree preorder so outer
        # loops are seen before the loops they contain; the innermost loop
        # containing a block wins the `_loop_of_block` mapping.
        ordered_headers = [
            block for block in self.domtree.dom_tree_preorder() if block in loops
        ]
        for header in ordered_headers:
            loop = loops[header]
            enclosing = self._loop_of_block.get(header)
            if enclosing is not None:
                loop.parent = enclosing
                enclosing.subloops.append(loop)
            else:
                self.top_level.append(loop)
            for block in loop.blocks:
                self._loop_of_block[block] = loop

        self.all_loops_list = []

        def collect(loop):
            self.all_loops_list.append(loop)
            for sub in loop.subloops:
                collect(sub)

        for loop in self.top_level:
            collect(loop)

    # -- queries -------------------------------------------------------------

    def loop_for_block(self, block):
        """Innermost loop containing ``block`` (or ``None``)."""
        if self._stale:
            check_fresh(self, "LoopInfo")
        return self._loop_of_block.get(block)

    def all_loops(self):
        """Every loop, outer loops before their subloops."""
        if self._stale:
            check_fresh(self, "LoopInfo")
        return list(self.all_loops_list)

    def loops_in_postorder(self):
        """Innermost loops first — the order cost propagation wants."""
        if self._stale:
            check_fresh(self, "LoopInfo")
        result = []

        def visit(loop):
            for sub in loop.subloops:
                visit(sub)
            result.append(loop)

        for loop in self.top_level:
            visit(loop)
        return result

    def loop_depth(self, block):
        loop = self.loop_for_block(block)
        return loop.depth if loop is not None else 0
