"""Functions: a named list of basic blocks plus a signature.

A function may be a *definition* (has blocks), a *declaration* of another
user function, or an *intrinsic* — a library routine the interpreter models
natively. Intrinsics carry the attribute set (pure / thread-safe / unsafe)
that drives the paper's ``fn1``/``fn2``/``fn3`` classification.
"""

from __future__ import annotations

from ..errors import IRError
from .basic_block import BasicBlock
from .values import Argument, Value


class Function(Value):
    """A function definition or declaration.

    Like LLVM, the function value itself has the *function type*; calls
    reference it directly via :class:`~repro.ir.instructions.Call`.
    """

    __slots__ = ("function_type", "arguments", "blocks", "module", "intrinsic",
                 "snapshots")

    def __init__(self, function_type, name, module=None, intrinsic=None):
        super().__init__(function_type, name)
        self.function_type = function_type
        self.module = module
        self.intrinsic = intrinsic
        self.blocks = []
        #: The live CFG/LoopInfo snapshots of this function: a weak set
        #: that ``analysis.invalidation`` creates for the first one and
        #: drops when it marks them stale (``None`` while there are none).
        self.snapshots = None
        self.arguments = [
            Argument(param_type, f"arg{index}", self, index)
            for index, param_type in enumerate(function_type.param_types)
        ]

    # -- structure -----------------------------------------------------------

    @property
    def is_declaration(self):
        return not self.blocks and self.intrinsic is None

    @property
    def is_intrinsic(self):
        return self.intrinsic is not None

    @property
    def entry_block(self):
        if not self.blocks:
            raise IRError(f"function @{self.name} has no blocks")
        return self.blocks[0]

    def append_block(self, name=""):
        block = BasicBlock(name or f"bb{len(self.blocks)}", parent=self)
        self.blocks.append(block)
        return block

    def insert_block_after(self, existing, name=""):
        block = BasicBlock(name, parent=self)
        index = self.blocks.index(existing)
        self.blocks.insert(index + 1, block)
        return block

    def remove_block(self, block):
        self.blocks.remove(block)
        block.parent = None

    def short_name(self):
        return f"@{self.name}"

    # -- iteration helpers ----------------------------------------------------

    def instructions(self):
        for block in self.blocks:
            yield from block.instructions

    def __iter__(self):
        return iter(self.blocks)

    def __repr__(self):
        kind = "intrinsic" if self.is_intrinsic else (
            "declaration" if self.is_declaration else "definition"
        )
        return f"<Function @{self.name} ({kind}, {len(self.blocks)} blocks)>"
