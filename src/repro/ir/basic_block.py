"""Basic blocks: straight-line instruction sequences ending in a terminator."""

from __future__ import annotations

from ..errors import IRError
from .instructions import Instruction, Phi


class BasicBlock:
    """An ordered list of instructions with a single terminator.

    Blocks are not :class:`~repro.ir.values.Value` objects in this IR (branch
    targets reference blocks directly), which keeps the def-use machinery
    simple while still supporting every pass Loopapalooza needs.
    """

    __slots__ = ("name", "parent", "instructions")

    def __init__(self, name="", parent=None):
        self.name = name
        self.parent = parent
        self.instructions = []

    # -- structural edits ----------------------------------------------------

    def append(self, instruction):
        if not isinstance(instruction, Instruction):
            raise IRError(f"cannot append {instruction!r} to a block")
        if instruction.parent is not None:
            raise IRError(f"{instruction!r} already belongs to a block")
        if self.terminator is not None:
            raise IRError(f"block {self.name} already has a terminator")
        instruction.parent = self
        self.instructions.append(instruction)
        return instruction

    def insert_before(self, position_instr, new_instr):
        """Insert ``new_instr`` immediately before ``position_instr``."""
        if new_instr.parent is not None:
            raise IRError(f"{new_instr!r} already belongs to a block")
        index = self.instructions.index(position_instr)
        new_instr.parent = self
        self.instructions.insert(index, new_instr)
        return new_instr

    def insert_phi(self, phi):
        """Insert a phi node at the top of the block (after existing phis)."""
        if phi.parent is not None:
            raise IRError(f"{phi!r} already belongs to a block")
        index = 0
        while index < len(self.instructions) and isinstance(
            self.instructions[index], Phi
        ):
            index += 1
        phi.parent = self
        self.instructions.insert(index, phi)
        return phi

    def remove_instruction(self, instruction):
        self.instructions.remove(instruction)
        instruction.parent = None

    def erase_from_parent(self):
        """Remove this block from its function and drop all its instructions'
        operand references (so values defined elsewhere lose the uses)."""
        for instruction in list(self.instructions):
            instruction.parent = None
            instruction.drop_all_references()
        self.instructions = []
        if self.parent is not None:
            self.parent.remove_block(self)

    # -- queries -------------------------------------------------------------

    @property
    def terminator(self):
        if self.instructions and self.instructions[-1].is_terminator:
            return self.instructions[-1]
        return None

    def successors(self):
        terminator = self.terminator
        return terminator.successors() if terminator is not None else []

    def predecessors(self):
        """Blocks in the same function that branch to this one.

        O(blocks) per call; passes that need repeated queries should build a
        :class:`~repro.analysis.cfg.CFG` once instead.
        """
        if self.parent is None:
            return []
        return [
            block
            for block in self.parent.blocks
            if self in block.successors()
        ]

    def phis(self):
        for instruction in self.instructions:
            if isinstance(instruction, Phi):
                yield instruction
            else:
                break

    def non_phi_instructions(self):
        for instruction in self.instructions:
            if not isinstance(instruction, Phi):
                yield instruction

    def __iter__(self):
        return iter(self.instructions)

    def __len__(self):
        return len(self.instructions)

    def __repr__(self):
        return f"<BasicBlock {self.name} ({len(self.instructions)} instrs)>"
