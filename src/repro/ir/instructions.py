"""Instruction set of the repro IR.

The subset of LLVM that the Loopapalooza study needs:

* integer/float binary arithmetic (``add`` ... ``fdiv``),
* comparisons (``icmp``/``fcmp``),
* memory (``alloca``, ``load``, ``store``, ``gep``),
* control flow (``br``, ``condbr``, ``ret``),
* ``phi``, ``call``, ``select``, and the scalar casts the MiniC frontend
  emits (``sitofp``, ``fptosi``, ``zext``, ``trunc``).

Every instruction is a :class:`~repro.ir.values.Value` (its own result).
Operands are managed through :meth:`Instruction.set_operand` so the def-use
chains stay consistent under rewriting.
"""

from __future__ import annotations

from ..errors import IRError
from .types import I1, I64, PointerType
from .values import Value

INT_BINOPS = ("add", "sub", "mul", "sdiv", "srem", "udiv", "urem",
              "and", "or", "xor", "shl", "ashr", "lshr")
FLOAT_BINOPS = ("fadd", "fsub", "fmul", "fdiv")
ICMP_PREDICATES = ("eq", "ne", "slt", "sle", "sgt", "sge")
FCMP_PREDICATES = ("oeq", "one", "olt", "ole", "ogt", "oge")
CAST_OPS = ("sitofp", "fptosi", "zext", "trunc")

COMMUTATIVE_BINOPS = frozenset({"add", "mul", "and", "or", "xor", "fadd", "fmul"})
ASSOCIATIVE_BINOPS = frozenset({"add", "mul", "and", "or", "xor", "fadd", "fmul"})


class Instruction(Value):
    """Base class: a typed value with operands, living inside a basic block."""

    __slots__ = ("operands", "parent")

    opcode = "<abstract>"

    def __init__(self, type_, operands, name=""):
        super().__init__(type_, name)
        self.parent = None
        self.operands = []
        for operand in operands:
            self._append_operand(operand)

    # -- operand plumbing ---------------------------------------------------

    def _append_operand(self, value):
        if not isinstance(value, Value):
            raise IRError(f"operand of {self.opcode} must be a Value, got {value!r}")
        index = len(self.operands)
        self.operands.append(value)
        value.add_use(self, index)

    def set_operand(self, index, value):
        """Replace operand ``index`` keeping use lists consistent."""
        old = self.operands[index]
        old.remove_use(self, index)
        self.operands[index] = value
        value.add_use(self, index)

    def drop_all_references(self):
        """Detach this instruction from every operand's use list."""
        for index, operand in enumerate(self.operands):
            operand.remove_use(self, index)
        self.operands = []

    # -- queries -------------------------------------------------------------

    @property
    def is_terminator(self):
        return isinstance(self, (Br, CondBr, Ret))

    @property
    def function(self):
        return self.parent.parent if self.parent is not None else None

    def may_write_memory(self):
        return isinstance(self, (Store, Call))

    def has_side_effects(self):
        """Conservative: may this instruction's removal change behaviour?"""
        return self.may_write_memory() or self.is_terminator or isinstance(self, Call)

    def erase_from_parent(self):
        """Remove from the containing block and drop operand references."""
        if self.parent is not None:
            self.parent.remove_instruction(self)
        self.drop_all_references()

    def __repr__(self):
        return f"<{type(self).__name__} {self.short_name()}>"


class BinaryOp(Instruction):
    """Two-operand arithmetic/bitwise operation. ``opcode`` selects the op."""

    __slots__ = ("_opcode",)

    def __init__(self, opcode, lhs, rhs, name=""):
        if opcode in INT_BINOPS:
            if not lhs.type.is_integer or lhs.type is not rhs.type:
                raise IRError(f"{opcode} requires matching integer operands")
        elif opcode in FLOAT_BINOPS:
            if not lhs.type.is_float or not rhs.type.is_float:
                raise IRError(f"{opcode} requires float operands")
        else:
            raise IRError(f"unknown binary opcode {opcode!r}")
        super().__init__(lhs.type, [lhs, rhs], name)
        self._opcode = opcode

    @property
    def opcode(self):
        return self._opcode

    @property
    def lhs(self):
        return self.operands[0]

    @property
    def rhs(self):
        return self.operands[1]

    @property
    def is_commutative(self):
        return self._opcode in COMMUTATIVE_BINOPS


class ICmp(Instruction):
    """Signed integer / pointer comparison producing ``i1``."""

    __slots__ = ("predicate",)
    opcode = "icmp"

    def __init__(self, predicate, lhs, rhs, name=""):
        if predicate not in ICMP_PREDICATES:
            raise IRError(f"unknown icmp predicate {predicate!r}")
        if lhs.type is not rhs.type or not (lhs.type.is_integer or lhs.type.is_pointer):
            raise IRError("icmp requires matching integer or pointer operands")
        super().__init__(I1, [lhs, rhs], name)
        self.predicate = predicate

    @property
    def lhs(self):
        return self.operands[0]

    @property
    def rhs(self):
        return self.operands[1]


class FCmp(Instruction):
    """Ordered floating-point comparison producing ``i1``."""

    __slots__ = ("predicate",)
    opcode = "fcmp"

    def __init__(self, predicate, lhs, rhs, name=""):
        if predicate not in FCMP_PREDICATES:
            raise IRError(f"unknown fcmp predicate {predicate!r}")
        if not lhs.type.is_float or not rhs.type.is_float:
            raise IRError("fcmp requires float operands")
        super().__init__(I1, [lhs, rhs], name)
        self.predicate = predicate

    @property
    def lhs(self):
        return self.operands[0]

    @property
    def rhs(self):
        return self.operands[1]


class Alloca(Instruction):
    """Reserve a stack slot (or array of slots) in the current frame.

    Produces a pointer to ``allocated_type``. Allocas executed inside a loop
    body allocate a *fresh* slot each execution, which is exactly what the
    runtime's cactus-stack privatization relies on.
    """

    __slots__ = ("allocated_type",)
    opcode = "alloca"

    def __init__(self, allocated_type, name=""):
        if not (allocated_type.is_scalar or allocated_type.is_array):
            raise IRError(f"cannot alloca type {allocated_type!r}")
        super().__init__(PointerType(allocated_type), [], name)
        self.allocated_type = allocated_type


class Load(Instruction):
    """Read the scalar a pointer refers to."""

    __slots__ = ()
    opcode = "load"

    def __init__(self, pointer, name=""):
        if not pointer.type.is_pointer or not pointer.type.pointee.is_scalar:
            raise IRError(f"load requires a pointer to a scalar, got {pointer.type!r}")
        super().__init__(pointer.type.pointee, [pointer], name)

    @property
    def pointer(self):
        return self.operands[0]


class Store(Instruction):
    """Write a scalar through a pointer. Produces no value."""

    __slots__ = ()
    opcode = "store"

    def __init__(self, value, pointer):
        if not pointer.type.is_pointer:
            raise IRError(f"store requires a pointer, got {pointer.type!r}")
        if pointer.type.pointee is not value.type:
            raise IRError(
                f"store type mismatch: {value.type!r} into {pointer.type!r}"
            )
        from .types import VOID

        super().__init__(VOID, [value, pointer])

    @property
    def value(self):
        return self.operands[0]

    @property
    def pointer(self):
        return self.operands[1]


class GEP(Instruction):
    """Pointer arithmetic: index into an array (``getelementptr``).

    ``pointer`` must point at an array or scalar; each index peels one array
    dimension. The result points at the element type reached after applying
    all indices. Unlike LLVM there is no leading "dereference" index — a GEP
    on ``[N x T]*`` with one index yields ``T*`` directly, which matches how
    the MiniC frontend uses it.
    """

    __slots__ = ()
    opcode = "gep"

    def __init__(self, pointer, indices, name=""):
        if not pointer.type.is_pointer:
            raise IRError(f"gep requires a pointer, got {pointer.type!r}")
        element = pointer.type.pointee
        for index in indices:
            if not index.type.is_integer:
                raise IRError("gep indices must be integers")
            if element.is_array:
                element = element.element
            elif element.is_scalar:
                # Scalar pointer + offset: pointer stays at the same type
                # (C-style p[i] on a T* parameter).
                pass
            else:
                raise IRError(f"cannot index into {element!r}")
        super().__init__(PointerType(element), [pointer] + list(indices), name)

    @property
    def pointer(self):
        return self.operands[0]

    @property
    def indices(self):
        return self.operands[1:]


class Phi(Instruction):
    """SSA phi node. Incoming pairs are kept as parallel lists.

    Operands hold the incoming *values*; ``incoming_blocks`` holds the
    matching predecessor blocks (blocks are not values in this IR).
    """

    __slots__ = ("incoming_blocks",)
    opcode = "phi"

    def __init__(self, type_, name=""):
        super().__init__(type_, [], name)
        self.incoming_blocks = []

    def add_incoming(self, value, block):
        if value.type is not self.type:
            raise IRError(
                f"phi incoming type {value.type!r} does not match {self.type!r}"
            )
        self._append_operand(value)
        self.incoming_blocks.append(block)

    def incoming(self):
        """Iterate ``(value, block)`` pairs."""
        return zip(self.operands, self.incoming_blocks)

    def incoming_for_block(self, block):
        for value, pred in self.incoming():
            if pred is block:
                return value
        raise IRError(f"phi {self.short_name()} has no incoming for {block}")

    def remove_incoming_for_block(self, block):
        for position, pred in enumerate(self.incoming_blocks):
            if pred is block:
                # Detach the operand and compact both lists; remaining
                # operands must have their use indices rebuilt.
                for index, operand in enumerate(self.operands):
                    operand.remove_use(self, index)
                del self.operands[position]
                del self.incoming_blocks[position]
                for index, operand in enumerate(self.operands):
                    operand.add_use(self, index)
                return
        raise IRError(f"phi {self.short_name()} has no incoming for {block}")


class Br(Instruction):
    """Unconditional branch."""

    __slots__ = ("target",)
    opcode = "br"

    def __init__(self, target):
        from .types import VOID

        super().__init__(VOID, [])
        self.target = target

    def successors(self):
        return [self.target]

    def replace_successor(self, old, new):
        if self.target is old:
            self.target = new


class CondBr(Instruction):
    """Two-way conditional branch on an ``i1`` condition."""

    __slots__ = ("then_block", "else_block")
    opcode = "condbr"

    def __init__(self, condition, then_block, else_block):
        if condition.type is not I1:
            raise IRError("condbr condition must be i1")
        from .types import VOID

        super().__init__(VOID, [condition])
        self.then_block = then_block
        self.else_block = else_block

    @property
    def condition(self):
        return self.operands[0]

    def successors(self):
        return [self.then_block, self.else_block]

    def replace_successor(self, old, new):
        if self.then_block is old:
            self.then_block = new
        if self.else_block is old:
            self.else_block = new


class Ret(Instruction):
    """Return from the current function, optionally with a value."""

    __slots__ = ()
    opcode = "ret"

    def __init__(self, value=None):
        from .types import VOID

        super().__init__(VOID, [] if value is None else [value])

    @property
    def value(self):
        return self.operands[0] if self.operands else None

    def successors(self):
        return []


class Call(Instruction):
    """Direct call to a function or intrinsic declared in the module."""

    __slots__ = ("callee",)
    opcode = "call"

    def __init__(self, callee, args, name=""):
        signature = callee.function_type
        if len(args) != len(signature.param_types):
            raise IRError(
                f"call to @{callee.name}: expected "
                f"{len(signature.param_types)} args, got {len(args)}"
            )
        for arg, expected in zip(args, signature.param_types):
            if arg.type is not expected:
                raise IRError(
                    f"call to @{callee.name}: argument type {arg.type!r} "
                    f"does not match {expected!r}"
                )
        super().__init__(signature.return_type, list(args), name)
        self.callee = callee

    @property
    def args(self):
        return self.operands


class Select(Instruction):
    """Ternary select: ``cond ? a : b`` without control flow."""

    __slots__ = ()
    opcode = "select"

    def __init__(self, condition, true_value, false_value, name=""):
        if condition.type is not I1:
            raise IRError("select condition must be i1")
        if true_value.type is not false_value.type:
            raise IRError("select arm types must match")
        super().__init__(true_value.type, [condition, true_value, false_value], name)

    @property
    def condition(self):
        return self.operands[0]

    @property
    def true_value(self):
        return self.operands[1]

    @property
    def false_value(self):
        return self.operands[2]


class Cast(Instruction):
    """Scalar conversion: ``sitofp``, ``fptosi``, ``zext``, ``trunc``."""

    __slots__ = ("_opcode",)

    def __init__(self, opcode, value, target_type, name=""):
        if opcode not in CAST_OPS:
            raise IRError(f"unknown cast opcode {opcode!r}")
        if opcode == "sitofp" and not (value.type.is_integer and target_type.is_float):
            raise IRError("sitofp converts int -> float")
        if opcode == "fptosi" and not (value.type.is_float and target_type.is_integer):
            raise IRError("fptosi converts float -> int")
        if opcode in ("zext", "trunc"):
            if not (value.type.is_integer and target_type.is_integer):
                raise IRError(f"{opcode} converts int -> int")
            widening = target_type.width > value.type.width
            if opcode == "zext" and not widening:
                raise IRError("zext must widen")
            if opcode == "trunc" and widening:
                raise IRError("trunc must narrow")
        super().__init__(target_type, [value], name)
        self._opcode = opcode

    @property
    def opcode(self):
        return self._opcode

    @property
    def value(self):
        return self.operands[0]


_I64 = I64  # re-export convenience for the builder
