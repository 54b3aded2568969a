"""Scalar evolution (SCEV) analysis.

This is the analysis the paper leans on to split register loop-carried
dependencies into *computable* and *non-computable* (§II-A, §III-A): a header
phi whose per-iteration value can be expressed as a closed-form function of
the iteration count — an *add recurrence* — is an induction variable (IV) or
mutual induction variable (MIV) and is never a parallelization constraint,
because each speculative thread can rematerialize it from its iteration
index.

Expression language (mirroring LLVM's ``SCEV``):

* ``SCEVConstant`` — integer literal.
* ``SCEVUnknown`` — an opaque IR value (loop-invariant or not).
* ``SCEVAdd`` / ``SCEVMul`` — n-ary folded arithmetic.
* ``SCEVAddRec`` — ``{start, +, step}<loop>``; ``step`` may itself be an add
  recurrence of the same loop, giving higher-order (polynomial) recurrences —
  the MIV case.
* ``SCEVCouldNotCompute`` — analysis gave up.

Only integer and pointer values are analyzed (LLVM's SCEV is integer-only
too); floating-point recurrences fall to the reduction detector or the value
predictors, exactly as in the paper.
"""

from __future__ import annotations

from math import comb

from ..ir.instructions import GEP, BinaryOp, Cast, Load, Phi
from ..ir.values import Argument, ConstantInt, GlobalVariable


class SCEV:
    """Base class of all scalar-evolution expressions (immutable)."""

    __slots__ = ()

    def is_invariant_in(self, loop):
        raise NotImplementedError

    def contains_marker(self):
        return False

    @property
    def is_addrec(self):
        return isinstance(self, SCEVAddRec)


class SCEVConstant(SCEV):
    __slots__ = ("value",)

    def __init__(self, value):
        self.value = int(value)

    def is_invariant_in(self, loop):
        return True

    def __eq__(self, other):
        return isinstance(other, SCEVConstant) and self.value == other.value

    def __hash__(self):
        return hash(("const", self.value))

    def __repr__(self):
        return str(self.value)


class SCEVUnknown(SCEV):
    """An opaque IR value the analysis cannot see through."""

    __slots__ = ("value",)

    def __init__(self, value):
        self.value = value

    def is_invariant_in(self, loop):
        from ..ir.instructions import Instruction

        if isinstance(self.value, (ConstantInt, Argument, GlobalVariable)):
            return True
        if isinstance(self.value, Instruction):
            return loop.is_invariant(self.value)
        return True

    def __eq__(self, other):
        return isinstance(other, SCEVUnknown) and self.value is other.value

    def __hash__(self):
        return hash(("unknown", id(self.value)))

    def __repr__(self):
        return f"%{self.value.name or '?'}"


class SCEVPhiMarker(SCEV):
    """Internal placeholder for the phi whose recurrence is being solved."""

    __slots__ = ("phi",)

    def __init__(self, phi):
        self.phi = phi

    def is_invariant_in(self, loop):
        return False

    def contains_marker(self):
        return True

    def __eq__(self, other):
        return isinstance(other, SCEVPhiMarker) and self.phi is other.phi

    def __hash__(self):
        return hash(("marker", id(self.phi)))

    def __repr__(self):
        return f"<self:{self.phi.name}>"


class SCEVNary(SCEV):
    __slots__ = ("operands",)

    def __init__(self, operands):
        self.operands = tuple(operands)

    def is_invariant_in(self, loop):
        return all(op.is_invariant_in(loop) for op in self.operands)

    def contains_marker(self):
        return any(op.contains_marker() for op in self.operands)

    def __eq__(self, other):
        return type(self) is type(other) and self.operands == other.operands

    def __hash__(self):
        return hash((type(self).__name__, self.operands))


class SCEVAdd(SCEVNary):
    def __repr__(self):
        return "(" + " + ".join(repr(op) for op in self.operands) + ")"


class SCEVMul(SCEVNary):
    def __repr__(self):
        return "(" + " * ".join(repr(op) for op in self.operands) + ")"


class SCEVAddRec(SCEV):
    """``{start, +, step}<loop>`` — value at iteration *n* is
    ``start + sum_{k<n} step(k)``."""

    __slots__ = ("start", "step", "loop")

    def __init__(self, start, step, loop):
        self.start = start
        self.step = step
        self.loop = loop

    def is_invariant_in(self, loop):
        if loop.contains_loop(self.loop) or self.loop is loop:
            return False
        # An addrec of an inner/unrelated loop varies there; it is invariant
        # in `loop` only if that loop doesn't contain the addrec's loop and
        # its start/step are invariant.
        if self.loop.contains_loop(loop):
            return False
        return self.start.is_invariant_in(loop) and self.step.is_invariant_in(loop)

    def contains_marker(self):
        return self.start.contains_marker() or self.step.contains_marker()

    def is_affine(self):
        return not self.step.is_addrec

    def is_fully_computable(self):
        """True when every leaf is a constant or an expression invariant in
        the recurrence's loop — the paper's "computable" criterion."""
        def check(expr):
            if isinstance(expr, SCEVAddRec):
                return check(expr.start) and check(expr.step)
            if isinstance(expr, (SCEVConstant,)):
                return True
            if isinstance(expr, (SCEVAdd, SCEVMul)):
                return all(check(op) for op in expr.operands)
            if isinstance(expr, SCEVUnknown):
                return expr.is_invariant_in(self.loop)
            return False

        return check(self.start) and check(self.step)

    def evaluate_at(self, iteration):
        """Closed-form value at a 0-based iteration index.

        Only valid when every leaf is a :class:`SCEVConstant`; used by tests
        to cross-check recurrence extraction against interpretation.
        ``{a,+,b,+,c,...}`` evaluates via the binomial formula
        ``sum_i coeff_i * C(n, i)``.
        """
        coefficients = []
        expr = self
        while isinstance(expr, SCEVAddRec):
            if not isinstance(expr.start, SCEVConstant):
                raise ValueError("evaluate_at requires constant coefficients")
            coefficients.append(expr.start.value)
            expr = expr.step
        if not isinstance(expr, SCEVConstant):
            raise ValueError("evaluate_at requires constant coefficients")
        coefficients.append(expr.value)
        return sum(
            coeff * comb(iteration, order)
            for order, coeff in enumerate(coefficients)
        )

    def __eq__(self, other):
        return (
            isinstance(other, SCEVAddRec)
            and self.start == other.start
            and self.step == other.step
            and self.loop is other.loop
        )

    def __hash__(self):
        return hash(("addrec", self.start, self.step, id(self.loop)))

    def __repr__(self):
        return f"{{{self.start!r},+,{self.step!r}}}<{self.loop.loop_id}>"


class SCEVCouldNotCompute(SCEV):
    _instance = None

    def __new__(cls):
        if cls._instance is None:
            cls._instance = super().__new__(cls)
        return cls._instance

    def is_invariant_in(self, loop):
        return False

    def __repr__(self):
        return "<could-not-compute>"


COULD_NOT_COMPUTE = SCEVCouldNotCompute()
ZERO = SCEVConstant(0)


# -- folding constructors -----------------------------------------------------


def scev_add(*operands):
    """N-ary folded addition."""
    flat = []
    for op in operands:
        if isinstance(op, SCEVCouldNotCompute):
            return COULD_NOT_COMPUTE
        if isinstance(op, SCEVAdd):
            flat.extend(op.operands)
        else:
            flat.append(op)

    constant = 0
    addrecs = {}
    rest = []
    for op in flat:
        if isinstance(op, SCEVConstant):
            constant += op.value
        elif isinstance(op, SCEVAddRec):
            key = id(op.loop)
            if key in addrecs:
                prior = addrecs[key]
                addrecs[key] = SCEVAddRec(
                    scev_add(prior.start, op.start),
                    scev_add(prior.step, op.step),
                    op.loop,
                )
            else:
                addrecs[key] = op
        else:
            rest.append(op)

    # Fold invariant terms into addrec starts (one addrec at a time).
    merged_addrecs = list(addrecs.values())
    if merged_addrecs:
        primary = merged_addrecs[0]
        absorbed = []
        for term in rest:
            if term.is_invariant_in(primary.loop) and not term.contains_marker():
                absorbed.append(term)
        for term in absorbed:
            rest.remove(term)
        if absorbed or constant:
            new_start = scev_add(primary.start, SCEVConstant(constant), *absorbed)
            constant = 0
            merged_addrecs[0] = SCEVAddRec(new_start, primary.step, primary.loop)

    terms = merged_addrecs + rest
    if constant:
        terms.append(SCEVConstant(constant))
    if not terms:
        return ZERO
    if len(terms) == 1:
        return terms[0]
    return SCEVAdd(terms)


def scev_negate(operand):
    return scev_mul(SCEVConstant(-1), operand)


def scev_sub(lhs, rhs):
    return scev_add(lhs, scev_negate(rhs))


def scev_mul(*operands):
    """N-ary folded multiplication (constants distribute over adds/addrecs)."""
    flat = []
    for op in operands:
        if isinstance(op, SCEVCouldNotCompute):
            return COULD_NOT_COMPUTE
        if isinstance(op, SCEVMul):
            flat.extend(op.operands)
        else:
            flat.append(op)

    constant = 1
    rest = []
    for op in flat:
        if isinstance(op, SCEVConstant):
            constant *= op.value
        else:
            rest.append(op)

    if constant == 0:
        return ZERO
    if not rest:
        return SCEVConstant(constant)
    if constant != 1 and len(rest) == 1:
        single = rest[0]
        if isinstance(single, SCEVAdd):
            return scev_add(
                *[scev_mul(SCEVConstant(constant), op) for op in single.operands]
            )
        if isinstance(single, SCEVAddRec):
            return SCEVAddRec(
                scev_mul(SCEVConstant(constant), single.start),
                scev_mul(SCEVConstant(constant), single.step),
                single.loop,
            )
    # A product containing the phi marker is non-linear in the phi — poison
    # it so the recurrence solver rejects geometric updates like `i = i * 2`.
    if any(op.contains_marker() for op in rest):
        return COULD_NOT_COMPUTE
    terms = ([SCEVConstant(constant)] if constant != 1 else []) + rest
    if len(terms) == 1:
        return terms[0]
    return SCEVMul(terms)


# -- module-constant globals ---------------------------------------------------


def constant_scalar_globals(module):
    """``{GlobalVariable: int}`` for every scalar integer global whose value
    is provably its initializer for the whole execution: every use in the
    module is the pointer operand of a ``load``. No store names it, and its
    address never escapes (never passed to a call, GEP'd, or stored as a
    value), so no aliasing route can write it either. Loads of such globals
    fold to constants — the fold that turns ``A[i*N + j]`` subscripts affine
    when ``N`` is a read-only dimension global.
    """
    result = {}
    for variable in module.globals.values():
        allocated = variable.allocated_type
        if allocated.is_array or not allocated.is_integer:
            continue
        if not variable.uses:
            continue
        if not all(isinstance(user, Load) for user, _ in variable.uses):
            continue
        initializer = variable.initializer
        if initializer is None:
            initializer = 0
        if not isinstance(initializer, int):
            continue
        result[variable] = allocated.wrap(initializer)
    return result


# -- the analysis ---------------------------------------------------------------


class ScalarEvolution:
    """Per-function SCEV analysis.

    Usage::

        scev = ScalarEvolution(function, loop_info)
        expr = scev.get(value)
        scev.is_computable_phi(phi)   # the paper's IV/MIV test
    """

    def __init__(self, function, loop_info):
        self.function = function
        self.loop_info = loop_info
        self.cfg = loop_info.cfg
        self._cache = {}
        self._pending = set()
        module = getattr(function, "module", None)
        self._constant_globals = (
            constant_scalar_globals(module) if module is not None else {})

    # -- public API -------------------------------------------------------------

    def get(self, value):
        """SCEV expression for an IR value (cached)."""
        cached = self._cache.get(id(value))
        if cached is not None:
            return cached
        expr = self._compute(value)
        self._cache[id(value)] = expr
        return expr

    def is_computable_phi(self, phi):
        """Is this header phi a computable IV/MIV per the paper's criterion?"""
        expr = self.get(phi)
        return isinstance(expr, SCEVAddRec) and expr.is_fully_computable()

    def trip_count(self, loop):
        """Constant trip count if the loop has the canonical shape
        ``condbr (icmp slt/sle {a,+,b}, N)`` with constant a, b > 0, N;
        otherwise ``None``. A best-effort helper used by indvars and tests."""
        from ..ir.instructions import CondBr, ICmp

        latch = loop.single_latch()
        exiting = None
        for block in (latch, loop.header):
            if block is None:
                continue
            terminator = block.terminator
            if isinstance(terminator, CondBr) and any(
                succ not in loop.blocks for succ in terminator.successors()
            ):
                exiting = terminator
                break
        if exiting is None:
            return None
        condition = exiting.condition
        if not isinstance(condition, ICmp):
            return None
        lhs, rhs = self.get(condition.lhs), self.get(condition.rhs)
        predicate = condition.predicate
        # Normalize so the addrec is on the left.
        swap = {"slt": "sgt", "sle": "sge", "sgt": "slt", "sge": "sle",
                "eq": "eq", "ne": "ne"}
        if not (isinstance(lhs, SCEVAddRec) and lhs.loop is loop):
            lhs, rhs = rhs, lhs
            predicate = swap[predicate]
        if not (isinstance(lhs, SCEVAddRec) and lhs.loop is loop):
            return None
        if not (isinstance(lhs.start, SCEVConstant) and isinstance(lhs.step, SCEVConstant)):
            return None
        if not isinstance(rhs, SCEVConstant):
            return None
        start, step, bound = lhs.start.value, lhs.step.value, rhs.value
        if step <= 0:
            return None
        loop_continues_if_true = exiting.then_block in loop.blocks
        if predicate == "slt" and loop_continues_if_true:
            remaining = bound - start
        elif predicate == "sle" and loop_continues_if_true:
            remaining = bound - start + 1
        elif predicate in ("sge", "sgt") and not loop_continues_if_true:
            remaining = (bound - start + (0 if predicate == "sge" else 1))
        else:
            return None
        if remaining <= 0:
            return None
        return (remaining + step - 1) // step

    # -- computation ------------------------------------------------------------

    def _compute(self, value):
        if isinstance(value, ConstantInt):
            return SCEVConstant(value.value)
        if isinstance(value, Phi):
            return self._compute_phi(value)
        if isinstance(value, BinaryOp):
            return self._compute_binop(value)
        if isinstance(value, Cast):
            if value.opcode in ("zext", "trunc"):
                # Widths don't affect the limit-study classification; look
                # through the cast like LLVM's sext/zext addrec extension.
                return self.get(value.value)
            return SCEVUnknown(value)
        if isinstance(value, GEP):
            return self._compute_gep(value)
        if isinstance(value, Load):
            folded = self._constant_globals.get(value.pointer)
            if folded is not None:
                return SCEVConstant(folded)
        return SCEVUnknown(value)

    def _compute_phi(self, phi):
        block = phi.parent
        loop = self.loop_info.loop_for_block(block)
        if loop is None or loop.header is not block:
            return SCEVUnknown(phi)
        if len(phi.operands) != 2:
            return SCEVUnknown(phi)
        if id(phi) in self._pending:
            # Mutual recursion through a *different* pending phi: give up on
            # this path (the marker path is handled below).
            return COULD_NOT_COMPUTE

        latch = loop.single_latch()
        if latch is None:
            return SCEVUnknown(phi)
        init_value = latch_value = None
        for incoming_value, incoming_block in phi.incoming():
            if incoming_block in loop.blocks:
                latch_value = incoming_value
            else:
                init_value = incoming_value
        if init_value is None or latch_value is None:
            return SCEVUnknown(phi)

        marker = SCEVPhiMarker(phi)
        self._pending.add(id(phi))
        saved_cache = self._cache
        # Recurrence solving uses a scratch cache poisoned with the marker, so
        # cached entries never leak marker expressions.
        self._cache = {id(phi): marker}
        try:
            symbolic = self.get(latch_value)
        finally:
            self._cache = saved_cache
            self._pending.discard(id(phi))

        step = self._extract_step(symbolic, marker)
        if step is None:
            return SCEVUnknown(phi)
        if not step.is_invariant_in(loop) and not (
            isinstance(step, SCEVAddRec) and step.loop is loop
        ):
            return SCEVUnknown(phi)
        start = self.get(init_value)
        if isinstance(start, SCEVCouldNotCompute):
            start = SCEVUnknown(init_value)
        return SCEVAddRec(start, step, loop)

    @staticmethod
    def _extract_step(symbolic, marker):
        """Given ``scev(latch_value)`` with the phi replaced by ``marker``,
        return the step expression if the form is ``marker + step``."""
        if symbolic == marker:
            return ZERO
        if isinstance(symbolic, SCEVAdd):
            marker_terms = [op for op in symbolic.operands if op == marker]
            other_terms = [op for op in symbolic.operands if op != marker]
            if len(marker_terms) == 1 and not any(
                op.contains_marker() for op in other_terms
            ):
                return scev_add(*other_terms)
        return None

    def _compute_binop(self, instruction):
        opcode = instruction.opcode
        lhs = self.get(instruction.lhs)
        rhs = self.get(instruction.rhs)
        if opcode == "add":
            return scev_add(lhs, rhs)
        if opcode == "sub":
            return scev_sub(lhs, rhs)
        if opcode == "mul":
            return scev_mul(lhs, rhs)
        if opcode == "shl" and isinstance(rhs, SCEVConstant):
            return scev_mul(lhs, SCEVConstant(1 << rhs.value))
        if lhs.contains_marker() or rhs.contains_marker():
            return COULD_NOT_COMPUTE
        return SCEVUnknown(instruction)

    def _compute_gep(self, instruction):
        """Pointer arithmetic folds to base + scaled indices in the IR's
        slot-addressed memory model, so pointer IVs become addrecs too."""
        expr = self.get(instruction.pointer)
        element = instruction.pointer.type.pointee
        for index in instruction.indices:
            if element.is_array:
                scale = element.element.size_in_slots()
                element = element.element
            else:
                scale = element.size_in_slots()
            index_expr = self.get(index)
            expr = scev_add(expr, scev_mul(SCEVConstant(scale), index_expr))
            if isinstance(expr, SCEVCouldNotCompute):
                return SCEVUnknown(instruction)
        return expr
