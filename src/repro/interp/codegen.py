"""Block-template JIT: lower verified IR functions to Python source.

Instead of interpreting the IR one instruction at a time, each function
is lowered once to a Python function whose body is straight-line code:

* every SSA value becomes a local variable (``r0``, ``r1``, ...);
* ``_wrap32`` arithmetic, comparisons, and GEP address math are inlined as
  expressions (the 32-bit wrap is the branch-free
  ``((x + 2**31) & (2**32 - 1)) - 2**31``);
* phis are resolved by parallel copies emitted on each predecessor edge;
* control flow is a ``while True`` over integer block labels dispatched by
  an ``if``/``elif`` chain.

Two variants exist per function. The *uninstrumented* one has zero
callback overhead — no runtime, no timestamps, just the fuel charge per
block. The *instrumented* one batches memory and register-LCD events of
each call-free block into flat lists flushed once per block through
:meth:`ProfilingRuntime.deliver_block_events`; blocks containing calls
emit events immediately (callee events and call records interleave).

The dynamic cost lives in a local ``_cost`` synced to ``machine.cost`` in
a ``try``/``finally`` and around every call, so fuel accounting and every
event timestamp match the reference interpreter bit for bit (enforced by
``tests/test_differential_backends.py``).

With ``vectorize=True`` (the ``vec`` backend) the emitter additionally
consults :mod:`repro.interp.veccodegen`: innermost loops proved
STATIC_DOALL with affine accesses and an exactly-known trip count get a
*vector section* planted on the preheader's branch — the whole loop runs
as NumPy array operations with profile events derived in closed form,
and any runtime guard failure falls through to the unmodified scalar
path for that invocation.

Generated sources are cached in-process (keyed by IR text + plan + flags)
and on disk via :class:`repro.runtime.profile_store.CodeCache` with a
tier tag (``jit`` vs ``vec``); set ``REPRO_JIT_DUMP=<dir>`` to dump each
generated source for debugging. Anything the emitter cannot lower raises
:class:`CodegenUnsupported` and the interpreter silently falls back to
the reference interpreter for that one function.
"""

from __future__ import annotations

import hashlib
import json
import math
import os
import pathlib

from ..ir.instructions import (
    GEP,
    Alloca,
    BinaryOp,
    Br,
    Call,
    Cast,
    CondBr,
    FCmp,
    ICmp,
    Load,
    Phi,
    Ret,
    Select,
    Store,
)
from ..ir.printer import print_function
from ..ir.values import ConstantFloat, ConstantInt, GlobalVariable
from .interpreter import (
    _alloc_zero_is_float,
    signed_div,
    signed_rem,
    unsigned_div,
    unsigned_rem,
)
from .intrinsics import INTRINSICS
from .veccodegen import (
    VEC_VERSION,
    emit_vec_section,
    plan_vector_loops,
    vec_available,
    vec_namespace,
)

#: Bump whenever the generated-source template changes; part of the code
#: cache key, so stale cached sources are never reused.
CODEGEN_VERSION = 2


class CodegenUnsupported(Exception):
    """The function uses a construct the template JIT cannot lower; the
    caller falls back to the reference interpreter for that function."""


_ICMP = {"eq": "==", "ne": "!=", "slt": "<", "sle": "<=", "sgt": ">", "sge": ">="}
_FCMP = {"oeq": "==", "one": "!=", "olt": "<", "ole": "<=", "ogt": ">", "oge": ">="}

# Branch-free 32-bit two's-complement wrap of an expression known to be an
# int: ((x + 2**31) & (2**32 - 1)) - 2**31  ==  _wrap32(x)  for all ints.
_WRAP_ADD = "(({a} + {b} + 2147483648) & 4294967295) - 2147483648"
_WRAP_SUB = "(({a} - {b} + 2147483648) & 4294967295) - 2147483648"
_WRAP_MUL = "(({a} * {b} + 2147483648) & 4294967295) - 2147483648"


def _intrinsic_signature():
    """Costs baked into generated sources; part of the cache key."""
    return ";".join(f"{name}:{info.cost}" for name, info in sorted(INTRINSICS.items()))


def _canonical_plan(function, plan):
    """Serialize a :class:`FunctionInstrumentation` plan with id()-keyed
    structures mapped to stable labels (args ``aN``, blocks ``bN``,
    instructions ``vB.I``) so identical plans on identical IR hash equally
    across processes."""
    if plan is None:
        return "none"
    labels = {}
    for index, argument in enumerate(function.arguments):
        labels[id(argument)] = f"a{index}"
    for b_index, block in enumerate(function.blocks):
        labels[id(block)] = f"b{b_index}"
        for i_index, instruction in enumerate(block.instructions):
            labels[id(instruction)] = f"v{b_index}.{i_index}"

    def ref(value):
        if isinstance(value, ConstantInt):
            return f"ci:{value.value}"
        if isinstance(value, ConstantFloat):
            return f"cf:{value.value!r}"
        if isinstance(value, GlobalVariable):
            return f"g:{value.name}"
        label = labels.get(id(value))
        if label is None:
            raise CodegenUnsupported(f"unlabelable plan reference {value!r}")
        return label

    try:
        data = {
            "edges": sorted(
                (f"{labels[p]}->{labels[s]}", list(actions))
                for (p, s), actions in plan.edge_actions.items()
            ),
            "latch": sorted(
                (
                    f"{labels[p]}->{labels[s]}",
                    [(phi_key, ref(value)) for phi_key, value in specs],
                )
                for (p, s), specs in plan.latch_values.items()
            ),
            "defs": sorted(
                (labels[key], list(entries))
                for key, entries in plan.def_hooks.items()
            ),
            "uses": sorted(
                (labels[key], list(entries))
                for key, entries in plan.use_hooks.items()
            ),
            "calls": sorted(
                (labels[key], site) for key, site in plan.call_sites.items()
            ),
            "call_uses": sorted(
                (labels[key], list(sites))
                for key, sites in plan.call_use_hooks.items()
            ),
        }
    except KeyError as error:
        raise CodegenUnsupported(f"plan references unknown entity: {error}")
    return json.dumps(data, sort_keys=True, default=repr)


def jit_cache_key(function, plan, instrumented, vectorize=False):
    """Content hash identifying one generated source: codegen version,
    intrinsic cost table, variant, tier (scalar vs vector, with the
    vector template version), pipeline fingerprint, instrumentation plan,
    and the printed IR of the function.

    The pipeline fingerprint matters even though the IR is hashed: two
    pipeline configurations can print byte-identical IR for one function
    while other compiled artifacts keyed alongside it (vector plans,
    static metadata) differ — and a pipeline version bump must invalidate
    everything it ever produced. Functions outside any module (unit-test
    fixtures) hash the ``unpipelined`` token."""
    module = getattr(function, "module", None)
    fingerprint = getattr(module, "pipeline_fingerprint", None) \
        if module is not None else None
    tier = f"v{VEC_VERSION}" if vectorize else "nv"
    tag = (
        f"{CODEGEN_VERSION}|{int(bool(instrumented))}|{tier}|"
        f"{fingerprint or 'unpipelined'}|"
        f"{_intrinsic_signature()}|"
    )
    plan_text = _canonical_plan(function, plan) if instrumented else "none"
    digest = hashlib.sha256()
    digest.update(tag.encode("utf-8"))
    digest.update(plan_text.encode("utf-8"))
    digest.update(b"|")
    digest.update(print_function(function).encode("utf-8"))
    return digest.hexdigest()


class _Emitter:
    """Builds the generated source for one (function, plan, variant)."""

    def __init__(self, function, plan, instrumented, vectorize=False):
        self.function = function
        # The uninstrumented variant ignores the plan entirely: the
        # reference interpreter fires no hook without a runtime attached.
        self.plan = plan if instrumented else None
        self.instrumented = instrumented
        self.vectorize = vectorize
        self.vec_loops = {}     # id(preheader block) -> VecLoopPlan
        self.vec_decisions = []
        self.labels = {}        # id(block) -> int label
        self.reg = {}           # id(value) -> local name
        self.batch = {}         # id(block) -> bool
        self.flush = {}         # id(block) -> bool
        self.globals_used = {}  # global name -> prologue local
        self.funcs_used = {}    # function name -> prologue local
        self.intr_used = {}     # intrinsic name -> prologue local
        self.needs = set()      # prologue helpers actually referenced

    # -- naming -----------------------------------------------------------------

    def _global_local(self, name):
        local = self.globals_used.get(name)
        if local is None:
            local = f"_gb{len(self.globals_used)}"
            self.globals_used[name] = local
        return local

    def _func_local(self, name):
        local = self.funcs_used.get(name)
        if local is None:
            local = f"_fn{len(self.funcs_used)}"
            self.funcs_used[name] = local
        return local

    def _intrinsic_local(self, name):
        local = self.intr_used.get(name)
        if local is None:
            local = f"_im{len(self.intr_used)}"
            self.intr_used[name] = local
        return local

    def expr(self, value):
        """Atomic expression for an operand: a local, or a literal."""
        if isinstance(value, ConstantInt):
            text = repr(value.value)
            return f"({text})" if value.value < 0 else text
        if isinstance(value, ConstantFloat):
            number = value.value
            if not math.isfinite(number):
                raise CodegenUnsupported(f"non-finite float constant {number!r}")
            text = repr(number)
            return f"({text})" if number < 0 else text
        if isinstance(value, GlobalVariable):
            return self._global_local(value.name)
        name = self.reg.get(id(value))
        if name is None:
            raise CodegenUnsupported(f"unsupported operand {value!r}")
        return name

    # -- top level --------------------------------------------------------------

    def generate(self):
        function = self.function
        blocks = function.blocks
        if not blocks:
            raise CodegenUnsupported(f"@{function.name} has no body")
        plan = self.plan

        for index, block in enumerate(blocks):
            self.labels[id(block)] = index
        for index, argument in enumerate(function.arguments):
            self.reg[id(argument)] = f"r{index}"
        counter = len(function.arguments)
        for block in blocks:
            for instruction in block.instructions:
                if not instruction.type.is_void:
                    self.reg[id(instruction)] = f"r{counter}"
                    counter += 1

        if self.vectorize:
            self.vec_loops, self.vec_decisions = plan_vector_loops(
                function, self.plan, self.instrumented
            )

        for block in blocks:
            if not self.instrumented:
                self.batch[id(block)] = False
                self.flush[id(block)] = False
                continue
            batch = not any(
                isinstance(i, Call)
                or (plan is not None and plan.call_use_hooks.get(id(i)))
                for i in block.instructions
            )
            self.batch[id(block)] = batch
            self.flush[id(block)] = batch and self._block_has_events(block)

        body = []  # (indent, text) relative to the dispatch arm
        for index, block in enumerate(blocks):
            arm = "if" if index == 0 else "elif"
            body.append((0, f"{arm} _L == {index}:"))
            body.extend(self._block_lines(block))

        return self._assemble(body)

    def _block_has_events(self, block):
        """Whether a batched block (or its incoming phi hooks) ever appends
        to the event lists, i.e. whether it needs a flush."""
        plan = self.plan
        for instruction in block.instructions:
            if isinstance(instruction, (Load, Store)):
                return True
            if plan is not None and (
                plan.def_hooks.get(id(instruction))
                or plan.use_hooks.get(id(instruction))
            ):
                return True
        return False

    def _assemble(self, body):
        function = self.function
        lines = [(0, "def _jit_run(machine, _args):")]
        if "space" in self.needs:
            lines.append((1, "_space = machine.space"))
        if "load" in self.needs:
            lines.append((1, "_load = _space.load"))
        if "store" in self.needs:
            lines.append((1, "_store = _space.store"))
        if "alloc" in self.needs:
            lines.append((1, "_alloc = _space.allocate"))
        lines.append((1, "_fuel = machine.fuel"))
        if self.instrumented:
            lines.append((1, "_rt = machine.runtime"))
        if "marks" in self.needs:
            lines.append((1, "_marks = _rt.current_marks"))
        if "deliver" in self.needs:
            lines.append((1, "_deliver = _rt.deliver_block_events"))
            lines.append((1, "_mem = []"))
            lines.append((1, "_lcd = []"))
        for name, local in self.globals_used.items():
            lines.append((1, f"{local} = machine.global_bases[{name!r}]"))
        for name, local in self.funcs_used.items():
            lines.append((1, f"{local} = machine.module.get_function({name!r})"))
        for name, local in self.intr_used.items():
            lines.append(
                (1, f"{local} = machine.module.get_function({name!r})"
                    ".intrinsic.implementation")
            )
        for index in range(len(function.arguments)):
            lines.append((1, f"r{index} = _args[{index}]"))
        lines.append((1, "_cost = machine.cost"))
        lines.append((1, "try:"))
        entry_label = self.labels[id(function.entry_block)]
        lines.append((2, f"_L = {entry_label}"))
        lines.append((2, "while True:"))
        for indent, text in body:
            lines.append((3 + indent, text))
        lines.append((1, "finally:"))
        lines.append((2, "machine.cost = _cost"))
        return "\n".join("    " * indent + text for indent, text in lines) + "\n"

    # -- blocks -----------------------------------------------------------------

    def _block_lines(self, block):
        """Lines for one dispatch arm, indents relative to the arm body."""
        out = []
        cost = len(block.instructions)
        if self.instrumented:
            out.append((1, "_base = _cost"))
            out.append((1, f"_cost = _base + {cost}"))
        else:
            out.append((1, f"_cost += {cost}"))
        out.append((1, "if _cost > _fuel: raise _FuelExhausted(_fuel)"))

        batch = self.batch[id(block)]
        terminator = None
        terminator_position = None
        for position, instruction in enumerate(block.instructions):
            if isinstance(instruction, Phi):
                continue  # resolved on predecessor edges; still costs a slot
            if instruction.is_terminator:
                terminator = instruction
                terminator_position = position
                continue
            for text in self._op_lines(instruction, position, batch):
                out.append((1, text))

        if terminator is None:
            raise CodegenUnsupported(
                f"block {block.name} in @{self.function.name} lacks a terminator"
            )

        # LCD-use hooks on the terminator fire at base + position.
        plan = self.plan
        if plan is not None:
            for loop_id, phi_key in plan.use_hooks.get(id(terminator), ()):
                out.append((1, self._lcd_line(
                    False, loop_id, phi_key, f"_base + {terminator_position}", batch
                )))

        if self.flush[id(block)]:
            self.needs.add("deliver")
            out.append((1, "_deliver(_mem, _lcd)"))
            out.append((1, "del _mem[:]"))
            out.append((1, "del _lcd[:]"))

        out.extend(self._terminator_lines(block, terminator))
        return out

    # -- terminators and edges ---------------------------------------------------

    def _terminator_lines(self, block, terminator):
        out = []
        if isinstance(terminator, Ret):
            if terminator.value is None:
                out.append((1, "return None"))
            else:
                out.append((1, f"return {self.expr(terminator.value)}"))
            return out
        if isinstance(terminator, Br):
            target = terminator.target
            vec = self.vec_loops.get(id(block))
            if vec is not None and target is vec.header:
                # Vector fast path first; falling through it lands on the
                # unmodified scalar entry edge below.
                out.extend(emit_vec_section(self, vec))
            for text in self._edge_lines(block, target):
                out.append((1, text))
            out.append((1, f"_L = {self.labels[id(target)]}"))
            out.append((1, "continue"))
            return out
        if isinstance(terminator, CondBr):
            condition = self.expr(terminator.condition)
            then_block, else_block = terminator.then_block, terminator.else_block
            then_code = self._edge_lines(block, then_block)
            else_code = self._edge_lines(block, else_block)
            then_label = self.labels[id(then_block)]
            else_label = self.labels[id(else_block)]
            if not then_code and not else_code:
                out.append(
                    (1, f"_L = {then_label} if {condition} else {else_label}")
                )
                out.append((1, "continue"))
                return out
            out.append((1, f"if {condition}:"))
            for text in then_code:
                out.append((2, text))
            out.append((2, f"_L = {then_label}"))
            out.append((1, "else:"))
            for text in else_code:
                out.append((2, text))
            out.append((2, f"_L = {else_label}"))
            out.append((1, "continue"))
            return out
        raise CodegenUnsupported(f"unknown terminator {terminator!r}")

    def _edge_lines(self, pred, succ, skip_actions=False):
        """Code run when control flows pred -> succ, in the reference
        interpreter's order: edge actions at the current cost, then the
        parallel phi copies, then the phi def/use hooks.
        ``skip_actions`` serves the vector sections, whose bulk delivery
        has already produced the edge's loop events."""
        out = []
        plan = self.plan
        edge_key = (id(pred), id(succ))
        if plan is not None and not skip_actions:
            actions = plan.edge_actions.get(edge_key)
            if actions:
                for kind, loop_id in actions:
                    if kind == "iter":
                        specs = plan.latch_values.get(edge_key, ())
                        values = ", ".join(
                            f"({phi_key!r}, {self.expr(value)})"
                            for phi_key, value in specs
                        )
                        out.append(
                            f"_rt.loop_iter({loop_id!r}, _cost, [{values}])"
                        )
                    elif kind == "enter":
                        out.append(f"_rt.loop_enter({loop_id!r}, _cost)")
                    else:
                        out.append(f"_rt.loop_exit({loop_id!r}, _cost)")

        phis = [i for i in succ.instructions if isinstance(i, Phi)]
        if phis:
            moves = []
            for phi in phis:
                for value, incoming_pred in phi.incoming():
                    if incoming_pred is pred:
                        moves.append((self.reg[id(phi)], self.expr(value)))
                        break
                else:
                    raise CodegenUnsupported(
                        f"phi {phi!r} lacks an incoming value for {pred.name}"
                    )
            if len(moves) == 1:
                out.append(f"{moves[0][0]} = {moves[0][1]}")
            else:
                dsts = ", ".join(dst for dst, _ in moves)
                srcs = ", ".join(src for _, src in moves)
                out.append(f"{dsts} = {srcs}")
            if plan is not None:
                succ_batch = self.batch[id(succ)]
                for phi in phis:
                    for loop_id, phi_key in plan.def_hooks.get(id(phi), ()):
                        out.append(self._lcd_line(
                            True, loop_id, phi_key, "_cost", succ_batch
                        ))
                    for loop_id, phi_key in plan.use_hooks.get(id(phi), ()):
                        out.append(self._lcd_line(
                            False, loop_id, phi_key, "_cost", succ_batch
                        ))
        return out

    def _lcd_line(self, is_def, loop_id, phi_key, ts_expr, batch):
        if batch:
            self.needs.add("deliver")
            return (
                f"_lcd.append(({is_def!r}, {loop_id!r}, {phi_key!r}, {ts_expr}))"
            )
        if is_def:
            return f"_rt.lcd_def({loop_id!r}, {phi_key!r}, {ts_expr})"
        return f"_rt.lcd_use({loop_id!r}, {phi_key!r}, {ts_expr})"

    # -- instructions -------------------------------------------------------------

    def _op_lines(self, instruction, position, batch):
        lines = []
        plan = self.plan
        if plan is not None:
            for site_id in plan.call_use_hooks.get(id(instruction), ()):
                # Result-use hooks fire before the consumer executes.
                lines.append(
                    f"_rt.call_result_use({site_id!r}, _base + {position})"
                )
        lines.extend(self._core_lines(instruction, position, batch))
        if plan is not None:
            for loop_id, phi_key in plan.def_hooks.get(id(instruction), ()):
                lines.append(self._lcd_line(
                    True, loop_id, phi_key, f"_base + {position}", batch
                ))
            for loop_id, phi_key in plan.use_hooks.get(id(instruction), ()):
                lines.append(self._lcd_line(
                    False, loop_id, phi_key, f"_base + {position}", batch
                ))
        return lines

    def _core_lines(self, instruction, position, batch):
        expr = self.expr
        if isinstance(instruction, BinaryOp):
            dst = self.reg[id(instruction)]
            return self._binop_lines(instruction, dst)

        if isinstance(instruction, ICmp):
            dst = self.reg[id(instruction)]
            operator = _ICMP.get(instruction.predicate)
            if operator is None:
                raise CodegenUnsupported(f"icmp {instruction.predicate}")
            return [
                f"{dst} = 1 if {expr(instruction.lhs)} {operator} "
                f"{expr(instruction.rhs)} else 0"
            ]

        if isinstance(instruction, FCmp):
            dst = self.reg[id(instruction)]
            operator = _FCMP.get(instruction.predicate)
            if operator is None:
                raise CodegenUnsupported(f"fcmp {instruction.predicate}")
            return [
                f"{dst} = 1 if {expr(instruction.lhs)} {operator} "
                f"{expr(instruction.rhs)} else 0"
            ]

        if isinstance(instruction, Alloca):
            dst = self.reg[id(instruction)]
            size = instruction.allocated_type.size_in_slots()
            zero = "0.0" if _alloc_zero_is_float(instruction.allocated_type) else "0"
            self.needs.update(("space", "alloc"))
            if self.instrumented:
                self.needs.add("marks")
                return [f"{dst} = _alloc({size}, {zero}, _marks())"]
            return [f"{dst} = _alloc({size}, {zero}, None)"]

        if isinstance(instruction, Load):
            dst = self.reg[id(instruction)]
            pointer = expr(instruction.pointer)
            self.needs.update(("space", "load"))
            lines = [f"{dst} = _load({pointer})"]
            if self.instrumented:
                if batch:
                    self.needs.add("deliver")
                    lines.append(
                        f"_mem.append((False, {pointer}, _base + {position}))"
                    )
                else:
                    lines.append(f"_rt.mem_read({pointer}, _base + {position})")
            return lines

        if isinstance(instruction, Store):
            pointer = expr(instruction.pointer)
            value = expr(instruction.value)
            self.needs.update(("space", "store"))
            lines = [f"_store({pointer}, {value})"]
            if self.instrumented:
                if batch:
                    self.needs.add("deliver")
                    lines.append(
                        f"_mem.append((True, {pointer}, _base + {position}))"
                    )
                else:
                    lines.append(f"_rt.mem_write({pointer}, _base + {position})")
            return lines

        if isinstance(instruction, GEP):
            dst = self.reg[id(instruction)]
            terms = [expr(instruction.pointer)]
            element = instruction.pointer.type.pointee
            for index in instruction.indices:
                if element.is_array:
                    scale = element.element.size_in_slots()
                    element = element.element
                else:
                    scale = element.size_in_slots()
                index_expr = expr(index)
                terms.append(
                    index_expr if scale == 1 else f"{scale} * {index_expr}"
                )
            return [f"{dst} = " + " + ".join(terms)]

        if isinstance(instruction, Call):
            return self._call_lines(instruction)

        if isinstance(instruction, Select):
            dst = self.reg[id(instruction)]
            return [
                f"{dst} = {expr(instruction.true_value)} "
                f"if {expr(instruction.condition)} "
                f"else {expr(instruction.false_value)}"
            ]

        if isinstance(instruction, Cast):
            dst = self.reg[id(instruction)]
            value = expr(instruction.value)
            opcode = instruction.opcode
            if opcode == "sitofp":
                return [f"{dst} = float({value})"]
            if opcode == "fptosi":
                return [
                    f"{dst} = ((int({value}) + 2147483648) & 4294967295)"
                    " - 2147483648"
                ]
            if opcode == "zext":
                return [f"{dst} = {value}"]
            if opcode == "trunc":
                width = instruction.type.width
                if width == 1:
                    return [f"{dst} = {value} & 1"]
                mask = (1 << width) - 1
                half = 1 << (width - 1)
                span = 1 << width
                return [
                    f"{dst} = {value} & {mask}",
                    f"if {dst} >= {half}: {dst} -= {span}",
                ]
            raise CodegenUnsupported(f"cast opcode {opcode}")

        raise CodegenUnsupported(f"cannot lower {instruction!r}")

    def _binop_lines(self, instruction, dst):
        a = self.expr(instruction.lhs)
        b = self.expr(instruction.rhs)
        opcode = instruction.opcode
        type_ = instruction.type

        if opcode in ("sdiv", "srem", "udiv", "urem"):
            helper = {"sdiv": "_sdiv", "srem": "_srem",
                      "udiv": "_udiv", "urem": "_urem"}[opcode]
            return [f"{dst} = {helper}({a}, {b}, {type_.width})"]

        if opcode == "fdiv":
            return [
                f"if {b} == 0.0: raise _TrapError('float division by zero')",
                f"{dst} = {a} / {b}",
            ]
        if opcode in ("fadd", "fsub", "fmul"):
            operator = {"fadd": "+", "fsub": "-", "fmul": "*"}[opcode]
            return [f"{dst} = {a} {operator} {b}"]

        if not type_.is_integer:
            raise CodegenUnsupported(f"binary opcode {opcode} on {type_!r}")

        if type_.width == 32:
            if opcode == "add":
                return [f"{dst} = " + _WRAP_ADD.format(a=a, b=b)]
            if opcode == "sub":
                return [f"{dst} = " + _WRAP_SUB.format(a=a, b=b)]
            if opcode == "mul":
                return [f"{dst} = " + _WRAP_MUL.format(a=a, b=b)]
            if opcode in ("and", "or", "xor"):
                operator = {"and": "&", "or": "|", "xor": "^"}[opcode]
                return [f"{dst} = {a} {operator} {b}"]
            if opcode == "shl":
                return [
                    f"{dst} = ((({a} << ({b} & 31)) + 2147483648)"
                    " & 4294967295) - 2147483648"
                ]
            if opcode == "ashr":
                return [f"{dst} = {a} >> ({b} & 31)"]
            if opcode == "lshr":
                return [
                    f"{dst} = (((({a} & 4294967295) >> ({b} & 31))"
                    " + 2147483648) & 4294967295) - 2147483648"
                ]
            raise CodegenUnsupported(f"binary opcode {opcode}")

        # i1 (and any other non-32 width): plain Python semantics, same as
        # the reference interpreter's non-32 table.
        width = type_.width
        if opcode in ("add", "sub", "mul", "and", "or", "xor", "shl", "ashr"):
            operator = {"add": "+", "sub": "-", "mul": "*", "and": "&",
                        "or": "|", "xor": "^", "shl": "<<", "ashr": ">>"}[opcode]
            return [f"{dst} = {a} {operator} {b}"]
        if opcode == "lshr":
            mask = (1 << width) - 1
            return [f"{dst} = ({a} & {mask}) >> ({b} & {width - 1})"]
        raise CodegenUnsupported(f"binary opcode {opcode} at width {width}")

    def _call_lines(self, instruction):
        callee = instruction.callee
        args = ", ".join(self.expr(a) for a in instruction.args)
        dst = self.reg.get(id(instruction))
        assign = f"{dst} = " if dst is not None else ""
        lines = []

        if callee.is_intrinsic:
            info = callee.intrinsic
            extra = max(0, info.cost - 1)
            impl = self._intrinsic_local(callee.name)
            if extra:
                lines.append(f"_cost += {extra}")
                lines.append("if _cost > _fuel: raise _FuelExhausted(_fuel)")
            # Intrinsic implementations read machine.cost for their own
            # event timestamps (memcpy & co.): sync the local around them.
            lines.append("machine.cost = _cost")
            lines.append(f"{assign}{impl}(machine, [{args}])")
            lines.append("_cost = machine.cost")
            return lines

        plan = self.plan
        site_id = plan.call_sites.get(id(instruction)) if plan is not None else None
        function_local = self._func_local(callee.name)
        lines.append("machine.cost = _cost")
        if site_id is not None:
            lines.append(f"_rt.call_start({site_id!r}, _cost)")
        lines.append(f"{assign}machine._call({function_local}, [{args}])")
        lines.append("_cost = machine.cost")
        if site_id is not None:
            lines.append(f"_rt.call_end({site_id!r}, _cost)")
        return lines


def generate_source(function, plan, instrumented, vectorize=False):
    """Emit the Python source of one variant of ``function``."""
    return _Emitter(function, plan, instrumented, vectorize).generate()


# -- compilation and entry points -----------------------------------------------

# The generated function resolves every per-instance value (globals table,
# callees, runtime, fuel) from ``machine`` in its prologue, so one function
# object is shared by every Interpreter whose (IR, plan, variant) matches.
# Bounded LRU (insertion order + move-to-end on hit): long-lived processes
# compiling many modules (sweeps, fuzzing) must not grow without limit.
_CODE_MEMO = {}  # key -> (callable, source), LRU order
_CODE_MEMO_CAP = 256
_CODE_MEMO_STATS = {"evictions": 0}

_NAMESPACE_TEMPLATE = None


def _base_namespace():
    """Globals for generated code: exceptions and the division helpers
    shared verbatim with the reference interpreter."""
    global _NAMESPACE_TEMPLATE
    if _NAMESPACE_TEMPLATE is None:
        from ..errors import FuelExhausted, TrapError

        _NAMESPACE_TEMPLATE = {
            "_FuelExhausted": FuelExhausted,
            "_TrapError": TrapError,
            "_sdiv": signed_div,
            "_srem": signed_rem,
            "_udiv": unsigned_div,
            "_urem": unsigned_rem,
        }
        _NAMESPACE_TEMPLATE.update(vec_namespace())
    return dict(_NAMESPACE_TEMPLATE)


def _dump_source(function, instrumented, key, source):
    directory = os.environ.get("REPRO_JIT_DUMP")
    if not directory:
        return
    variant = "instr" if instrumented else "plain"
    path = pathlib.Path(directory)
    try:
        path.mkdir(parents=True, exist_ok=True)
        name = f"{function.name}.{variant}.{key[:12]}.py"
        (path / name).write_text(source)
    except OSError:
        pass  # debugging aid only; never break a run


def jit_entry(function, plan, instrumented, code_cache=None, vectorize=False):
    """Return the compiled entry ``fn(machine, args) -> result`` for one
    variant of ``function``, consulting the in-process memo and the
    persistent code cache before generating source.

    Raises :class:`CodegenUnsupported` when the function cannot be
    lowered; the caller is expected to fall back to the reference
    interpreter.
    """
    # A vector-tagged source must never be produced (or reused) in an
    # environment without NumPy: normalize the tier before keying.
    vectorize = bool(vectorize) and vec_available()
    key = jit_cache_key(function, plan, instrumented, vectorize)
    memo = _CODE_MEMO.get(key)
    if memo is not None:
        _CODE_MEMO[key] = _CODE_MEMO.pop(key)  # LRU touch
        _dump_source(function, instrumented, key, memo[1])
        return memo[0]

    if code_cache is None:
        from ..runtime.profile_store import default_code_cache

        code_cache = default_code_cache()

    source = code_cache.load(key) if code_cache is not None else None
    if source is None:
        source = generate_source(function, plan, instrumented, vectorize)
        if code_cache is not None:
            code_cache.store(
                key,
                source,
                meta={
                    "function": function.name,
                    "variant": "instr" if instrumented else "plain",
                    "tier": "vec" if vectorize else "jit",
                    "codegen_version": CODEGEN_VERSION,
                },
            )
    _dump_source(function, instrumented, key, source)

    namespace = _base_namespace()
    try:
        code = compile(source, f"<jit:{function.name}>", "exec")
        exec(code, namespace)
    except SyntaxError as error:  # pragma: no cover - emitter bug guard
        raise CodegenUnsupported(f"generated source failed to compile: {error}")
    entry = namespace["_jit_run"]
    while len(_CODE_MEMO) >= _CODE_MEMO_CAP:
        _CODE_MEMO.pop(next(iter(_CODE_MEMO)))
        _CODE_MEMO_STATS["evictions"] += 1
    _CODE_MEMO[key] = (entry, source)
    return entry
