"""The IR interpreter — Loopapalooza's execution substrate.

Executes a verified module, counting **dynamic IR instructions** as the time
metric (the paper's §III-D choice: "LP always takes the dynamic LLVM IR
instruction count as the approximation of execution time"). Cost is charged
per basic block, matching the paper's hard-coded per-block callbacks; events
within a block carry ``block_base + position`` timestamps.

Three execution backends share this module's semantics, chosen by the
``backend`` argument:

* ``vec`` (the default) — the template JIT below, plus whole-loop NumPy
  kernels for loops the static dependence engine proves STATIC_DOALL
  (see :mod:`repro.interp.veccodegen`).
* ``jit`` — each function is lowered to straight-line Python source by
  :mod:`repro.interp.codegen`, ``compile()``d once, and executed as a
  native code object (see docs/internals.md, "Codegen backend"). Its
  instrumented variant does the runtime's per-event bookkeeping inline
  and calls the runtime only for loop entry and exit, calls, conflicts
  and the end of the run.
* ``closure`` — the reference interpreter: it walks the IR one
  instruction at a time and delivers every runtime event the moment it
  happens, through the runtime's per-event methods (``mem_read`` /
  ``mem_write``, ``loop_iter`` with the latch values, ``lcd_def`` /
  ``lcd_use``). It is the independent oracle the fast tiers are checked
  against, kept deliberately plain (see docs/internals.md, "Reference
  interpreter"). The JIT tiers also fall back to it, per function, for
  anything the code generator cannot lower.

All backends charge fuel identically (per block, at block entry) and
produce byte-identical profiles (enforced by
``tests/test_differential_backends.py``). An optional
:class:`FunctionInstrumentation` plan per function injects the Loopapalooza
callbacks:

* loop entry / iteration / exit on the corresponding CFG edges,
* memory read/write events with timestamps,
* register-LCD tracking: the latch value of each tracked header phi, the
  timestamp of its producing definition, and the first in-iteration use.

The runtime object (see :mod:`repro.runtime.recorder`) receives these events
and builds the execution profile; it must be attached to the interpreter
(``runtime.attach(machine)``) before the run, which starts the address
space's shadow write table.
"""

from __future__ import annotations

import sys

from ..errors import FuelExhausted, InterpError, TrapError
from ..ir.instructions import (
    GEP,
    Alloca,
    BinaryOp,
    Br,
    Call,
    Cast,
    FCmp,
    ICmp,
    Load,
    Phi,
    Ret,
    Select,
    Store,
)
from ..ir.values import ConstantFloat, ConstantInt, GlobalVariable
from .memory import AddressSpace

_MASK32 = 0xFFFFFFFF
_SIGN32 = 0x80000000


def _wrap32(value):
    value &= _MASK32
    return value - 0x100000000 if value & _SIGN32 else value


# -- shared division semantics (all backends) -----------------------------------
#
# C/LLVM truncating division over two's-complement bit patterns. The one
# hardware edge the obvious Python spellings get wrong is INT_MIN / -1: the
# mathematical quotient 2**31 is unrepresentable, and 32-bit hardware wraps
# it back to INT_MIN (with a remainder of 0) rather than trapping.


def signed_div(a, b, width=32):
    """``sdiv``: truncate toward zero, wrap the quotient to ``width`` bits
    (so ``INT_MIN / -1 == INT_MIN``); a zero divisor traps."""
    if b == 0:
        raise TrapError("integer division by zero")
    q = -(-a // b) if (a < 0) != (b < 0) else a // b
    span = 1 << width
    q &= span - 1
    return q - span if q & (span >> 1) else q


def signed_rem(a, b, width=32):
    """``srem``: remainder of the truncating division (sign follows the
    dividend; ``INT_MIN % -1 == 0``); a zero divisor traps."""
    if b == 0:
        raise TrapError("integer remainder by zero")
    q = -(-a // b) if (a < 0) != (b < 0) else a // b
    return a - q * b


def unsigned_div(a, b, width=32):
    """``udiv`` over the unsigned views of the bit patterns."""
    mask = (1 << width) - 1
    divisor = b & mask
    if divisor == 0:
        raise TrapError("integer division by zero")
    value = (a & mask) // divisor
    return _wrap32(value) if width == 32 else value


def unsigned_rem(a, b, width=32):
    """``urem`` over the unsigned views of the bit patterns."""
    mask = (1 << width) - 1
    divisor = b & mask
    if divisor == 0:
        raise TrapError("integer remainder by zero")
    value = (a & mask) % divisor
    return _wrap32(value) if width == 32 else value


_DIVISIONS = {
    "sdiv": signed_div,
    "srem": signed_rem,
    "udiv": unsigned_div,
    "urem": unsigned_rem,
}

_INT_OPS = {
    "add": lambda a, b: _wrap32(a + b),
    "sub": lambda a, b: _wrap32(a - b),
    "mul": lambda a, b: _wrap32(a * b),
    "and": lambda a, b: a & b,
    "or": lambda a, b: a | b,
    "xor": lambda a, b: a ^ b,
    "shl": lambda a, b: _wrap32(a << (b & 31)),
    "ashr": lambda a, b: a >> (b & 31),
    # Logical shift right: the unsigned view of the 32-bit pattern shifted,
    # reinterpreted as signed (matches LLVM's lshr on i32; shift amounts
    # masked to the width like shl/ashr above).
    "lshr": lambda a, b: _wrap32((a & _MASK32) >> (b & 31)),
}

# i1/i64 arithmetic: plain Python semantics suffice (``lshr`` at these
# widths needs the width, see _binary_op).
_WIDE_INT_OPS = {
    "add": lambda a, b: a + b,
    "sub": lambda a, b: a - b,
    "mul": lambda a, b: a * b,
    "and": lambda a, b: a & b,
    "or": lambda a, b: a | b,
    "xor": lambda a, b: a ^ b,
    "shl": lambda a, b: a << b,
    "ashr": lambda a, b: a >> b,
}

_FLOAT_OPS = {
    "fadd": lambda a, b: a + b,
    "fsub": lambda a, b: a - b,
    "fmul": lambda a, b: a * b,
}

_ICMP_OPS = {
    "eq": lambda a, b: a == b,
    "ne": lambda a, b: a != b,
    "slt": lambda a, b: a < b,
    "sle": lambda a, b: a <= b,
    "sgt": lambda a, b: a > b,
    "sge": lambda a, b: a >= b,
}

_FCMP_OPS = {
    "oeq": lambda a, b: a == b,
    "one": lambda a, b: a != b,
    "olt": lambda a, b: a < b,
    "ole": lambda a, b: a <= b,
    "ogt": lambda a, b: a > b,
    "oge": lambda a, b: a >= b,
}


class FunctionInstrumentation:
    """Per-function callback plan consumed by every backend.

    Attributes (all keyed by object ids of IR entities):

    * ``edge_actions`` — ``{(id(pred), id(succ)): [(kind, loop_id), ...]}``
      with kind in ``'enter' | 'iter' | 'exit'``, fired in list order.
    * ``latch_values`` — ``{(id(latch), id(header)): [(phi_key, value_ref)]}``
      where ``value_ref`` is the IR value entering the phi from the latch;
      its run-time value is shipped with the ``loop_iter`` event.
    * ``def_hooks`` — ``{id(value): [(loop_id, phi_key)]}``: when the value is
      (re)computed, report the timestamp as the LCD's producer definition.
    * ``use_hooks`` — ``{id(instruction): [(loop_id, phi_key)]}``: when the
      instruction executes, report a consumer use of the LCD.
    * ``call_sites`` — ``{id(call): site_id}``: user calls tracked for the
      call/continuation TLS estimator (start/end events).
    * ``call_use_hooks`` — ``{id(instruction): [site_id]}``: the call's
      return value is consumed here (a continuation dependence).
    """

    def __init__(self):
        self.edge_actions = {}
        self.latch_values = {}
        self.def_hooks = {}
        self.use_hooks = {}
        # Function-call/continuation TLS (paper §I extension):
        self.call_sites = {}      # id(Call instr) -> site_id string
        self.call_use_hooks = {}  # id(instr) -> [site_id]: result consumed

    @property
    def is_empty(self):
        return not (
            self.edge_actions or self.latch_values
            or self.def_hooks or self.use_hooks or self.call_sites
        )


# -- the reference interpreter's instruction semantics ---------------------------
#
# One function per instruction class: ``(machine, instruction, values, ts)``
# -> the instruction's value (None for void instructions). ``values`` maps
# id() of each SSA value of the running frame to its run-time value; memory
# events are delivered to the runtime at ``ts``.


def _operand(machine, values, value):
    """The run-time value of an operand: SSA values are read from the
    frame, constants and globals resolve here."""
    key = id(value)
    if key in values:
        return values[key]
    if isinstance(value, (ConstantInt, ConstantFloat)):
        return value.value
    if isinstance(value, GlobalVariable):
        return machine.global_bases[value.name]
    raise InterpError(f"operand {value!r} has no value in this frame")


def _binary_op(machine, instruction, values, ts):
    a = _operand(machine, values, instruction.lhs)
    b = _operand(machine, values, instruction.rhs)
    opcode = instruction.opcode
    if opcode in _FLOAT_OPS:
        return _FLOAT_OPS[opcode](a, b)
    if opcode == "fdiv":
        if b == 0.0:
            raise TrapError("float division by zero")
        return a / b
    # The IR admits only the integer opcodes below on integer types.
    width = instruction.type.width
    if opcode in _DIVISIONS:
        return _DIVISIONS[opcode](a, b, width)
    if width == 32:
        return _INT_OPS[opcode](a, b)
    if opcode == "lshr":
        # The unsigned view of the bit pattern; widths are powers of two,
        # so ``& (width - 1)`` masks the shift amount.
        return (a & ((1 << width) - 1)) >> (b & (width - 1))
    return _WIDE_INT_OPS[opcode](a, b)


def _icmp(machine, instruction, values, ts):
    compare = _ICMP_OPS[instruction.predicate]
    a = _operand(machine, values, instruction.lhs)
    b = _operand(machine, values, instruction.rhs)
    return 1 if compare(a, b) else 0


def _fcmp(machine, instruction, values, ts):
    compare = _FCMP_OPS[instruction.predicate]
    a = _operand(machine, values, instruction.lhs)
    b = _operand(machine, values, instruction.rhs)
    return 1 if compare(a, b) else 0


def _alloca(machine, instruction, values, ts):
    allocated = instruction.allocated_type
    zero = 0.0 if _alloc_zero_is_float(allocated) else 0
    runtime = machine.runtime
    birth = runtime.current_marks() if runtime is not None else None
    return machine.space.allocate(allocated.size_in_slots(), zero, birth)


def _load(machine, instruction, values, ts):
    address = _operand(machine, values, instruction.pointer)
    value = machine.space.load(address)
    if machine.runtime is not None:
        machine.runtime.mem_read(address, ts)
    return value


def _store(machine, instruction, values, ts):
    address = _operand(machine, values, instruction.pointer)
    machine.space.store(address, _operand(machine, values, instruction.value))
    if machine.runtime is not None:
        machine.runtime.mem_write(address, ts)


def _gep(machine, instruction, values, ts):
    address = _operand(machine, values, instruction.pointer)
    element = instruction.pointer.type.pointee
    for index in instruction.indices:
        if element.is_array:
            element = element.element
        address += element.size_in_slots() * _operand(machine, values, index)
    return address


def _call_instruction(machine, instruction, values, ts):
    callee = instruction.callee
    args = [_operand(machine, values, arg) for arg in instruction.args]
    if callee.is_intrinsic:
        # An intrinsic costs ``cost`` IR instructions; its call slot was
        # charged with the block.
        machine.cost += max(0, callee.intrinsic.cost - 1)
        if machine.cost > machine.fuel:
            raise FuelExhausted(machine.fuel)
    return machine._call(callee, args)


def _select(machine, instruction, values, ts):
    if _operand(machine, values, instruction.condition):
        return _operand(machine, values, instruction.true_value)
    return _operand(machine, values, instruction.false_value)


def _cast(machine, instruction, values, ts):
    value = _operand(machine, values, instruction.value)
    opcode = instruction.opcode
    if opcode == "sitofp":
        return float(value)
    if opcode == "fptosi":
        return _wrap32(int(value))
    if opcode == "zext":
        return value
    if opcode == "trunc":
        width = instruction.type.width
        raw = value & ((1 << width) - 1)
        if width > 1 and raw >= (1 << (width - 1)):
            raw -= 1 << width
        return raw
    raise InterpError(f"unsupported cast opcode {opcode}")


_EXECUTE = {
    BinaryOp: _binary_op,
    ICmp: _icmp,
    FCmp: _fcmp,
    Alloca: _alloca,
    Load: _load,
    Store: _store,
    GEP: _gep,
    Call: _call_instruction,
    Select: _select,
    Cast: _cast,
}


class Interpreter:
    """Executes a module on one backend, firing runtime callbacks.

    Args:
        module: a verified IR module with a ``main`` function.
        runtime: optional Loopapalooza runtime receiving the events.
        instrumentation: optional ``{function_name: FunctionInstrumentation}``.
        fuel: dynamic IR instruction budget (guards runaway programs).
        backend: ``"vec"`` (vector-enabled template JIT, the default),
            ``"jit"`` (scalar template JIT) or ``"closure"`` (the
            reference interpreter).
    """

    def __init__(self, module, runtime=None, instrumentation=None,
                 fuel=200_000_000, backend="vec"):
        if backend not in ("vec", "jit", "closure"):
            raise InterpError(
                f"unknown interpreter backend {backend!r} "
                "(choose 'vec', 'jit' or 'closure')"
            )
        self.module = module
        self.runtime = runtime
        self.instrumentation = instrumentation or {}
        self.fuel = fuel
        self.backend = backend
        self.space = AddressSpace()
        self.cost = 0
        self.output = []
        self.prng_state = 0x853C49E6748FEA9B
        self.input_cursor = 0
        self.global_bases = {}
        self._decoded = {}
        self._jit_entries = {}
        self._jit_failed = set()
        # Vector-tier observability: loop_id -> count of committed kernel
        # runs / of runtime-guard bailouts (kernel fell through to the
        # scalar path for that invocation).
        self.vec_runs = {}
        self.vec_bailouts = {}
        self._call_depth = 0
        for variable in module.globals.values():
            self.global_bases[variable.name] = self.space.add_global(variable)

    # -- public API ---------------------------------------------------------------

    def run(self, function_name="main", args=()):
        """Execute ``function_name`` and return its result."""
        function = self.module.get_function(function_name)
        old_limit = sys.getrecursionlimit()
        sys.setrecursionlimit(max(old_limit, 10_000))
        try:
            return self._call(function, list(args))
        finally:
            sys.setrecursionlimit(old_limit)

    # -- memory primitives (also used by intrinsic implementations) -------------

    def load_slot(self, address):
        value = self.space.load(address)
        if self.runtime is not None:
            self.runtime.mem_read(address, self.cost)
        return value

    def store_slot(self, address, value):
        self.space.store(address, value)
        if self.runtime is not None:
            self.runtime.mem_write(address, self.cost)

    # -- JIT backend ---------------------------------------------------------------

    def _jit_for(self, function):
        """The compiled JIT entry for ``function``, or ``None`` when the
        template JIT cannot lower it (per-function fallback to the
        reference interpreter)."""
        name = function.name
        entry = self._jit_entries.get(name)
        if entry is not None:
            return entry
        if name in self._jit_failed:
            return None
        from .codegen import CodegenUnsupported, jit_entry

        try:
            # The instrumented variant whenever a runtime is attached, even
            # with an empty or missing plan: a callee's memory traffic still
            # feeds the caller's loop conflict tracking.
            entry = jit_entry(
                function, self.instrumentation.get(name),
                self.runtime is not None, vectorize=(self.backend == "vec"),
            )
        except CodegenUnsupported:
            self._jit_failed.add(name)
            return None
        self._jit_entries[name] = entry
        return entry

    # -- execution ------------------------------------------------------------------

    def _call(self, function, args):
        """One call, on whichever backend runs ``function``: the depth
        check, the frame, and the ``func_enter``/``func_exit`` events."""
        if function.is_intrinsic:
            return function.intrinsic.implementation(self, args)
        if function.is_declaration:
            raise InterpError(f"call to undefined function @{function.name}")
        self._call_depth += 1
        if self._call_depth > 2000:
            self._call_depth -= 1
            raise TrapError("call stack depth limit exceeded")
        entry = self._jit_for(function) if self.backend != "closure" else None
        runtime = self.runtime
        frame_base = self.space.frame_base()
        if runtime is not None:
            runtime.func_enter(function)
        try:
            if entry is not None:
                return entry(self, args)
            return self._interpret(function, args)
        finally:
            self._call_depth -= 1
            self.space.release_to(frame_base)
            if runtime is not None:
                runtime.func_exit(function)

    def _compile_function(self, function):
        """Decode ``function`` for the reference interpreter: each block
        becomes ``(phis, body, terminator)``, with ``body`` holding
        ``(position, instruction, semantics)`` for the instructions
        between them. A malformed block or an unknown instruction class
        raises :class:`InterpError` here, before the function runs. (The
        name is what perfbench/tracing.py times as code generation.)"""
        decoded = {}
        for block in function.blocks:
            instructions = block.instructions
            if not instructions or not instructions[-1].is_terminator:
                raise InterpError(
                    f"block {block.name} in @{function.name} lacks a terminator"
                )
            phis = []
            body = []
            for position, instruction in enumerate(instructions[:-1]):
                if isinstance(instruction, Phi):
                    phis.append(instruction)
                    continue
                semantics = _EXECUTE.get(type(instruction))
                if semantics is None:
                    raise InterpError(
                        f"cannot interpret {instruction!r} in block "
                        f"{block.name} of @{function.name}"
                    )
                body.append((position, instruction, semantics))
            decoded[id(block)] = (phis, body, instructions[-1])
        return decoded

    def _interpret(self, function, args):
        """Run one frame of ``function`` on the reference interpreter.

        The event order is the contract the JIT tiers mirror (see
        docs/internals.md, "Reference interpreter"): on entering a block,
        the edge's loop events, the parallel phi copy, then each phi's
        def and use hooks; then the block's whole cost is charged; then,
        per instruction at ``ts = base + position``, call-result uses,
        the instruction, its def hooks and its use hooks.
        """
        decoded = self._decoded.get(function.name)
        if decoded is None:
            decoded = self._decoded[function.name] = \
                self._compile_function(function)
        runtime = self.runtime
        plan = self.instrumentation.get(function.name) \
            if runtime is not None else None
        values = {
            id(argument): value
            for argument, value in zip(function.arguments, args)
        }
        pred = None
        block = function.entry_block
        while True:
            phis, body, terminator = decoded[id(block)]
            if pred is not None:
                if plan is not None:
                    self._edge_events(plan, pred, block, values)
                incoming = [
                    _operand(self, values, phi.incoming_for_block(pred))
                    for phi in phis
                ]
                for phi, value in zip(phis, incoming):
                    values[id(phi)] = value
                if plan is not None:
                    for phi in phis:
                        key = id(phi)
                        for loop_id, phi_key in plan.def_hooks.get(key, ()):
                            runtime.lcd_def(loop_id, phi_key, self.cost)
                        for loop_id, phi_key in plan.use_hooks.get(key, ()):
                            runtime.lcd_use(loop_id, phi_key, self.cost)
            base = self.cost
            self.cost = base + len(block.instructions)
            if self.cost > self.fuel:
                raise FuelExhausted(self.fuel)
            for position, instruction, semantics in body:
                ts = base + position
                if plan is None:
                    values[id(instruction)] = semantics(
                        self, instruction, values, ts)
                    continue
                key = id(instruction)
                for site_id in plan.call_use_hooks.get(key, ()):
                    runtime.call_result_use(site_id, ts)
                site_id = plan.call_sites.get(key)
                if site_id is not None:
                    runtime.call_start(site_id, self.cost)
                values[key] = semantics(self, instruction, values, ts)
                if site_id is not None:
                    runtime.call_end(site_id, self.cost)
                for loop_id, phi_key in plan.def_hooks.get(key, ()):
                    runtime.lcd_def(loop_id, phi_key, ts)
                for loop_id, phi_key in plan.use_hooks.get(key, ()):
                    runtime.lcd_use(loop_id, phi_key, ts)
            # Call-result-use hooks on a phi or a terminator never fire, on
            # any backend: a known gap in the call-continuation model.
            if plan is not None:
                ts = base + len(block.instructions) - 1
                for loop_id, phi_key in plan.use_hooks.get(id(terminator), ()):
                    runtime.lcd_use(loop_id, phi_key, ts)
            if isinstance(terminator, Ret):
                if terminator.value is None:
                    return None
                return _operand(self, values, terminator.value)
            pred = block
            if isinstance(terminator, Br):
                block = terminator.target
            elif _operand(self, values, terminator.condition):
                block = terminator.then_block
            else:
                block = terminator.else_block

    def _edge_events(self, plan, pred, succ, values):
        """The pred -> succ edge's loop events, in plan order; ``loop_iter``
        ships the latch values as they stand before the phi copy."""
        edge = (id(pred), id(succ))
        runtime = self.runtime
        for kind, loop_id in plan.edge_actions.get(edge, ()):
            if kind == "iter":
                latch = [
                    (phi_key, _operand(self, values, value))
                    for phi_key, value in plan.latch_values.get(edge, ())
                ]
                runtime.loop_iter(loop_id, self.cost, latch)
            elif kind == "enter":
                runtime.loop_enter(loop_id, self.cost)
            else:
                runtime.loop_exit(loop_id, self.cost)


def _alloc_zero_is_float(type_):
    while type_.is_array:
        type_ = type_.element
    return type_.is_float


def run_module(module, function_name="main", args=(), runtime=None,
               instrumentation=None, fuel=200_000_000, backend="vec"):
    """Convenience: build an interpreter, run, and return
    ``(result, interpreter)``."""
    interpreter = Interpreter(module, runtime, instrumentation, fuel,
                              backend=backend)
    result = interpreter.run(function_name, args)
    return result, interpreter
