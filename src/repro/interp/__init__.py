"""repro.interp — the IR interpreter (execution substrate).

The execution backends over the repro IR (the reference interpreter and
the jit/vec template JITs) with a flat slot-addressed memory model, the
library-intrinsic registry, and the instrumentation hook plumbing the
Loopapalooza runtime plugs into.
"""

from .interpreter import FunctionInstrumentation, Interpreter, run_module
from .intrinsics import INTRINSICS, IntrinsicInfo, declare_intrinsics
from .memory import AddressSpace

__all__ = [
    "AddressSpace",
    "FunctionInstrumentation",
    "INTRINSICS",
    "Interpreter",
    "IntrinsicInfo",
    "declare_intrinsics",
    "run_module",
]
