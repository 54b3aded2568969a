"""repro.core — the Loopapalooza framework itself.

Configuration flags (Table II), the compile-time classification and
instrumentation planner, the per-configuration evaluator, and the
:class:`Loopapalooza` driver tying it all together.
"""

from .config import (
    BEST_HELIX,
    BEST_PDOALL,
    LPConfig,
    MODELS,
    paper_configurations,
)
from .call_tls import CallTLSReport, estimate_call_tls, format_call_tls
from .evaluator import (
    EvaluationResult,
    LoopSummary,
    ProfileCache,
    evaluate_config,
)
from .framework import Loopapalooza
from .instrument import build_instrumentation
from .static_info import (
    CALL_INSTRUMENTED,
    CALL_PURE,
    CALL_THREAD_SAFE,
    CALL_UNSAFE,
    PHI_COMPUTABLE,
    PHI_NONCOMPUTABLE,
    PHI_REDUCTION,
    LoopStatic,
    ModuleStaticInfo,
    phi_key_for,
)

__all__ = [
    "BEST_HELIX",
    "BEST_PDOALL",
    "CALL_INSTRUMENTED",
    "CALL_PURE",
    "CALL_THREAD_SAFE",
    "CALL_UNSAFE",
    "CallTLSReport",
    "EvaluationResult",
    "LPConfig",
    "LoopStatic",
    "LoopSummary",
    "Loopapalooza",
    "MODELS",
    "ModuleStaticInfo",
    "PHI_COMPUTABLE",
    "PHI_NONCOMPUTABLE",
    "PHI_REDUCTION",
    "ProfileCache",
    "build_instrumentation",
    "estimate_call_tls",
    "evaluate_config",
    "format_call_tls",
    "paper_configurations",
    "phi_key_for",
]
