"""repro.analysis — compiler analyses over the repro IR.

CFG utilities, dominators (Cooper-Harvey-Kennedy), natural-loop detection,
scalar evolution (the paper's SCEV-based "computable LCD" classifier),
reduction recurrence detection, function purity, the call graph, and the
static loop-carried memory dependence engine.
"""

from .callgraph import CallGraph
from .cfg import CFG
from .depend import (
    VERDICT_DOALL,
    VERDICT_LCD,
    VERDICT_UNKNOWN,
    DependenceAnalysis,
    LoopDependence,
    analyze_module,
    classify_header_phis,
    module_memory_summaries,
)
from .dominators import DominatorTree
from .loop_info import Loop, LoopInfo
from .purity import FunctionClass, PurityAnalysis
from .reduction import RecurrenceDescriptor, detect_reduction, loop_reductions
from .scev import (
    COULD_NOT_COMPUTE,
    SCEV,
    SCEVAdd,
    SCEVAddRec,
    SCEVConstant,
    SCEVCouldNotCompute,
    SCEVMul,
    SCEVUnknown,
    ScalarEvolution,
    scev_add,
    scev_mul,
    scev_sub,
)

__all__ = [
    "CFG",
    "COULD_NOT_COMPUTE",
    "CallGraph",
    "DependenceAnalysis",
    "DominatorTree",
    "FunctionClass",
    "Loop",
    "LoopDependence",
    "LoopInfo",
    "PurityAnalysis",
    "RecurrenceDescriptor",
    "SCEV",
    "SCEVAdd",
    "SCEVAddRec",
    "SCEVConstant",
    "SCEVCouldNotCompute",
    "SCEVMul",
    "SCEVUnknown",
    "ScalarEvolution",
    "VERDICT_DOALL",
    "VERDICT_LCD",
    "VERDICT_UNKNOWN",
    "analyze_module",
    "classify_header_phis",
    "detect_reduction",
    "loop_reductions",
    "module_memory_summaries",
    "scev_add",
    "scev_mul",
    "scev_sub",
]
