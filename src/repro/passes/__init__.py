"""repro.passes — IR transform passes.

mem2reg (pruned SSA construction), GVN (CSE + redundant-load elimination),
LICM, CFG simplification, loop canonicalization (loopsimplify),
induction-variable canonicalization (indvars), dead-code elimination,
constant folding, and the standard pipeline the study compiles every
benchmark with.
"""

from .constfold import run_constfold, run_constfold_module
from .dce import run_dce, run_dce_module
from .indvars import IndVarsResult, run_indvars, run_indvars_module
from .inline import inline_call, run_inline_module
from .loop_simplify import (
    is_loop_simplified,
    run_loop_simplify,
    run_loop_simplify_module,
)
from .gvn import run_gvn, run_gvn_module
from .licm import run_licm, run_licm_module
from .loop_fission import run_loop_fission, run_loop_fission_module
from .loop_fusion import run_loop_fusion, run_loop_fusion_module
from .loop_peel import run_loop_peel, run_loop_peel_module
from .mem2reg import run_mem2reg, run_mem2reg_module
from .pass_manager import (
    PIPELINE_VERSION,
    PipelineResult,
    pipeline_fingerprint,
    run_standard_pipeline,
    run_transform_pipeline,
)
from .simplify_cfg import run_simplify_cfg, run_simplify_cfg_module

__all__ = [
    "IndVarsResult",
    "PIPELINE_VERSION",
    "PipelineResult",
    "is_loop_simplified",
    "pipeline_fingerprint",
    "run_constfold",
    "run_constfold_module",
    "run_dce",
    "run_dce_module",
    "run_indvars",
    "run_indvars_module",
    "run_inline_module",
    "inline_call",
    "run_gvn",
    "run_gvn_module",
    "run_licm",
    "run_licm_module",
    "run_loop_fission",
    "run_loop_fission_module",
    "run_loop_fusion",
    "run_loop_fusion_module",
    "run_loop_peel",
    "run_loop_peel_module",
    "run_loop_simplify",
    "run_loop_simplify_module",
    "run_mem2reg",
    "run_mem2reg_module",
    "run_simplify_cfg",
    "run_simplify_cfg_module",
    "run_standard_pipeline",
    "run_transform_pipeline",
]
