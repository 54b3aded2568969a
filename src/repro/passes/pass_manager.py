"""Pass manager: the fixed optimization pipeline the study compiles with.

The paper feeds LP the IR "after [it has] been optimized (using -Ofast)" and
then canonicalizes with loopsimplify/indvars. Our equivalent pipeline is:

    simplify-cfg -> mem2reg -> constfold -> gvn -> dce -> simplify-cfg
    -> loop-simplify -> licm -> indvars

With ``transform=True`` the opt-in structural stage runs after
canonicalization:

    fission -> peel -> fusion -> loop-simplify -> dce

The argument is the only switch: no environment variable turns the stage
on, so what a module compiles to depends on the call alone.

Both pipelines run their stages through :func:`_run_stages`. A stage
boundary invalidates the CFG/LoopInfo snapshots of the module's functions,
so a pass that cached an analysis across a mutation raises
:class:`~repro.errors.StaleAnalysisError` instead of silently computing
with blocks that no longer exist. With ``verify_each`` the boundary also
verifies the IR, and a failure names the stage that broke it; the fuzz
``verifier`` oracle and the pass tests set it, and it is off by default
because verifying every stage slows compiling down markedly. The last
stage of each pipeline is always verified. Verification adds checks and
never changes the IR.

The pipeline configuration is fingerprinted onto
``module.pipeline_fingerprint`` so code caches keyed on the printed IR can
tell apart entries produced under different pipelines.
"""

from __future__ import annotations

from ..analysis.invalidation import invalidate_module_analyses
from ..errors import VerificationError
from ..ir.verifier import verify_module
from .constfold import run_constfold_module
from .dce import run_dce_module
from .gvn import run_gvn_module
from .indvars import run_indvars_module
from .licm import run_licm_module
from .loop_fission import run_loop_fission_module
from .loop_fusion import run_loop_fusion_module
from .loop_peel import run_loop_peel_module
from .loop_simplify import run_loop_simplify_module
from .mem2reg import run_mem2reg_module
from .simplify_cfg import run_simplify_cfg_module

# Bumped whenever a pipeline stage changes behaviour in a way that alters
# the IR it can produce; part of every pipeline fingerprint, so stale code
# caches die on upgrade instead of replaying old codegen.
PIPELINE_VERSION = 1


def pipeline_fingerprint(transform):
    """A short stable token naming the pipeline configuration that produced
    a module. Folded into code-cache keys (see ``interp.codegen``): two
    modules whose final IR prints identically may still behave differently
    to a cache that also stores pipeline-derived metadata, and a version
    bump must always miss."""
    return f"pipe{PIPELINE_VERSION}:{'T' if transform else '-'}"


def _checkpoint(module, stage):
    """Verify and attribute any failure to the pipeline stage that ran."""
    try:
        verify_module(module)
    except VerificationError as error:
        raise VerificationError(
            [f"after {stage}: {problem}" for problem in error.problems]
        ) from None


def _run_stages(module, stages, verify_each):
    """Run each ``(stage, pass)`` of ``stages`` on ``module`` in order.

    Every pass just mutated the IR, so each boundary marks the module's
    CFG/LoopInfo snapshots stale (the bug this guards: a cached LoopInfo
    surviving simplify-cfg handed licm dead headers). With ``verify_each``
    every boundary verifies; otherwise only the last one does.
    """
    for stage, run_pass in stages:
        run_pass(module)
        invalidate_module_analyses(module)
        if verify_each:
            _checkpoint(module, stage)
    if not verify_each:
        _checkpoint(module, stage)


def run_standard_pipeline(module, verify_each=False, transform=False):
    """Run the study's compilation pipeline on ``module`` in place.

    ``transform`` opts into the structural stage (fission/peel/fusion).
    """
    _run_stages(module, (
        ("simplify-cfg", run_simplify_cfg_module),
        ("mem2reg", run_mem2reg_module),
        ("constfold", run_constfold_module),
        ("gvn", run_gvn_module),
        ("dce", run_dce_module),
        ("simplify-cfg (late)", run_simplify_cfg_module),
        ("loop-simplify", run_loop_simplify_module),
        ("licm", run_licm_module),
        ("indvars", run_indvars_module),
    ), verify_each)
    if transform:
        run_transform_pipeline(module, verify_each=verify_each)
    module.pipeline_fingerprint = pipeline_fingerprint(transform)


def run_transform_pipeline(module, verify_each=False):
    """The opt-in structural stage: dependence-guided fission, peeling and
    fusion, followed by re-canonicalization and cleanup. Runs after the
    standard pipeline (the passes assume simplified, indvars-canonical
    loops)."""
    _run_stages(module, (
        ("loop-fission", run_loop_fission_module),
        ("loop-peel", run_loop_peel_module),
        ("loop-fusion", run_loop_fusion_module),
        ("loop-simplify (post-transform)", run_loop_simplify_module),
        ("dce (post-transform)", run_dce_module),
    ), verify_each)
