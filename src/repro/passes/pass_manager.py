"""Pass manager: the fixed optimization pipeline the study compiles with.

The paper feeds LP the IR "after [it has] been optimized (using -Ofast)" and
then canonicalizes with loopsimplify/indvars. Our equivalent pipeline is:

    simplify-cfg -> mem2reg -> constfold -> gvn -> dce -> simplify-cfg
    -> loop-simplify -> licm -> indvars

with verification after every stage when ``verify_each`` is set (the default
in tests; off by default for speed in large sweeps). Setting the
``REPRO_VERIFY_PASSES=1`` environment variable forces inter-pass
verification everywhere — CI runs the full suite under it — and verifier
failures are attributed to the stage that introduced them.

With ``transform=True`` the opt-in structural stage runs after
canonicalization:

    fission -> peel -> fusion -> loop-simplify -> dce

The argument is the only switch: no environment variable turns the stage
on, so what a module compiles to depends on the call alone (verification
adds checks, never changes the IR).

Each stage boundary *explicitly invalidates* every live CFG/LoopInfo
snapshot of the module: a pass that cached an analysis across a mutation
now raises :class:`~repro.errors.StaleAnalysisError` instead of silently
computing with blocks that no longer exist (the bug this invalidation
protocol flushed out). The pipeline configuration is fingerprinted onto
``module.pipeline_fingerprint`` so code caches keyed on the printed IR can
tell apart entries produced under different pipelines.
"""

from __future__ import annotations

import os

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


class PipelineResult:
    """What the standard pipeline did to a module."""

    def __init__(self):
        self.promoted_allocas = 0
        self.folded_constants = 0
        self.gvn_removed = 0
        self.removed_instructions = 0
        self.cfg_edits = 0
        self.loop_edits = 0
        self.hoisted = 0
        self.indvars = {}
        self.fissioned = 0
        self.peeled = 0
        self.fused = 0

    def __repr__(self):
        return (
            f"<PipelineResult promoted={self.promoted_allocas} "
            f"folded={self.folded_constants} dce={self.removed_instructions} "
            f"cfg={self.cfg_edits} loops={self.loop_edits}>"
        )


def verify_passes_forced():
    """Is inter-pass verification forced via ``REPRO_VERIFY_PASSES``?"""
    return os.environ.get("REPRO_VERIFY_PASSES", "0") not in ("", "0")


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


def run_standard_pipeline(module, verify_each=False, transform=False):
    """Run the study's compilation pipeline on ``module`` in place.

    ``transform`` opts into the structural stage (fission/peel/fusion).
    """
    result = PipelineResult()
    verify_each = verify_each or verify_passes_forced()

    def checkpoint(stage):
        # Every pass just mutated the IR: any CFG/LoopInfo snapshot built
        # against the previous stage is now a lie. Kill them all so a
        # stale reuse raises StaleAnalysisError instead of returning
        # blocks that were merged or erased (the bug this fixed: a cached
        # LoopInfo surviving simplify-cfg handed licm dead headers).
        invalidate_module_analyses(module)
        if verify_each:
            _checkpoint(module, stage)

    result.cfg_edits += run_simplify_cfg_module(module)
    checkpoint("simplify-cfg")
    result.promoted_allocas = run_mem2reg_module(module)
    checkpoint("mem2reg")
    result.folded_constants = run_constfold_module(module)
    checkpoint("constfold")
    result.gvn_removed = run_gvn_module(module)
    checkpoint("gvn")
    result.removed_instructions = run_dce_module(module)
    checkpoint("dce")
    result.cfg_edits += run_simplify_cfg_module(module)
    checkpoint("simplify-cfg (late)")
    result.loop_edits = run_loop_simplify_module(module)
    checkpoint("loop-simplify")
    result.hoisted = run_licm_module(module)
    checkpoint("licm")
    result.indvars = run_indvars_module(module)
    _checkpoint(module, "indvars")
    invalidate_module_analyses(module)
    if transform:
        run_transform_pipeline(module, result=result,
                               verify_each=verify_each)
    module.pipeline_fingerprint = pipeline_fingerprint(transform)
    return result


def run_transform_pipeline(module, result=None, verify_each=False):
    """The opt-in structural stage: dependence-guided fission, peeling and
    fusion, followed by re-canonicalization and cleanup. Runs after the
    standard pipeline (the passes assume simplified, indvars-canonical
    loops). Returns the :class:`PipelineResult` it updated."""
    if result is None:
        result = PipelineResult()
    verify_each = verify_each or verify_passes_forced()

    def checkpoint(stage):
        invalidate_module_analyses(module)
        if verify_each:
            _checkpoint(module, stage)

    result.fissioned = run_loop_fission_module(module)
    checkpoint("loop-fission")
    result.peeled = run_loop_peel_module(module)
    checkpoint("loop-peel")
    result.fused = run_loop_fusion_module(module)
    checkpoint("loop-fusion")
    result.loop_edits += run_loop_simplify_module(module)
    checkpoint("loop-simplify (post-transform)")
    result.removed_instructions += run_dce_module(module)
    _checkpoint(module, "dce (post-transform)")
    invalidate_module_analyses(module)
    return result
