"""Compile-time classification — the static half of Loopapalooza (§III-A).

For every canonicalized loop in a module, classify:

* each header phi as **computable** (SCEV add-rec — IVs and MIVs),
  **reduction** (recurrence descriptor), or **non-computable** (everything
  else: the register LCDs that constrain parallelization);
* the loop's **call classes** — which kinds of callees appear in the loop
  body (transitively through user functions for the *unsafe* taint), driving
  the ``fnX`` legality decision.

Loops that are not in simplified form (no preheader or multiple latches)
cannot be uniquely instrumented and are marked untrackable, exactly the
situation the paper's loopsimplify requirement avoids.
"""

from __future__ import annotations

from ..analysis.depend import analyze_module, classify_header_phis
from ..analysis.loop_info import LoopInfo
from ..analysis.purity import FunctionClass, PurityAnalysis
from ..analysis.scev import ScalarEvolution
from ..ir.instructions import Call

PHI_COMPUTABLE = "computable"
PHI_REDUCTION = "reduction"
PHI_NONCOMPUTABLE = "noncomputable"

CALL_PURE = "pure"
CALL_THREAD_SAFE = "thread_safe"
CALL_INSTRUMENTED = "instrumented"
CALL_UNSAFE = "unsafe"


def phi_key_for(loop_id, position, phi):
    """Stable identifier for a tracked phi: loop id + header position."""
    suffix = phi.name or "phi"
    return f"{loop_id}#{position}:{suffix}"


class LoopStatic:
    """Everything the evaluator needs to know about one static loop."""

    __slots__ = (
        "loop_id", "function_name", "depth", "phi_classes",
        "reduction_kinds", "call_classes", "trackable", "trip_count_hint",
        "untrackable_reason",
    )

    def __init__(self, loop_id, function_name, depth):
        self.loop_id = loop_id
        self.function_name = function_name
        self.depth = depth
        self.phi_classes = {}      # phi_key -> PHI_*
        self.reduction_kinds = {}  # phi_key -> reduction kind string
        self.call_classes = set()  # CALL_* present in the loop body
        self.trackable = True
        self.trip_count_hint = None
        self.untrackable_reason = None  # "multi-latch" | "no-preheader"

    def phis_of_class(self, wanted):
        return [key for key, cls in self.phi_classes.items() if cls == wanted]

    @property
    def noncomputable_phis(self):
        return self.phis_of_class(PHI_NONCOMPUTABLE)

    @property
    def reduction_phis(self):
        return self.phis_of_class(PHI_REDUCTION)

    @property
    def has_any_call(self):
        return bool(self.call_classes)

    def serial_under_fn(self, fn_level):
        """Does the fn flag force this loop serial? (paper Table II)"""
        if fn_level >= 3:
            return False
        if fn_level == 0:
            return self.has_any_call
        if fn_level == 1:
            return any(cls != CALL_PURE for cls in self.call_classes)
        # fn2: unsafe library state is the only blocker.
        return CALL_UNSAFE in self.call_classes

    def __repr__(self):
        return f"<LoopStatic {self.loop_id} phis={len(self.phi_classes)}>"


def loop_static_to_dict(static):
    """JSON-safe form of one :class:`LoopStatic` (profile-cache payload)."""
    return {
        "loop_id": static.loop_id,
        "function_name": static.function_name,
        "depth": static.depth,
        "phi_classes": dict(static.phi_classes),
        "reduction_kinds": dict(static.reduction_kinds),
        "call_classes": sorted(static.call_classes),
        "trackable": static.trackable,
        "trip_count_hint": static.trip_count_hint,
        "untrackable_reason": static.untrackable_reason,
    }


def loop_static_from_dict(data):
    """Rebuild a :class:`LoopStatic` from :func:`loop_static_to_dict`."""
    static = LoopStatic(data["loop_id"], data["function_name"], data["depth"])
    static.phi_classes = dict(data["phi_classes"])
    static.reduction_kinds = dict(data["reduction_kinds"])
    static.call_classes = set(data["call_classes"])
    static.trackable = data["trackable"]
    static.trip_count_hint = data["trip_count_hint"]
    # Absent in entries written before the field existed; those entries
    # miss on the schema version anyway, but stay lenient.
    static.untrackable_reason = data.get("untrackable_reason")
    return static


def census_of(loops):
    """Counts per classification — the data behind the Table-I view."""
    counts = {
        "loops": 0,
        "untrackable": 0,
        "computable_phis": 0,
        "reduction_phis": 0,
        "noncomputable_phis": 0,
        "loops_with_calls": 0,
        "loops_with_unsafe_calls": 0,
    }
    for static in loops.values():
        counts["loops"] += 1
        if not static.trackable:
            counts["untrackable"] += 1
            continue
        counts["computable_phis"] += len(static.phis_of_class(PHI_COMPUTABLE))
        counts["reduction_phis"] += len(static.reduction_phis)
        counts["noncomputable_phis"] += len(static.noncomputable_phis)
        if static.has_any_call:
            counts["loops_with_calls"] += 1
        if CALL_UNSAFE in static.call_classes:
            counts["loops_with_unsafe_calls"] += 1
    return counts


class StaticInfoView:
    """A deserialized static classification: the subset of
    :class:`ModuleStaticInfo` that evaluation and the census need, without
    a compiled module behind it (profile-cache warm starts)."""

    def __init__(self, loops):
        self.loops = loops

    def census(self):
        return census_of(self.loops)

    def __repr__(self):
        return f"<StaticInfoView {len(self.loops)} loops>"


class ModuleStaticInfo:
    """Classification of every loop in a module, plus function purity."""

    def __init__(self, module):
        self.module = module
        self.loops = {}
        self.purity = PurityAnalysis(module)
        self.callgraph = self.purity.callgraph
        self._unsafe_taint = self._compute_unsafe_taint()
        self.loop_infos = {}
        self._dependence = None
        for function in module.defined_functions():
            self._classify_function(function)

    def dependence(self):
        """Static memory-dependence verdicts (``{loop_id: LoopDependence}``),
        computed lazily on first use. Kept out of the serialized
        classification so profile-cache payloads are unaffected."""
        if self._dependence is None:
            self._dependence = analyze_module(self.module, self.loop_infos)
        return self._dependence

    # -- construction -------------------------------------------------------------

    def _compute_unsafe_taint(self):
        """Functions that may (transitively) touch unsafe library state."""
        tainted = set()
        for function in self.module.functions.values():
            if self.purity.classes.get(function) is FunctionClass.UNSAFE:
                tainted.add(function)
        changed = True
        while changed:
            changed = False
            for function in self.module.functions.values():
                if function in tainted:
                    continue
                if any(
                    callee in tainted
                    for callee in self.callgraph.callees_of(function)
                ):
                    tainted.add(function)
                    changed = True
        return tainted

    def _callee_class(self, callee):
        function_class = self.purity.classes.get(callee)
        if function_class is FunctionClass.PURE:
            return CALL_PURE
        if function_class is FunctionClass.THREAD_SAFE:
            return CALL_THREAD_SAFE
        if function_class is FunctionClass.UNSAFE:
            return CALL_UNSAFE
        if callee in self._unsafe_taint:
            return CALL_UNSAFE
        return CALL_INSTRUMENTED

    def _classify_function(self, function):
        loop_info = LoopInfo(function)
        self.loop_infos[function.name] = loop_info
        scev = ScalarEvolution(function, loop_info)
        for loop in loop_info.all_loops():
            static = LoopStatic(loop.loop_id, function.name, loop.depth)
            self.loops[loop.loop_id] = static
            if loop.single_latch() is None:
                # loop-simplify never merges backedges, so this shape is
                # terminal: name it apart from a loop without a preheader.
                static.trackable = False
                static.untrackable_reason = "multi-latch"
                continue
            if loop.preheader(loop_info.cfg) is None:
                static.trackable = False
                static.untrackable_reason = "no-preheader"
                continue
            static.trip_count_hint = scev.trip_count(loop)
            for position, phi, reg_class, kind in classify_header_phis(
                    loop, scev):
                key = phi_key_for(loop.loop_id, position, phi)
                static.phi_classes[key] = reg_class
                if kind is not None:
                    static.reduction_kinds[key] = kind
            for block in loop.blocks:
                for instruction in block.instructions:
                    if isinstance(instruction, Call):
                        static.call_classes.add(
                            self._callee_class(instruction.callee)
                        )

    # -- census (Table I) ------------------------------------------------------------

    def census(self):
        """Counts per classification — the data behind the Table-I view."""
        return census_of(self.loops)
