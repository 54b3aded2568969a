"""Static loop-carried memory dependence analysis.

The dynamic profiler observes memory LCDs; this module *proves* them (or
their absence) at compile time, giving the repo a second, independent source
of truth. For every loop it emits a conservative verdict:

* ``STATIC_DOALL`` — no loop-carried memory dependence can exist: every pair
  of accesses that could touch the same storage is proven independent across
  iterations by a dependence test.
* ``STATIC_LCD(dist=k)`` — a loop-carried dependence at constant iteration
  distance ``k`` was derived from the access functions (classic may-
  dependence semantics: the dependence is assumed unless disproven, and
  here its distance is known exactly).
* ``UNKNOWN`` — independence could not be proven (symbolic offsets, opaque
  pointers, unanalyzable callees, ...).

The machinery mirrors the textbook pipeline on top of :mod:`.scev`:

1. every load/store pointer is linearized into ``base + const + Σ cᵢ·symᵢ +
   stride·i ± span`` with respect to the loop (``_Linear``); ``span`` bounds
   the footprint contributed by inner-loop induction variables (the MIV
   case);
2. base objects are resolved through GEP chains; distinct concrete objects
   (different globals, different allocas) never alias in the slot-addressed
   memory model, and an alloca belonging to the loop body is iteration-
   private — the static mirror of the runtime's cactus-stack privatization
   rule;
3. same-base pairs go through ZIV / strong-SIV / GCD / Banerjee-style
   subscript tests with the loop's trip count (when constant) bounding the
   dependence distance;
4. calls contribute their callee's *memory summary* (reads/writes of global
   objects and pointer arguments, computed bottom-up over call-graph SCCs)
   as whole-object footprints.

Soundness contract (checked by ``repro crosscheck`` and the differential
backend tests): a loop classified ``STATIC_DOALL`` must never record a
cross-iteration RAW conflict in the dynamic profile, under any backend.

The register half of Table I lives here too: :func:`classify_header_phis`
re-derives the computable / reduction / non-computable split for a loop's
header phis purely from ``scev.py`` + ``reduction.py``, and
``core.static_info`` records its classes for the census and the advisor.
"""

from __future__ import annotations

from math import gcd, inf

from ..ir.instructions import (
    Alloca,
    BinaryOp,
    Br,
    Call,
    Cast,
    CondBr,
    FCmp,
    GEP,
    ICmp,
    Load,
    Phi,
    Select,
    Store,
)
from ..ir.values import Argument, Constant, GlobalVariable
from .callgraph import CallGraph
from .loop_info import LoopInfo
from .purity import _trace_to_base
from .reduction import detect_reduction
from .scev import (
    COULD_NOT_COMPUTE,
    ZERO,
    ScalarEvolution,
    SCEVAdd,
    SCEVAddRec,
    SCEVConstant,
    SCEVMul,
    SCEVUnknown,
)

# Verdict strings (stable: surfaced by the CLI and joined by crosscheck).
VERDICT_DOALL = "STATIC_DOALL"
VERDICT_LCD = "STATIC_LCD"
VERDICT_UNKNOWN = "UNKNOWN"

# Register classification strings (match core.static_info's PHI_*).
REG_COMPUTABLE = "computable"
REG_REDUCTION = "reduction"
REG_NONCOMPUTABLE = "noncomputable"

# Memory-summary sentinels (alongside concrete GlobalVariable objects).
ARGS_OBJECT = "<args>"
UNKNOWN_OBJECT = "<unknown>"

# SCEV is width-agnostic but the interpreter wraps i32 arithmetic; any
# derived constant at or beyond this magnitude may have wrapped at run time,
# so the subscript tests refuse to conclude anything from it.
_WRAP_LIMIT = 1 << 31

# Pair-testing is quadratic in the number of accesses; loops beyond this are
# classified UNKNOWN rather than risking pathological analysis times.
_MAX_ACCESSES = 512

# The strong-SIV distance filter enumerates every candidate distance inside
# the inner-contribution window; wider windows fall back to "several
# possible distances" instead of a pathological enumeration.
_MAX_DISTANCE_CANDIDATES = 128


def classify_header_phis(loop, scev):
    """Classify each header phi of ``loop`` statically.

    Returns ``[(position, phi, reg_class, reduction_kind)]`` in header
    order, where ``reg_class`` is one of :data:`REG_COMPUTABLE`,
    :data:`REG_REDUCTION`, :data:`REG_NONCOMPUTABLE` and ``reduction_kind``
    is the recurrence kind string for reductions (else ``None``). This is
    the single implementation behind Table I's register-LCD split.
    """
    result = []
    for position, phi in enumerate(loop.header.phis()):
        if scev.is_computable_phi(phi):
            result.append((position, phi, REG_COMPUTABLE, None))
            continue
        descriptor = detect_reduction(phi, loop)
        if descriptor is not None:
            result.append((position, phi, REG_REDUCTION, descriptor.kind))
        else:
            result.append((position, phi, REG_NONCOMPUTABLE, None))
    return result


# -- function memory summaries ---------------------------------------------------


class SummaryAccess:
    """One affine memory access a function (transitively) performs,
    expressed in the function's own frame:
    ``base + offset + Σ coeff·formal + [span_lo, span_hi]`` where ``base``
    is a :class:`GlobalVariable` or the index of a pointer formal,
    ``coeffs`` maps scalar-formal indices to integer coefficients, and the
    span window over-approximates traversal by the callee's internal
    (constant-trip) loops."""

    __slots__ = ("is_write", "base", "offset", "coeffs", "span_lo",
                 "span_hi")

    def __init__(self, is_write, base, offset=0, coeffs=None, span_lo=0,
                 span_hi=0):
        self.is_write = is_write
        self.base = base
        self.offset = offset
        self.coeffs = coeffs if coeffs is not None else {}
        self.span_lo = span_lo
        self.span_hi = span_hi

    def object_key(self):
        """The coarse summary object this access falls under."""
        return self.base if isinstance(self.base, GlobalVariable) \
            else ARGS_OBJECT

    def __repr__(self):
        base = self.base.name if isinstance(self.base, GlobalVariable) \
            else f"arg{self.base}"
        parts = [str(self.offset)] + [
            f"{coeff}*arg{index}"
            for index, coeff in sorted(self.coeffs.items())]
        span = f"+[{self.span_lo},{self.span_hi}]" \
            if (self.span_lo, self.span_hi) != (0, 0) else ""
        kind = "write" if self.is_write else "read"
        return f"<{kind} @{base}[{'+'.join(parts)}]{span}>"


class FunctionMemorySummary:
    """What a function (transitively) reads and writes, as a set of objects:
    concrete :class:`GlobalVariable` identities, :data:`ARGS_OBJECT` (memory
    reachable through pointer arguments) and :data:`UNKNOWN_OBJECT`
    (anything — analysis gave up). A function's own allocas are excluded:
    frame storage is private to the call and, when the call happens inside a
    loop iteration, iteration-private under the runtime's cactus-stack rule.

    ``accesses`` refines the object sets to field granularity: one
    :class:`SummaryAccess` per affine load/store the function transitively
    performs. ``inexact`` lists the ``(object, is_write)`` pairs whose
    traffic the access list does *not* fully cover (a non-affine subscript,
    recursion, or a failed call-site translation) — consumers must fall
    back to whole-object granularity for those.
    """

    __slots__ = ("reads", "writes", "accesses", "inexact")

    def __init__(self):
        self.reads = set()
        self.writes = set()
        self.accesses = []
        self.inexact = set()

    @property
    def is_opaque(self):
        return UNKNOWN_OBJECT in self.reads or UNKNOWN_OBJECT in self.writes

    @property
    def touches_memory(self):
        return bool(self.reads or self.writes)

    def exact_for(self, obj, is_write):
        """Is every access to ``obj`` (at this read/write polarity) covered
        field-sensitively by ``accesses``?"""
        return (obj, is_write) not in self.inexact

    def __repr__(self):
        def show(objects):
            names = sorted(
                obj.name if isinstance(obj, GlobalVariable) else str(obj)
                for obj in objects
            )
            return "{" + ", ".join(names) + "}"

        return f"<MemSummary reads={show(self.reads)} writes={show(self.writes)}>"


def _summary_object(pointer):
    """Map a pointer to its summary object (``None`` = frame-private)."""
    base = _trace_to_base(pointer)
    if isinstance(base, GlobalVariable):
        return base
    if isinstance(base, Alloca):
        return None  # callee frame storage: invisible to callers
    if isinstance(base, Argument):
        return ARGS_OBJECT
    return UNKNOWN_OBJECT


def module_memory_summaries(module, callgraph=None):
    """Bottom-up :class:`FunctionMemorySummary` for every module function.

    Recursion (multi-function SCCs and self-calls) is resolved by fixpoint
    iteration over the component instead of an UNKNOWN punt: the object
    lattice is finite and absorption only ever adds, so the sets converge
    — a recursive pure-scalar helper now gets an *empty* summary and stops
    poisoning its enclosing loops. Field-sensitive access lists are built
    only across acyclic call edges; traffic routed through a recursive
    edge keeps object granularity (``inexact``), never opacity.
    """
    if callgraph is None:
        callgraph = CallGraph(module)
    summaries = {}
    frames = {}  # per-function lazily built ScalarEvolution
    for component in callgraph.sccs_bottom_up():
        recursive = (len(component) > 1
                     or callgraph.is_self_recursive(component[0]))
        scc = set(component) if recursive else frozenset()
        for function in component:
            summaries[function] = FunctionMemorySummary()
        while True:
            changed = False
            for function in component:
                fresh = _summarize_function(function, summaries, scc, frames)
                current = summaries[function]
                if (fresh.reads != current.reads
                        or fresh.writes != current.writes
                        or fresh.inexact != current.inexact):
                    changed = True
                summaries[function] = fresh
            if not changed:
                break
    return summaries


def _frame_scev(function, frames):
    key = id(function)
    if key not in frames:
        loop_info = LoopInfo(function)
        frames[key] = ScalarEvolution(function, loop_info)
    return frames[key]


def _summarize_function(function, summaries, scc, frames):
    """One bottom-up summary pass over ``function`` against the current
    state of ``summaries`` (monotone — re-run to fixpoint inside SCCs)."""
    summary = FunctionMemorySummary()
    if function.is_intrinsic:
        info = function.intrinsic
        if info.reads_memory:
            summary.reads.add(ARGS_OBJECT)
            summary.inexact.add((ARGS_OBJECT, False))
        if info.writes_memory:
            summary.writes.add(ARGS_OBJECT)
            summary.inexact.add((ARGS_OBJECT, True))
        # side_effects / global_state intrinsics (rand, print...)
        # have no *modeled-memory* traffic: the interpreter never
        # issues mem_read/mem_write for them, so they are invisible
        # to the dynamic conflict tracker and safely omitted here.
        return summary
    if function.is_declaration:
        summary.reads.add(UNKNOWN_OBJECT)
        summary.writes.add(UNKNOWN_OBJECT)
        return summary
    scev = _frame_scev(function, frames)
    for instruction in function.instructions():
        if isinstance(instruction, Load):
            _absorb_direct(summary, function, scev, instruction.pointer,
                           False, instruction.parent)
        elif isinstance(instruction, Store):
            if instruction.value.type.is_pointer:
                # A stored pointer value creates aliasing routes the
                # base-object model cannot track.
                summary.writes.add(UNKNOWN_OBJECT)
            _absorb_direct(summary, function, scev, instruction.pointer,
                           True, instruction.parent)
        elif isinstance(instruction, Call):
            _absorb_call_summary(
                summary, function, scev, instruction,
                summaries[instruction.callee],
                coarse_only=instruction.callee in scc)
    return summary


def _absorb_direct(summary, function, scev, pointer, is_write, block):
    """Record one of the function's own loads/stores: always at object
    granularity, field-sensitively when the subscript is affine in the
    function's frame."""
    obj = _summary_object(pointer)
    if obj is None:
        return  # frame-private storage: invisible to callers
    target = summary.writes if is_write else summary.reads
    target.add(obj)
    if obj == UNKNOWN_OBJECT:
        return
    try:
        frame = _frame_linearize(scev.get(pointer), function, scev,
                                 block=block)
        if frame.base is None:
            raise _NonAffine("the access has no recognizable base")
        summary.accesses.append(SummaryAccess(
            is_write, frame.base, frame.const, frame.coeffs,
            frame.span_lo, frame.span_hi))
    except _NonAffine:
        summary.inexact.add((obj, is_write))


def _absorb_call_summary(summary, function, scev, call, callee_summary,
                         coarse_only):
    """Fold a callee's summary into the caller across one call site."""
    _absorb_call(summary.reads, callee_summary.reads, call)
    _absorb_call(summary.writes, callee_summary.writes, call)
    for is_write, objects in ((False, callee_summary.reads),
                              (True, callee_summary.writes)):
        for obj in objects:
            if obj == UNKNOWN_OBJECT:
                continue  # opacity already recorded by the coarse absorb
            if coarse_only or not callee_summary.exact_for(obj, is_write):
                _mark_inexact(summary, obj, is_write, call)
    if coarse_only:
        return
    for access in callee_summary.accesses:
        if not callee_summary.exact_for(access.object_key(),
                                        access.is_write):
            continue  # that object already degraded to coarse
        try:
            translated = _translate_summary_access(
                access, function, scev, call)
        except _NonAffine:
            translated = None
        if translated is None:
            _mark_inexact(summary, access.object_key(), access.is_write,
                          call)
            continue
        summary.accesses.append(translated)


def _mark_inexact(summary, obj, is_write, call):
    """Degrade one callee object to whole-object granularity in the
    caller, translating ``ARGS_OBJECT`` through the call's pointer args."""
    if isinstance(obj, GlobalVariable):
        summary.inexact.add((obj, is_write))
        return
    for arg in call.args:
        if not arg.type.is_pointer:
            continue
        translated = _summary_object(arg)
        if translated is None or translated == UNKNOWN_OBJECT:
            continue
        summary.inexact.add(
            (translated if isinstance(translated, GlobalVariable)
             else ARGS_OBJECT, is_write))


def _translate_summary_access(access, function, scev, call):
    """Re-express a callee :class:`SummaryAccess` in the caller's frame.

    The callee's base pointer formal becomes the actual pointer argument
    (itself linearized in the caller), scalar-formal coefficients
    substitute the actual scalar arguments, and any caller-loop variation
    of an actual folds into the span window (the call site may sit inside
    caller loops). Returns ``None`` when the access resolves into the
    caller's frame-private storage."""
    out = _Frame()
    if isinstance(access.base, GlobalVariable):
        out.base = access.base
    else:
        actual = call.args[access.base]
        _frame_add(out, scev.get(actual), function, scev, 1,
                   block=call.parent)
        if out.base is None:
            # The actual pointer is the caller's own alloca (frame-private
            # to *its* callers but still real storage) — trace the IR value
            # instead of failing: allocas are dropped from summaries.
            base = _trace_to_base(actual)
            if isinstance(base, Alloca):
                return None
            raise _NonAffine("an actual pointer argument is not affine")
    out.const += access.offset
    out.span_lo += access.span_lo
    out.span_hi += access.span_hi
    for index, coeff in access.coeffs.items():
        part = _Frame()
        _frame_add(part, scev.get(call.args[index]), function, scev, coeff,
                   block=call.parent)
        if part.base is not None:
            raise _NonAffine("a pointer flows into a scalar position")
        out.const += part.const
        out.span_lo += part.span_lo
        out.span_hi += part.span_hi
        for formal, c in part.coeffs.items():
            merged = out.coeffs.get(formal, 0) + c
            if merged:
                out.coeffs[formal] = merged
            else:
                out.coeffs.pop(formal, None)
    _frame_check(out)
    return SummaryAccess(access.is_write, out.base, out.const, out.coeffs,
                         out.span_lo, out.span_hi)


def _absorb_call(target, source, call):
    """Translate a callee summary across a call site: ``ARGS_OBJECT``
    entries become the objects behind the call's pointer arguments."""
    for obj in source:
        if obj == ARGS_OBJECT:
            for arg in call.args:
                if arg.type.is_pointer:
                    translated = _summary_object(arg)
                    if translated is not None:
                        target.add(translated)
        else:
            target.add(obj)


class _Frame:
    """Callee-frame linear form: ``base + const + Σ coeff·formal +
    [span_lo, span_hi]`` with coefficients keyed by formal index."""

    __slots__ = ("const", "coeffs", "base", "span_lo", "span_hi")

    def __init__(self):
        self.const = 0
        self.coeffs = {}
        self.base = None
        self.span_lo = 0
        self.span_hi = 0


def _frame_linearize(expr, function, scev, block=None):
    out = _Frame()
    _frame_add(out, expr, function, scev, 1, block=block)
    _frame_check(out)
    return out


def _frame_check(out):
    if (abs(out.const) >= _WRAP_LIMIT
            or abs(out.span_lo) >= _WRAP_LIMIT
            or abs(out.span_hi) >= _WRAP_LIMIT
            or any(abs(c) >= _WRAP_LIMIT for c in out.coeffs.values())):
        raise _NonAffine("a callee offset may wrap i32")


def _frame_add(out, expr, function, scev, scale, block=None):
    """Accumulate ``scale · expr`` into ``out``, resolving symbols against
    the function's own formals. Any addrec — the function's loops at every
    depth — widens the span window by its full (constant) extent; when the
    access ``block`` is known to sit in the loop body the addrec index is
    bounded by ``trip - 1`` (the same rule the intra-function linearizer
    uses), which keeps per-iteration callee rows provably disjoint."""
    if scale == 0:
        return
    if isinstance(expr, SCEVConstant):
        out.const += scale * expr.value
        return
    if isinstance(expr, SCEVUnknown):
        value = expr.value
        if isinstance(value, GlobalVariable):
            if scale != 1 or out.base is not None:
                raise _NonAffine("a scaled or second base pointer")
            out.base = value
            return
        if isinstance(value, Argument) and value.function is function:
            if value.type.is_pointer:
                if scale != 1 or out.base is not None:
                    raise _NonAffine("a scaled or second base pointer")
                out.base = value.index
                return
            merged = out.coeffs.get(value.index, 0) + scale
            if merged:
                out.coeffs[value.index] = merged
            else:
                out.coeffs.pop(value.index, None)
            return
        raise _NonAffine("an opaque value appears in a callee subscript")
    if isinstance(expr, SCEVAdd):
        for op in expr.operands:
            _frame_add(out, op, function, scev, scale, block=block)
        return
    if isinstance(expr, SCEVMul):
        constant = 1
        other = None
        for op in expr.operands:
            if isinstance(op, SCEVConstant):
                constant *= op.value
            elif other is None:
                other = op
            else:
                raise _NonAffine("a product of loop-varying values")
        if other is None:
            out.const += scale * constant
        else:
            _frame_add(out, other, function, scev, scale * constant,
                       block=block)
        return
    if isinstance(expr, SCEVAddRec):
        if not isinstance(expr.step, SCEVConstant):
            raise _NonAffine("a callee loop has a symbolic stride")
        trip = scev.trip_count(expr.loop)
        if trip is None:
            raise _NonAffine("a callee loop has no constant trip count")
        max_index = trip
        if (block is not None and block in expr.loop.blocks
                and block is not expr.loop.header):
            max_index = trip - 1
        extent = scale * expr.step.value * max_index
        out.span_lo += min(0, extent)
        out.span_hi += max(0, extent)
        _frame_add(out, expr.start, function, scev, scale, block=block)
        return
    raise _NonAffine("a callee address has no computable scalar evolution")


# -- access model ----------------------------------------------------------------


class _Access:
    """One memory access the loop may perform each iteration."""

    __slots__ = ("is_write", "base", "pointer", "whole_object", "label",
                 "block", "footprint")

    def __init__(self, is_write, base, pointer, whole_object, label,
                 block=None, footprint=None):
        self.is_write = is_write
        self.base = base          # GlobalVariable | Alloca | Argument | None
        self.pointer = pointer    # IR pointer value (None for whole-object)
        self.whole_object = whole_object
        self.label = label        # deterministic human-readable description
        self.block = block        # where the access executes (span bounds)
        #: precomputed :class:`_Linear` for pointer-less accesses translated
        #: from a callee's access-function summary.
        self.footprint = footprint


class _Dim:
    """One inner-loop dimension of a footprint: ``stride · index`` with the
    index ranging over ``[0, max_index]`` within a single iteration of the
    analyzed loop."""

    __slots__ = ("loop", "stride", "max_index")

    def __init__(self, loop, stride, max_index):
        self.loop = loop
        self.stride = stride
        self.max_index = max_index

    def bounds(self):
        extent = self.stride * self.max_index
        return (min(0, extent), max(0, extent))


class _NonAffine(Exception):
    """Linearization failure, carrying the human-readable blocker."""

    def __init__(self, reason):
        super().__init__(reason)
        self.reason = reason


class _Linear:
    """``const + Σ coeff·sym + stride·i + Σ dims + [span_lo, span_hi]``
    w.r.t. a loop: a constant, cancellable symbolic terms, a stride per
    iteration of the analyzed loop, one :class:`_Dim` per inner loop (the
    multi-dimensional subscript), and a residual span from callee-internal
    loops of summarized calls."""

    __slots__ = ("const", "terms", "stride", "dims", "span_lo", "span_hi")

    def __init__(self, const=0, terms=None, stride=0, dims=None, span_lo=0,
                 span_hi=0):
        self.const = const
        self.terms = terms if terms is not None else {}
        self.stride = stride
        self.dims = dims if dims is not None else {}
        self.span_lo = span_lo
        self.span_hi = span_hi

    @property
    def exact(self):
        """Single-cell per iteration: no inner-dimension or span extent."""
        return not self.dims and self.span_lo == 0 and self.span_hi == 0


class LoopDependence:
    """The static memory-dependence verdict for one loop.

    ``vectors`` carries one direction-vector line per surviving dependence
    (``first -> second: (levels)``, analyzed level first, inner levels
    after), and ``distances`` the sorted set of every exact dependence
    distance derived at this level — ``distance`` stays the minimum, the
    quantity the limit study and the TLS tier key on.
    """

    __slots__ = ("loop_id", "verdict", "distance", "reasons", "tested_pairs",
                 "access_count", "vectors", "distances")

    def __init__(self, loop_id, verdict, distance=None, reasons=(),
                 tested_pairs=0, access_count=0, vectors=(), distances=()):
        self.loop_id = loop_id
        self.verdict = verdict
        self.distance = distance
        self.reasons = tuple(reasons)
        self.tested_pairs = tested_pairs
        self.access_count = access_count
        self.vectors = tuple(vectors)
        self.distances = tuple(distances)

    def describe(self):
        if self.verdict == VERDICT_LCD and self.distance is not None:
            return f"{VERDICT_LCD}(dist={self.distance})"
        return self.verdict

    def to_dict(self):
        return {
            "loop_id": self.loop_id,
            "verdict": self.verdict,
            "distance": self.distance,
            "reasons": list(self.reasons),
            "tested_pairs": self.tested_pairs,
            "access_count": self.access_count,
            "vectors": list(self.vectors),
            "distances": list(self.distances),
        }

    def __repr__(self):
        return f"<LoopDependence {self.loop_id} {self.describe()}>"


class DependenceAnalysis:
    """Per-function loop-carried memory dependence analysis."""

    def __init__(self, function, loop_info=None, scev=None, summaries=None):
        self.function = function
        self.loop_info = loop_info if loop_info is not None else LoopInfo(function)
        self.scev = scev if scev is not None else ScalarEvolution(
            function, self.loop_info)
        self.summaries = summaries or {}
        self._footprints = {}  # (id(pointer), id(loop), id(block)) -> _Linear | None
        self._footprint_whys = {}  # same key -> non-affine reason string
        self._trips = {}       # id(loop) -> int | None

    # -- public API -------------------------------------------------------------

    def loop_verdict(self, loop):
        return self._verdict(loop, front=0, back=0)

    def loop_verdict_if_peeled(self, loop, front=0, back=0):
        """Verdict of the residual loop after peeling ``front`` leading and
        ``back`` trailing iterations — the static trial the peeling pass
        runs before committing to a transform. Requires a constant trip
        count large enough that the residual loop still runs."""
        if front < 0 or back < 0 or front + back == 0:
            raise ValueError("peel trial needs front/back >= 0, not both 0")
        trip = self._trip(loop)
        if trip is None:
            return LoopDependence(
                loop.loop_id, VERDICT_UNKNOWN,
                reasons=("peel trial needs a constant trip count",))
        if trip - front - back < 1:
            return LoopDependence(
                loop.loop_id, VERDICT_UNKNOWN,
                reasons=(f"peeling {front}+{back} of {trip} iterations "
                         f"leaves no residual loop",))
        return self._verdict(loop, front=front, back=back)

    def _verdict(self, loop, front, back):
        if loop.latches and loop.single_latch() is None:
            # Multiple back edges: the loop has no unique iteration point,
            # so access functions (and the instrumentation) cannot key on
            # "the iteration". An explicit bailout — not absence of a loop.
            return LoopDependence(
                loop.loop_id, VERDICT_UNKNOWN,
                reasons=(f"loop has {len(loop.latches)} latches "
                         f"(multi-latch bailout)",))
        accesses, opaque_reasons = self._collect(loop)
        if len(accesses) > _MAX_ACCESSES:
            return LoopDependence(
                loop.loop_id, VERDICT_UNKNOWN,
                reasons=(f"loop body has {len(accesses)} memory accesses "
                         f"(analysis cap {_MAX_ACCESSES})",),
                access_count=len(accesses))
        may_reasons = list(opaque_reasons)
        lcd_distances = []
        vectors = []
        tested = 0
        writes = [a for a in accesses if a.is_write]
        reads = [a for a in accesses if not a.is_write]
        trip = self._trip(loop)
        if trip is not None:
            trip -= front + back
        for index, write in enumerate(writes):
            # write-vs-write (WAW can carry a RAW chain through memory) and
            # write-vs-read pairs; a write is also paired with itself (the
            # same instruction on two different iterations).
            for other in writes[index:] + reads:
                tested += 1
                result = self._test_pair(loop, write, other, trip,
                                         front=front)
                kind = result[0]
                if kind == "lcd":
                    lcd_distances.append(result[1])
                elif kind == "may":
                    may_reasons.append(result[1])
                if len(result) > 2 and result[2]:
                    vectors.append(result[2])
        if may_reasons:
            verdict, distance = VERDICT_UNKNOWN, None
            if lcd_distances:
                # A dependence is *proven*; unknown pairs cannot undo that.
                verdict, distance = VERDICT_LCD, min(lcd_distances)
            reasons = _dedupe(may_reasons)
        elif lcd_distances:
            verdict, distance = VERDICT_LCD, min(lcd_distances)
            reasons = ()
        else:
            verdict, distance = VERDICT_DOALL, None
            reasons = ()
        return LoopDependence(loop.loop_id, verdict, distance, reasons,
                              tested, len(accesses),
                              vectors=_dedupe(vectors),
                              distances=sorted(set(lcd_distances)))

    # -- access collection -------------------------------------------------------

    def _collect(self, loop):
        accesses = []
        opaque = []
        for block in loop.blocks_in_function_order():
            for instruction in block.instructions:
                if isinstance(instruction, Load):
                    self._add_pointer_access(
                        accesses, loop, False, instruction.pointer,
                        f"load in {block.name}", block)
                elif isinstance(instruction, Store):
                    if instruction.value.type.is_pointer:
                        opaque.append(
                            f"store of a pointer value in {block.name} "
                            f"(untracked aliasing)")
                    self._add_pointer_access(
                        accesses, loop, True, instruction.pointer,
                        f"store in {block.name}", block)
                elif isinstance(instruction, Call):
                    self._add_call_accesses(
                        accesses, opaque, loop, instruction, block)
        return accesses, opaque

    def _add_pointer_access(self, accesses, loop, is_write, pointer, label,
                            block):
        base = _trace_to_base(pointer)
        if not isinstance(base, (GlobalVariable, Alloca, Argument)):
            base = None
        if self._is_iteration_private(base, loop):
            return
        name = base.name if base is not None else "?"
        accesses.append(_Access(is_write, base, pointer, False,
                                f"{label} of @{name}", block))

    def _add_call_accesses(self, accesses, opaque, loop, call, block):
        summary = self.summaries.get(call.callee)
        if summary is None:
            opaque.append(
                f"call @{call.callee.name} in {block.name} has no memory "
                f"summary")
            return
        fine = {}
        for sa in summary.accesses:
            fine.setdefault((sa.object_key(), sa.is_write), []).append(sa)
        for is_write, objects in ((False, summary.reads),
                                  (True, summary.writes)):
            for obj in objects:
                if obj == UNKNOWN_OBJECT:
                    opaque.append(
                        f"call @{call.callee.name} in {block.name} touches "
                        f"unanalyzable memory")
                    continue
                group = fine.get((obj, is_write), ())
                if group and summary.exact_for(obj, is_write) \
                        and self._add_affine_call_accesses(
                            accesses, loop, call, block, is_write, group):
                    continue
                if obj == ARGS_OBJECT:
                    for arg in call.args:
                        if not arg.type.is_pointer:
                            continue
                        base = _trace_to_base(arg)
                        if not isinstance(
                                base, (GlobalVariable, Alloca, Argument)):
                            opaque.append(
                                f"call @{call.callee.name} in {block.name} "
                                f"passes an unresolvable pointer")
                            continue
                        if self._is_iteration_private(base, loop):
                            continue
                        accesses.append(_Access(
                            is_write, base, None, True,
                            f"call @{call.callee.name} in {block.name} "
                            f"{'writes' if is_write else 'reads'} @{base.name}"))
                else:
                    accesses.append(_Access(
                        is_write, obj, None, True,
                        f"call @{call.callee.name} in {block.name} "
                        f"{'writes' if is_write else 'reads'} @{obj.name}"))

    def _add_affine_call_accesses(self, accesses, loop, call, block,
                                  is_write, group):
        """Field-sensitive call translation: one bounded access per affine
        callee access, its footprint re-expressed w.r.t. the analyzed loop
        through the call's actual arguments. Returns ``False`` (adding
        nothing) when any translation fails, so the caller falls back to
        whole-object granularity."""
        translated = []
        verb = "writes" if is_write else "reads"
        for sa in group:
            try:
                base, fp = self._summary_footprint(loop, call, block, sa)
            except _NonAffine:
                return False
            if self._is_iteration_private(base, loop):
                continue
            translated.append(_Access(
                is_write, base, None, False,
                f"call @{call.callee.name} in {block.name} {verb} "
                f"@{base.name}", block, footprint=fp))
        accesses.extend(translated)
        return True

    def _summary_footprint(self, loop, call, block, sa):
        """``(base, _Linear)`` for one callee :class:`SummaryAccess` at
        this call site, w.r.t. the analyzed loop: the callee's pointer
        formal becomes the actual pointer (linearized here, so it may
        contribute a stride), scalar-formal coefficients substitute the
        actual scalar arguments (loop-varying actuals contribute strides
        and inner dimensions), and the callee's internal span rides
        along."""
        if isinstance(sa.base, GlobalVariable):
            base = sa.base
            fp = _Linear()
        else:
            actual = call.args[sa.base]
            base = _trace_to_base(actual)
            if not isinstance(base, (GlobalVariable, Alloca, Argument)):
                raise _NonAffine("an unresolvable actual pointer")
            fp = self._linearize(self.scev.get(actual), loop, block)
            coeff = fp.terms.pop(SCEVUnknown(base), 0)
            if coeff != 1:
                raise _NonAffine("the base pointer is scaled or folded "
                                 "away")
        fp.const += sa.offset
        fp.span_lo += sa.span_lo
        fp.span_hi += sa.span_hi
        for index, coeff in sa.coeffs.items():
            part = _scale_linear(
                self._linearize(self.scev.get(call.args[index]), loop,
                                block),
                coeff)
            fp.const += part.const
            fp.stride += part.stride
            fp.span_lo += part.span_lo
            fp.span_hi += part.span_hi
            for term, c in part.terms.items():
                merged = fp.terms.get(term, 0) + c
                if merged:
                    fp.terms[term] = merged
                else:
                    fp.terms.pop(term, None)
            for key, dim in part.dims.items():
                mine = fp.dims.get(key)
                if mine is None:
                    fp.dims[key] = _Dim(dim.loop, dim.stride, dim.max_index)
                else:
                    mine.stride += dim.stride
                    mine.max_index = max(mine.max_index, dim.max_index)
        for term in fp.terms:
            if isinstance(term, SCEVUnknown) and getattr(
                    term.value, "type", None) is not None \
                    and term.value.type.is_pointer:
                raise _NonAffine("a second pointer appears in the "
                                 "subscript")
        _check_linear(fp)
        return base, fp

    @staticmethod
    def _is_iteration_private(base, loop):
        """Static mirror of the runtime cactus-stack privatization rule: an
        alloca inside the loop body is reborn every iteration, so accesses
        to it can never carry a dependence for this loop."""
        return isinstance(base, Alloca) and base.parent in loop.blocks

    # -- statement-level dependence graph ----------------------------------------

    def statement_graph(self, loop):
        """Build the :class:`StatementGraph` for ``loop`` (see its
        docstring). Returns a graph whose ``failure`` is set when the loop
        cannot be modeled: non-canonical shape, calls, possibly-trapping
        division, allocas, or pointer-typed stores in the body."""
        shape, reason = canonical_loop_shape(loop, self.loop_info.cfg)
        if shape is None:
            return StatementGraph(loop, failure=reason)
        statements = []
        for block in shape.chain:
            for instruction in block.instructions:
                if instruction.is_terminator:
                    continue
                statements.append(instruction)
        for statement in statements:
            if isinstance(statement, Call):
                return StatementGraph(loop, failure="call in loop body")
            if isinstance(statement, Alloca):
                return StatementGraph(loop, failure="alloca in loop body")
            if isinstance(statement, Store) \
                    and statement.value.type.is_pointer:
                return StatementGraph(
                    loop, failure="pointer-typed store in loop body")
            if isinstance(statement, BinaryOp) \
                    and statement.opcode in TRAPPING_DIV_OPS \
                    and not is_nonzero_constant(statement.rhs):
                # Reordering relative to other traps would change which
                # trap fires first; only provably safe divisions pass.
                return StatementGraph(
                    loop, failure="possibly trapping division in body")
        index_of = {id(s): i for i, s in enumerate(statements)}
        edges = [set() for _ in statements]
        serial = set()

        # SSA def -> use edges (defs precede uses in a straight-line body).
        for i, statement in enumerate(statements):
            for operand in statement.operands:
                j = index_of.get(id(operand))
                if j is not None and j != i:
                    edges[j].add(i)

        # Memory dependences.
        accesses = {}
        for i, statement in enumerate(statements):
            if isinstance(statement, (Load, Store)):
                access = self._statement_access(loop, statement)
                if access is not None:
                    accesses[i] = access
        trip = self._trip(loop)
        ordered = sorted(accesses)
        for position, i in enumerate(ordered):
            first = accesses[i]
            if first.is_write:
                # Same store on two different iterations.
                if self._test_pair(loop, first, first, trip)[0] != "independent":
                    serial.add(i)
            for j in ordered[position + 1:]:
                second = accesses[j]
                if not (first.is_write or second.is_write):
                    continue
                if self._alias(first, second) == "no":
                    continue
                if self._test_pair(loop, first, second, trip)[0] == "independent":
                    # No cross-iteration overlap; a forward edge keeps the
                    # groups in program order so any same-iteration overlap
                    # still observes its original write/read order.
                    edges[i].add(j)
                else:
                    edges[i].add(j)
                    edges[j].add(i)
                    serial.add(i)
                    serial.add(j)

        # Register recurrences: everything feeding a non-computable (or
        # reduction) header phi must stay in one loop with the phi.
        phi_groups = []
        for _, phi, reg_class, _ in classify_header_phis(loop, self.scev):
            if reg_class == REG_COMPUTABLE:
                continue
            members = set()
            latch_value = phi.incoming_for_block(shape.latch)
            j = index_of.get(id(latch_value))
            if j is not None:
                members.add(j)
            for i, statement in enumerate(statements):
                if any(operand is phi for operand in statement.operands):
                    members.add(i)
            for i in members:
                for j in members:
                    if i != j:
                        edges[i].add(j)
            if reg_class == REG_NONCOMPUTABLE:
                serial |= members
            phi_groups.append((phi, reg_class, frozenset(members)))
        return StatementGraph(loop, shape, statements, edges, serial,
                              phi_groups)

    def _statement_access(self, loop, instruction):
        """The :class:`_Access` for one load/store statement (``None`` when
        iteration-private)."""
        is_write = isinstance(instruction, Store)
        pointer = instruction.pointer
        base = _trace_to_base(pointer)
        if not isinstance(base, (GlobalVariable, Alloca, Argument)):
            base = None
        if self._is_iteration_private(base, loop):
            return None
        name = base.name if base is not None else "?"
        label = f"{'store' if is_write else 'load'} in " \
                f"{instruction.parent.name} of @{name}"
        return _Access(is_write, base, pointer, False, label,
                       instruction.parent)

    def load_duplicable(self, loop, load, write_accesses, trip=None):
        """May this load be re-executed by any distributed sibling of
        ``loop``? True when it provably never overlaps any write of the
        loop — same iteration or across iterations — so every copy reads
        memory the distributed loops never touch."""
        access = self._statement_access(loop, load)
        if access is None:
            return True  # iteration-private: each copy has its own storage
        if trip is None:
            trip = self._trip(loop)
        for write in write_accesses:
            alias = self._alias(access, write)
            if alias == "no":
                continue
            if alias == "may":
                return False
            fp1 = self._access_footprint(access, loop)
            fp2 = self._access_footprint(write, loop)
            if fp1 is None or fp2 is None:
                return False
            if self._subscript_test(
                    fp1, fp2, trip, access, write)[0] != "independent":
                return False
            # Cross-iteration independence proven; still reject any
            # same-iteration overlap (k = 0).
            if not (fp1.exact and fp2.exact):
                return False
            delta = fp2.const - fp1.const
            if fp1.stride == fp2.stride:
                if delta == 0:
                    return False
            else:
                # Same-iteration overlap at iteration t needs
                # (b2 - b1)·t == -delta for some t in [0, trip].
                db = fp2.stride - fp1.stride
                if db == 0:
                    if delta == 0:
                        return False
                elif (-delta) % db == 0:
                    t = (-delta) // db
                    if 0 <= t <= (trip if trip is not None else 1 << 62):
                        return False
        return True

    # -- pair testing ------------------------------------------------------------

    def _test_pair(self, loop, first, second, trip, front=0):
        alias = self._alias(first, second)
        if alias == "no":
            return ("independent",)
        if alias == "may":
            return ("may",
                    f"{first.label} may alias {second.label}")
        # Same base object from here on.
        if first.whole_object or second.whole_object:
            return ("may",
                    f"{first.label} overlaps {second.label} (whole-object)")
        fp1 = self._access_footprint(first, loop)
        fp2 = self._access_footprint(second, loop)
        if fp1 is None or fp2 is None:
            which = first if fp1 is None else second
            reason = f"{which.label} has a non-affine access function"
            if which.pointer is not None:
                why = self.footprint_blocker(which.pointer, loop, which.block)
                if why:
                    reason = f"{reason}: {why}"
            return ("may", reason)
        if front:
            # Peel trial: iteration i of the residual loop is iteration
            # i + front of the original, so c + b·i becomes
            # (c + b·front) + b·i. The cached footprints stay unshifted.
            fp1 = _shift_footprint(fp1, front)
            fp2 = _shift_footprint(fp2, front)
            if fp1 is None or fp2 is None:
                return ("may", f"{first.label} peel-shifted offset outside "
                               f"the i32 range")
        return self._subscript_test(fp1, fp2, trip, first, second)

    def _access_footprint(self, access, loop):
        """The :class:`_Linear` for an access — linearized from its pointer,
        or the precomputed summary-translated footprint for call-derived
        accesses that carry no pointer of their own."""
        if access.pointer is None:
            return access.footprint
        return self._footprint(access.pointer, loop, access.block)

    def _alias(self, first, second):
        """Base-object disambiguation: 'no' | 'same' | 'may'.

        The slot-addressed memory model gives every global and alloca its
        own storage, so distinct concrete objects never overlap. An
        argument pointer may point anywhere in the caller — except into a
        fresh alloca of this very function, which no caller can name.
        """
        b1, b2 = first.base, second.base
        if b1 is None or b2 is None:
            return "may"
        if b1 is b2:
            return "same"
        concrete1 = isinstance(b1, (GlobalVariable, Alloca))
        concrete2 = isinstance(b2, (GlobalVariable, Alloca))
        if concrete1 and concrete2:
            return "no"
        if isinstance(b1, Argument) and isinstance(b2, Alloca):
            return "no"
        if isinstance(b2, Argument) and isinstance(b1, Alloca):
            return "no"
        return "may"  # argument vs global / argument vs other argument

    def _trip(self, loop):
        key = id(loop)
        if key not in self._trips:
            self._trips[key] = self.scev.trip_count(loop)
        return self._trips[key]

    # -- linearization -----------------------------------------------------------

    def _footprint(self, pointer, loop, access_block):
        """Linear form of the pointer's SCEV w.r.t. ``loop`` with the base
        object's term removed, or ``None`` when not affine."""
        key = (id(pointer), id(loop), id(access_block))
        if key in self._footprints:
            return self._footprints[key]
        try:
            result = self._compute_footprint(pointer, loop, access_block)
        except _NonAffine as blocked:
            self._footprint_whys[key] = blocked.reason
            result = None
        self._footprints[key] = result
        return result

    def footprint_blocker(self, pointer, loop, access_block):
        """Why ``pointer`` has no affine footprint w.r.t. ``loop`` (``None``
        when it does)."""
        self._footprint(pointer, loop, access_block)
        return self._footprint_whys.get(
            (id(pointer), id(loop), id(access_block)))

    def _compute_footprint(self, pointer, loop, access_block):
        expr = self.scev.get(pointer)
        linear = self._linearize(expr, loop, access_block)
        base = _trace_to_base(pointer)
        base_term = SCEVUnknown(base)
        coeff = linear.terms.pop(base_term, 0)
        if coeff != 1:
            # Base pointer scaled or missing: not a plain offset.
            raise _NonAffine("the base pointer is scaled or folded away")
        for term in linear.terms:
            if isinstance(term, SCEVUnknown) and getattr(
                    term.value, "type", None) is not None \
                    and term.value.type.is_pointer:
                raise _NonAffine("a second pointer appears in the subscript")
        return linear

    def _linearize(self, expr, loop, access_block):
        """Decompose ``expr`` into a :class:`_Linear` w.r.t. ``loop``:
        constant + symbolic loop-invariant terms + a constant stride per
        iteration of ``loop`` + one bounded dimension per inner-loop IV.
        Raises :class:`_NonAffine` when the expression does not fit the form
        (or any constant is large enough to have wrapped in i32
        arithmetic)."""
        if isinstance(expr, SCEVConstant):
            if abs(expr.value) >= _WRAP_LIMIT:
                raise _NonAffine("a derived constant may wrap i32")
            return _Linear(const=expr.value)
        if isinstance(expr, SCEVAddRec):
            return self._linearize_addrec(expr, loop, access_block)
        if isinstance(expr, SCEVAdd):
            total = _Linear()
            for op in expr.operands:
                part = self._linearize(op, loop, access_block)
                total.const += part.const
                total.stride += part.stride
                total.span_lo += part.span_lo
                total.span_hi += part.span_hi
                for key, dim in part.dims.items():
                    mine = total.dims.get(key)
                    if mine is None:
                        total.dims[key] = _Dim(dim.loop, dim.stride,
                                               dim.max_index)
                    else:
                        mine.stride += dim.stride
                        mine.max_index = max(mine.max_index, dim.max_index)
                for term, coeff in part.terms.items():
                    merged = total.terms.get(term, 0) + coeff
                    if merged:
                        total.terms[term] = merged
                    else:
                        total.terms.pop(term, None)
            if (abs(total.const) >= _WRAP_LIMIT
                    or abs(total.stride) >= _WRAP_LIMIT
                    or abs(total.span_lo) >= _WRAP_LIMIT
                    or abs(total.span_hi) >= _WRAP_LIMIT):
                raise _NonAffine("a combined offset may wrap i32")
            for dim in total.dims.values():
                if abs(dim.stride * dim.max_index) >= _WRAP_LIMIT:
                    raise _NonAffine(
                        f"inner loop {dim.loop.loop_id} extent may wrap i32")
            return total
        if isinstance(expr, (SCEVUnknown, SCEVMul)):
            if expr.is_invariant_in(loop):
                return _Linear(terms={expr: 1})
            raise _NonAffine(
                "the subscript varies with the loop non-affinely")
        # COULD_NOT_COMPUTE, markers, anything else.
        raise _NonAffine("the address has no computable scalar evolution")

    def _linearize_addrec(self, expr, loop, access_block):
        if expr.loop is loop:
            if not isinstance(expr.step, SCEVConstant):
                raise _NonAffine("the stride at this loop level is symbolic")
            if abs(expr.step.value) >= _WRAP_LIMIT:
                raise _NonAffine("the stride may wrap i32")
            inner = self._linearize(expr.start, loop, access_block)
            if inner.stride != 0:
                raise _NonAffine("two strides at the same loop level")
            inner.stride = expr.step.value
            return inner
        if loop.contains_loop(expr.loop):
            # Inner-loop IV: one dimension of the subscript. The addrec
            # index equals the completed latch traversals at evaluation
            # time: body blocks of the inner loop only ever run with index
            # <= trip - 1, while the inner header (the trailing exit check)
            # and any final-value use outside the inner loop can see
            # index == trip. Requires a constant inner trip count.
            inner_id = expr.loop.loop_id
            if not isinstance(expr.step, SCEVConstant):
                raise _NonAffine(f"inner loop {inner_id} has a symbolic "
                                 f"stride")
            inner_trip = self._trip(expr.loop)
            if inner_trip is None:
                raise _NonAffine(f"inner loop {inner_id} has no constant "
                                 f"trip count")
            max_index = inner_trip
            if (access_block is not None
                    and access_block in expr.loop.blocks
                    and access_block is not expr.loop.header):
                max_index = inner_trip - 1
            if abs(expr.step.value * max_index) >= _WRAP_LIMIT:
                raise _NonAffine(f"inner loop {inner_id} extent may wrap "
                                 f"i32")
            outer = self._linearize(expr.start, loop, access_block)
            key = id(expr.loop)
            dim = outer.dims.get(key)
            if dim is None:
                outer.dims[key] = _Dim(expr.loop, expr.step.value, max_index)
            else:
                dim.stride += expr.step.value
                dim.max_index = max(dim.max_index, max_index)
            return outer
        # Addrec of an outer or disjoint loop: fixed for the whole
        # invocation of ``loop``. Its *start* may still carry the base
        # pointer (``{{A,+,8}<outer>,+,1}<inner>`` seen from the inner
        # loop), so split value = start + {0,+,step}<that-loop>: the start
        # linearizes normally and the iteration-dependent remainder stays
        # one symbolic term both accesses of a pair share structurally.
        start = self._linearize(expr.start, loop, access_block)
        offset_term = SCEVAddRec(ZERO, expr.step, expr.loop)
        start.terms[offset_term] = start.terms.get(offset_term, 0) + 1
        return start

    # -- subscript tests ----------------------------------------------------------

    def _subscript_test(self, fp1, fp2, trip, first, second):
        """Nest-aware ZIV / SIV / MIV test over two same-base footprints.

        ``fp1`` covers ``c1 + b1·i + Σ s·i_m`` at iteration ``i`` of the
        analyzed loop (with ``i_m`` ranging over each inner loop's index
        box); ``fp2`` likewise at iteration ``j``. A dependence carried at
        this level needs overlap with ``k = j - i ≠ 0`` and, when the trip
        count is known, ``|k| <= trip - 1``. Inner dimensions may take any
        direction — per-invocation semantics make outer levels ``=`` by
        construction, so a refutation here proves the analyzed level
        dependence-free. Results carry a rendered direction vector
        (analyzed level first, then inner levels) for surviving
        dependences.
        """
        delta_terms = dict(fp1.terms)
        for term, coeff in fp2.terms.items():
            merged = delta_terms.get(term, 0) - coeff
            if merged:
                delta_terms[term] = merged
            else:
                delta_terms.pop(term, None)
        if delta_terms:
            return ("may",
                    f"{first.label} and {second.label} differ by a symbolic "
                    f"offset")
        delta = fp2.const - fp1.const  # f2 minus f1 at equal indices
        if abs(delta) >= _WRAP_LIMIT:
            return ("may", f"{first.label} offset outside the i32 range")
        if trip is not None and trip <= 1:
            return ("independent",)  # a single iteration carries nothing
        b1, b2 = fp1.stride, fp2.stride

        # Inner-dimension contribution window: E = f2's inner part minus
        # f1's, plus the residual callee spans. ``inner_g`` is the lattice
        # the (non-dense) contribution values live on.
        keys = sorted(
            set(fp1.dims) | set(fp2.dims),
            key=lambda key: (fp1.dims.get(key) or fp2.dims[key]).loop.loop_id)
        e_lo = fp2.span_lo - fp1.span_hi
        e_hi = fp2.span_hi - fp1.span_lo
        dense = not (fp1.span_lo == fp1.span_hi
                     == fp2.span_lo == fp2.span_hi == 0)
        inner_g = 0
        inner_mag = max(abs(e_lo), abs(e_hi))
        for key in keys:
            d1, d2 = fp1.dims.get(key), fp2.dims.get(key)
            lo1, hi1 = d1.bounds() if d1 else (0, 0)
            lo2, hi2 = d2.bounds() if d2 else (0, 0)
            e_lo += lo2 - hi1
            e_hi += hi2 - lo1
            inner_g = gcd(inner_g, gcd(abs(d1.stride) if d1 else 0,
                                       abs(d2.stride) if d2 else 0))
            inner_mag += max(abs(lo1), hi1) + max(abs(lo2), hi2)
        if trip is not None and (
                max(abs(b1), abs(b2)) * (trip + 1)
                + inner_mag) >= _WRAP_LIMIT:
            return ("may", f"{first.label} index range may wrap i32")

        def inner_hits(value):
            """May the inner dimensions contribute exactly ``value``?"""
            if not e_lo <= value <= e_hi:
                return False
            if dense:
                return True
            if inner_g == 0:
                return value == 0
            return value % inner_g == 0

        def vector(level_dirs):
            return _render_vector(first, second, level_dirs, fp1, fp2, keys)

        exact = fp1.exact and fp2.exact
        if b1 == 0 and b2 == 0:
            # ZIV at this level: the address window does not move with the
            # analyzed loop.
            if not inner_hits(-delta):
                return ("independent",)
            if exact:
                return ("lcd", 1, vector(["<"]))  # same cell every iteration
            return ("may",
                    f"{first.label} and {second.label} revisit "
                    f"overlapping invariant storage",
                    vector(["*"]))
        if b1 == b2:
            # Strong SIV at this level: b·k must land on a feasible inner
            # contribution; enumerate the (bounded) candidate distances.
            k_min, k_max = _stride_multiples_in(
                -delta - e_hi, -delta - e_lo, b1)
            if trip is not None:
                # Accesses execute in the body only: indices span
                # [0, trip-1], so distances span at most trip-1.
                k_min = max(k_min, -(trip - 1))
                k_max = min(k_max, trip - 1)
            if k_max - k_min > _MAX_DISTANCE_CANDIDATES:
                return ("may",
                        f"{first.label} and {second.label} collide at "
                        f"several possible distances",
                        vector(["*"]))
            candidates = [k for k in range(k_min, k_max + 1)
                          if k != 0 and inner_hits(-delta - b1 * k)]
            if not candidates:
                return ("independent",)
            dirs = sorted({"<" if k > 0 else ">" for k in candidates})
            distances = {abs(k) for k in candidates}
            if len(distances) == 1:
                return ("lcd", distances.pop(), vector(dirs))
            return ("may",
                    f"{first.label} and {second.label} collide at several "
                    f"possible distances",
                    vector(dirs))
        # MIV / weak SIV: GCD over every stride in the equation, then a
        # directional Banerjee range test per level direction.
        if not dense:
            g = gcd(gcd(abs(b1), abs(b2)), inner_g)
            if g and delta % g:
                return ("independent",)
        dirs = []
        for direction in ("<", ">"):
            level_lo, level_hi = _level_range(b1, b2, trip, direction)
            if level_lo + e_lo <= -delta <= level_hi + e_hi:
                dirs.append(direction)
        if not dirs:
            return ("independent",)
        return ("may",
                f"{first.label} and {second.label} have unequal strides "
                f"({b1} vs {b2})",
                vector(dirs))


def _scale_linear(lin, coeff):
    """``coeff · lin`` — negative coefficients swap the span window."""
    if coeff == 1:
        return lin
    scaled = _Linear(const=lin.const * coeff, stride=lin.stride * coeff)
    for term, c in lin.terms.items():
        scaled.terms[term] = c * coeff
    for key, dim in lin.dims.items():
        scaled.dims[key] = _Dim(dim.loop, dim.stride * coeff, dim.max_index)
    lo, hi = lin.span_lo * coeff, lin.span_hi * coeff
    scaled.span_lo, scaled.span_hi = min(lo, hi), max(lo, hi)
    return scaled


def _check_linear(fp):
    """i32 wrap guard over a combined :class:`_Linear`."""
    if (abs(fp.const) >= _WRAP_LIMIT
            or abs(fp.stride) >= _WRAP_LIMIT
            or abs(fp.span_lo) >= _WRAP_LIMIT
            or abs(fp.span_hi) >= _WRAP_LIMIT):
        raise _NonAffine("a combined offset may wrap i32")
    for dim in fp.dims.values():
        if abs(dim.stride * dim.max_index) >= _WRAP_LIMIT:
            raise _NonAffine(
                f"inner loop {dim.loop.loop_id} extent may wrap i32")


def _shift_footprint(fp, front):
    """``fp`` advanced by ``front`` iterations (``None`` if it may wrap)."""
    const = fp.const + fp.stride * front
    if abs(const) >= _WRAP_LIMIT:
        return None
    return _Linear(const=const, terms=dict(fp.terms), stride=fp.stride,
                   dims=dict(fp.dims), span_lo=fp.span_lo,
                   span_hi=fp.span_hi)


def _level_range(b1, b2, trip, direction):
    """Range of ``b2·j - b1·i`` over iteration pairs of the analyzed loop
    constrained to ``direction`` (``<``: i < j, ``>``: i > j) with
    ``i, j ∈ [0, trip-1]`` — unbounded rays when ``trip`` is ``None``.

    With ``k = |j - i| ∈ [1, trip-1]`` and the smaller index ``t``, the
    term is linear in ``(k, t)`` over a triangle, so its extrema sit at
    the vertices ``(1, 0)``, ``(1, trip-2)`` and ``(trip-1, 0)``.
    """
    if direction == "<":
        k_coeff = b2
    else:
        k_coeff = -b1
    free_coeff = b2 - b1
    if trip is not None:
        last = trip - 1
        corners = (k_coeff,
                   k_coeff + free_coeff * (last - 1),
                   k_coeff * last)
        return (min(corners), max(corners))
    lo = hi = k_coeff  # k = 1, smaller index = 0
    if k_coeff > 0:
        hi = inf
    elif k_coeff < 0:
        lo = -inf
    if free_coeff > 0:
        hi = inf
    elif free_coeff < 0:
        lo = -inf
    return (lo, hi)


def _render_vector(first, second, level_dirs, fp1, fp2, keys):
    """Human-readable direction vector for a surviving dependence:
    analyzed level first, then one position per inner-loop dimension (in
    nest order), ``*`` when an inner level may take any direction and a
    trailing ``*`` when residual callee spans blur the tail."""
    parts = ["".join(level_dirs) if level_dirs else "*"]
    for key in keys:
        d1, d2 = fp1.dims.get(key), fp2.dims.get(key)
        if d1 is not None and d2 is not None and d1.stride == d2.stride \
                and d1.stride == 0:
            parts.append("=")
        else:
            parts.append("*")
    if (fp1.span_lo, fp1.span_hi, fp2.span_lo, fp2.span_hi) != (0, 0, 0, 0):
        parts.append("*")
    return f"{first.label} -> {second.label}: ({', '.join(parts)})"


def _stride_multiples_in(lower, upper, stride):
    """Integer ``k`` range with ``stride·k ∈ [lower, upper]`` (or ``None``
    if unbounded — stride 0 inside a nonempty interval)."""
    if stride == 0:
        if lower <= 0 <= upper:
            return None
        return (1, 0)  # empty range
    if stride > 0:
        return (-(-lower // stride), upper // stride)
    return (-(-upper // stride), lower // stride)


def _dedupe(reasons, cap=8):
    seen = []
    for reason in reasons:
        if reason not in seen:
            seen.append(reason)
    seen.sort()
    if len(seen) > cap:
        seen = seen[:cap] + [f"... and {len(seen) - cap} more"]
    return seen


# -- canonical loop shape ---------------------------------------------------------

# Division/remainder opcodes trap on a zero divisor; restructuring passes
# must not move one relative to other traps unless the divisor is a
# provably nonzero constant.
TRAPPING_DIV_OPS = ("sdiv", "srem", "udiv", "urem", "fdiv")


def is_nonzero_constant(value):
    return isinstance(value, Constant) and value.value != 0


class LoopShape:
    """A canonical counted loop: preheader -> header (phis + compare +
    CondBr) -> straight-line body chain -> latch -> header, with one
    dedicated exit block. The only shape the transform passes restructure."""

    __slots__ = ("preheader", "header", "compare", "body_entry", "chain",
                 "latch", "exit_block")

    def __init__(self, preheader, header, compare, body_entry, chain, latch,
                 exit_block):
        self.preheader = preheader
        self.header = header
        self.compare = compare
        self.body_entry = body_entry
        self.chain = chain
        self.latch = latch
        self.exit_block = exit_block


def canonical_loop_shape(loop, cfg):
    """``(LoopShape, None)`` when the loop is canonical, else
    ``(None, reason)``. Mirrors the vec planner's shape screen so every
    loop the transform tier restructures is one the other tiers already
    know how to reason about."""
    if loop.subloops:
        return None, "contains an inner loop"
    preheader = loop.preheader(cfg)
    if preheader is None:
        return None, "no preheader"
    latch = loop.single_latch()
    if latch is None:
        return None, f"{len(loop.latches)} latches (multi-latch bailout)"
    if not isinstance(preheader.terminator, Br):
        return None, "guarded preheader"
    header = loop.header
    if latch is header:
        return None, "body folded into the header"
    instructions = header.instructions
    compare = None
    for position, instruction in enumerate(instructions):
        if isinstance(instruction, Phi):
            if compare is not None:
                return None, "complex header"
            continue
        if isinstance(instruction, ICmp):
            if compare is not None or position != len(instructions) - 2:
                return None, "complex header"
            compare = instruction
            continue
        if isinstance(instruction, CondBr):
            if compare is None or instruction.condition is not compare:
                return None, "complex header"
            continue
        return None, "complex header"
    if compare is None or not isinstance(header.terminator, CondBr):
        return None, "complex header"
    successors = header.terminator.successors()
    inside = [s for s in successors if s in loop.blocks]
    outside = [s for s in successors if s not in loop.blocks]
    if len(inside) != 1 or len(outside) != 1:
        return None, "complex header"
    if set(loop.exiting_blocks(cfg)) != {header}:
        return None, "multiple exiting blocks"
    exit_block = outside[0]
    if cfg.predecessors(exit_block) != [header]:
        return None, "shared exit block"
    body_entry = inside[0]
    chain = []
    seen = set()
    block = body_entry
    while True:
        if block is header or id(block) in seen:
            return None, "control flow in body"
        seen.add(id(block))
        chain.append(block)
        terminator = block.terminator
        if not isinstance(terminator, Br):
            return None, "control flow in body"
        if block is latch:
            if terminator.target is not header:
                return None, "control flow in body"
            break
        block = terminator.target
        if block not in loop.blocks:
            return None, "control flow in body"
    if set(chain) | {header} != loop.blocks:
        return None, "control flow in body"
    for block in chain:
        for instruction in block.instructions:
            if isinstance(instruction, Phi):
                return None, "phi in body"
    return LoopShape(preheader, header, compare, body_entry, chain, latch,
                     exit_block), None


# -- statement-level dependence graph ---------------------------------------------


class StatementGraph:
    """Statement-level dependence graph of one canonical loop body.

    Nodes are the non-terminator instructions of the body chain in program
    order. A forward edge ``i -> j`` means statement ``j`` must not run in
    an *earlier* distributed loop than ``i``; a bidirectional pair means
    the two statements must stay in the same loop (a dependence cycle).
    ``serial`` marks statements that carry an iteration-ordering constraint
    (a proven or unrefuted cross-iteration memory dependence, or a
    non-computable register recurrence) — the statements fission wants to
    quarantine away from the DOALL-able remainder.

    ``failure`` is ``None`` when the graph was built, else the reason the
    loop cannot be modeled at statement level.
    """

    __slots__ = ("loop", "shape", "statements", "edges", "serial",
                 "phi_groups", "failure")

    def __init__(self, loop, shape=None, statements=(), edges=(),
                 serial=(), phi_groups=(), failure=None):
        self.loop = loop
        self.shape = shape
        self.statements = list(statements)
        self.edges = [set(successors) for successors in edges]
        self.serial = set(serial)
        self.phi_groups = list(phi_groups)  # (phi, reg_class, member set)
        self.failure = failure

    def sccs(self):
        """Strongly connected components, deterministic (Tarjan, ordered
        neighbor expansion), each sorted by statement index."""
        count = len(self.statements)
        index = [None] * count
        low = [0] * count
        onstack = [False] * count
        stack = []
        result = []
        counter = 0
        for root in range(count):
            if index[root] is not None:
                continue
            index[root] = low[root] = counter
            counter += 1
            stack.append(root)
            onstack[root] = True
            work = [(root, iter(sorted(self.edges[root])))]
            while work:
                node, successors = work[-1]
                advanced = False
                for succ in successors:
                    if index[succ] is None:
                        index[succ] = low[succ] = counter
                        counter += 1
                        stack.append(succ)
                        onstack[succ] = True
                        work.append((succ, iter(sorted(self.edges[succ]))))
                        advanced = True
                        break
                    if onstack[succ]:
                        low[node] = min(low[node], index[succ])
                if advanced:
                    continue
                work.pop()
                if work:
                    parent = work[-1][0]
                    low[parent] = min(low[parent], low[node])
                if low[node] == index[node]:
                    component = []
                    while True:
                        member = stack.pop()
                        onstack[member] = False
                        component.append(member)
                        if member == node:
                            break
                    result.append(sorted(component))
        result.sort(key=lambda component: component[0])
        return result

    def fission_groups(self):
        """Partition into distributable groups: a topological order of the
        SCC condensation with consecutive same-kind (serial / parallel)
        components merged. Returns ``[(sorted_statement_indices,
        is_serial)]`` in execution order, or ``[]`` when the loop is not
        worth distributing (fewer than two groups)."""
        if self.failure is not None or not self.statements:
            return []
        components = self.sccs()
        if len(components) < 2:
            return []
        component_of = {}
        for ci, component in enumerate(components):
            for member in component:
                component_of[member] = ci
        successors = [set() for _ in components]
        indegree = [0] * len(components)
        for i in range(len(self.statements)):
            for j in self.edges[i]:
                a, b = component_of[i], component_of[j]
                if a != b and b not in successors[a]:
                    successors[a].add(b)
                    indegree[b] += 1
        # Kahn with a min-index priority: deterministic, and valid even
        # when components interleave in program order.
        ready = sorted(
            (ci for ci in range(len(components)) if indegree[ci] == 0),
            key=lambda ci: components[ci][0])
        order = []
        while ready:
            ci = ready.pop(0)
            order.append(ci)
            changed = False
            for succ in successors[ci]:
                indegree[succ] -= 1
                if indegree[succ] == 0:
                    ready.append(succ)
                    changed = True
            if changed:
                ready.sort(key=lambda ci: components[ci][0])
        if len(order) != len(components):  # defensive: cycle across SCCs
            return []
        groups = []
        for ci in order:
            component = components[ci]
            is_serial = any(member in self.serial for member in component)
            if groups and groups[-1][1] == is_serial:
                groups[-1][0].extend(component)
            else:
                groups.append((list(component), is_serial))
        return [(sorted(members), is_serial) for members, is_serial in groups]

    def describe(self):
        if self.failure is not None:
            return f"no statement graph: {self.failure}"
        kinds = ["serial" if i in self.serial else "parallel"
                 for i in range(len(self.statements))]
        return (f"{len(self.statements)} statements "
                f"({kinds.count('serial')} serial, "
                f"{kinds.count('parallel')} parallel)")


# -- module driver ---------------------------------------------------------------


def analyze_module(module, loop_infos=None):
    """``{loop_id: LoopDependence}`` for every loop in the module.

    ``loop_infos`` may carry precomputed per-function :class:`LoopInfo`
    objects keyed by function name (as ``ModuleStaticInfo`` holds them) so
    loop identities line up with the instrumentation's.
    """
    summaries = module_memory_summaries(module)
    verdicts = {}
    for function in module.defined_functions():
        loop_info = None
        if loop_infos is not None:
            loop_info = loop_infos.get(function.name)
        analysis = DependenceAnalysis(
            function, loop_info=loop_info, summaries=summaries)
        for loop in analysis.loop_info.all_loops():
            verdicts[loop.loop_id] = analysis.loop_verdict(loop)
    return verdicts
