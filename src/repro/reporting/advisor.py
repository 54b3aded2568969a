"""The parallelizability advisor: per-loop source annotations with an
evidence chain.

For every trackable loop the advisor distills the static analyses into one
actionable MiniC annotation:

* ``@parallel``      — STATIC_DOALL and every header phi is computable:
  iterations are fully independent, the loop may be dispatched as-is.
* ``@reduce(kinds)`` — STATIC_DOALL whose only loop-carried registers are
  recognized reductions: parallel with a combining step per kind.
* ``@lcd(dist=k)``   — a proven loop-carried dependence at exact distance
  ``k``: pipeline/skew at that distance (the TLS tier's stride).
* *(none)*           — UNKNOWN memory verdict or a non-computable scalar
  recurrence; the blocking reasons become the evidence chain instead.

Every advice carries its full evidence chain — SCEV trip form, subscript
test summary, direction vectors, call summary involvement, and (when
joined) dynamic profile agreement — so an advised annotation is never an
oracle pronouncement: each line is checkable against ``repro crosscheck``.
The join is the advisor's soundness gate: an advised-parallel loop that
showed a dynamic conflict is a bug by construction, and both the report
object and the CLI surface it as non-zero ``unsound``.
"""

from __future__ import annotations

from ..analysis.depend import VERDICT_DOALL, VERDICT_LCD

#: Annotation kinds, in report order.
ANNOTATION_ORDER = ("@parallel", "@reduce", "@lcd", None)


class LoopAdvice:
    """One loop's advised annotation plus its evidence chain."""

    __slots__ = ("program", "loop_id", "depth", "annotation", "evidence",
                 "conflicts", "invocations", "joined")

    def __init__(self, program, loop_id, depth, annotation, evidence,
                 conflicts=0, invocations=0, joined=False):
        self.program = program
        self.loop_id = loop_id
        self.depth = depth
        self.annotation = annotation  # "@parallel" | "@reduce(...)" | ...
        self.evidence = tuple(evidence)
        self.conflicts = conflicts
        self.invocations = invocations
        self.joined = joined

    @property
    def kind(self):
        """The annotation family (parameter-free), or ``None``."""
        if self.annotation is None:
            return None
        return self.annotation.split("(", 1)[0]

    @property
    def advises_parallel(self):
        return self.kind in ("@parallel", "@reduce")

    @property
    def unsound(self):
        """Advised parallel but the profile observed a conflict."""
        return self.advises_parallel and self.joined and self.conflicts > 0

    def to_dict(self):
        return {
            "program": self.program,
            "loop_id": self.loop_id,
            "depth": self.depth,
            "annotation": self.annotation,
            "evidence": list(self.evidence),
            "conflicts": self.conflicts,
            "invocations": self.invocations,
            "joined": self.joined,
        }

    def __repr__(self):
        return (f"<LoopAdvice {self.program}:{self.loop_id} "
                f"{self.annotation or '(none)'}>")


def advise_program(lp, program_name=None, crosscheck=False):
    """:class:`LoopAdvice` list for one program (sorted by loop id).

    ``crosscheck=True`` profiles the program and joins each advice against
    the observed conflict counts — the soundness backing for every
    ``@parallel``/``@reduce`` line.
    """
    name = program_name if program_name is not None else lp.name
    dependence = lp.static_info.dependence()
    conflicts = {}
    invocations = {}
    if crosscheck:
        profile = lp.profile()
        conflicts = profile.loop_totals(profile.conflict_count)
        invocations = profile.loop_totals()
    advices = []
    for loop_id in sorted(dependence):
        static = lp.static_info.loops.get(loop_id)
        if static is None or not static.trackable:
            continue
        advices.append(_advise_loop(
            name, static, dependence[loop_id],
            conflicts.get(loop_id, 0), invocations.get(loop_id, 0),
            joined=crosscheck))
    return advices


def _advise_loop(program, static, dep, conflicts, invocations, joined):
    """Distill one loop's analyses into an annotation + evidence chain."""
    noncomputable = sorted(static.noncomputable_phis)
    reduction_kinds = sorted(set(static.reduction_kinds.values()))
    annotation = None
    if dep.verdict == VERDICT_DOALL and not noncomputable:
        if reduction_kinds:
            annotation = f"@reduce({', '.join(reduction_kinds)})"
        else:
            annotation = "@parallel"
    elif dep.verdict == VERDICT_LCD and dep.distance is not None \
            and not noncomputable:
        annotation = f"@lcd(dist={dep.distance})"

    evidence = []
    trip = static.trip_count_hint
    evidence.append(
        f"scev: trip {'unknown' if trip is None else trip}, "
        f"depth {static.depth}")
    evidence.append(
        f"subscripts: {dep.tested_pairs} pair(s) over "
        f"{dep.access_count} access(es) -> {dep.describe()}")
    for vector in dep.vectors:
        evidence.append(f"vector: {vector}")
    if dep.distances:
        evidence.append(
            "distances: "
            + ", ".join(str(d) for d in dep.distances))
    if static.call_classes:
        evidence.append(
            "calls: " + ", ".join(sorted(static.call_classes))
            + " (summarized bottom-up)")
    for phi_key, kind in sorted(static.reduction_kinds.items()):
        evidence.append(f"reduction: {phi_key} ({kind})")
    for phi_key in noncomputable:
        evidence.append(f"scalar recurrence blocks parallelism: {phi_key}")
    for reason in dep.reasons:
        evidence.append(f"blocked: {reason}")
    if joined:
        if invocations == 0:
            evidence.append("profile: loop never ran under this input")
        else:
            if annotation is not None and annotation.startswith("@lcd"):
                agreement = ("agrees (conflicts confirm the carried "
                             "dependence)" if conflicts
                             else "no conflict under this input")
            elif annotation is not None:
                agreement = "CONFLICTS" if conflicts else "agrees"
            else:
                agreement = "observed"
            evidence.append(
                f"profile: {invocations} invocation(s), "
                f"{conflicts} conflict(s) — {agreement}")
    return LoopAdvice(program, static.loop_id, static.depth, annotation,
                      evidence, conflicts, invocations, joined)


class AdvisorReport:
    """All advices of one run, with tallies and the soundness gate."""

    def __init__(self, advices):
        self.advices = sorted(
            advices, key=lambda a: (a.program, a.loop_id))

    def counts(self):
        tally = {"@parallel": 0, "@reduce": 0, "@lcd": 0, "unadvised": 0}
        for advice in self.advices:
            tally[advice.kind or "unadvised"] += 1
        return tally

    @property
    def unsound(self):
        """Advised-parallel loops the profile contradicted — must be
        empty."""
        return [a for a in self.advices if a.unsound]

    def __repr__(self):
        return f"<AdvisorReport {len(self.advices)} loops>"


def advise_suites(runner, suites=None, crosscheck=False):
    """Advise every program of the given suites (default: all)."""
    from ..bench.suites import ALL_SUITES, suite_programs

    wanted = list(suites) if suites is not None else list(ALL_SUITES)
    advices = []
    for suite in wanted:
        for program in suite_programs(suite):
            lp = runner.instance(program)
            advices.extend(advise_program(
                lp, program.full_name, crosscheck=crosscheck))
    return AdvisorReport(advices)


def format_advice(report, verbose=False):
    """Deterministic text rendering of an advisor report.

    The default view prints every *advised* loop with its annotation and
    evidence chain; ``verbose`` adds the unadvised loops (with the
    blocking evidence) as well.
    """
    lines = []
    counts = report.counts()
    total = len(report.advices)
    advised = total - counts["unadvised"]
    lines.append(
        f"parallelizability advisor — {total} loop(s), {advised} advised "
        f"(@parallel {counts['@parallel']}, @reduce {counts['@reduce']}, "
        f"@lcd {counts['@lcd']})")
    current = None
    for advice in report.advices:
        if advice.annotation is None and not verbose:
            continue
        if advice.program != current:
            current = advice.program
            lines.append(f"{current}:")
        marker = advice.annotation or "(no annotation)"
        lines.append(f"  {advice.loop_id:34s} {marker}")
        for item in advice.evidence:
            lines.append(f"    | {item}")
    if report.unsound:
        lines.append("  SOUNDNESS VIOLATIONS:")
        for advice in report.unsound:
            lines.append(
                f"    {advice.program} {advice.loop_id}: advised "
                f"{advice.annotation} but {advice.conflicts} dynamic "
                f"conflict(s)")
    elif any(a.joined for a in report.advices):
        lines.append(
            "  soundness: every advised-parallel loop ran conflict-free")
    return "\n".join(lines)
