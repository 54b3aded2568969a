"""Parallelism unlocked by loop transformation — the before/after figure.

Compiles every program twice (structural-transform pipeline off and on),
joins the static dependence verdicts per *original* loop via the
provenance chain (:func:`~repro.analysis.loop_info.loop_origin_root`), and
reports what fission/peeling/fusion changed:

* the suite-wide verdict tally before and after,
* every original loop whose descendants gained a ``STATIC_DOALL`` proof
  (the "unlocked" set),
* which transform produced each unlocked loop.

This backs ``repro transform`` and the "Transform unlock" section of
``repro figures``. ``repro transform --crosscheck`` re-verifies the
transformed modules: it profiles each with ``transform=True`` and runs the
regular crosscheck, so a post-transform ``STATIC_DOALL`` that conflicts
dynamically lands in ``unsound-static-doall`` exactly like an
untransformed one.
"""

from __future__ import annotations

from ..analysis.depend import VERDICT_DOALL, analyze_module
from ..analysis.loop_info import loop_origin_of, loop_origin_root
from ..frontend.codegen import compile_source

VERDICT_RANK = {VERDICT_DOALL: 2, "STATIC_LCD": 1, "UNKNOWN": 0}


class TransformRow:
    """One original loop: its verdict before transforms, and the verdicts
    of every loop descending from it after transforms."""

    __slots__ = ("program", "loop_id", "before", "after", "unlocked")

    def __init__(self, program, loop_id, before, after):
        self.program = program
        self.loop_id = loop_id
        self.before = before          # verdict string (pipeline off)
        #: ``[(descendant_loop_id, verdict, origin_tag), ...]`` pipeline on,
        #: sorted by descendant id.
        self.after = sorted(after)
        self.unlocked = (
            before != VERDICT_DOALL
            and any(verdict == VERDICT_DOALL for _, verdict, _ in self.after)
        )

    @property
    def best_after(self):
        """The strongest verdict any descendant achieved."""
        if not self.after:
            return self.before
        return max(
            (verdict for _, verdict, _ in self.after),
            key=lambda v: VERDICT_RANK.get(v, -1),
        )

    def to_dict(self):
        return {
            "program": self.program,
            "loop_id": self.loop_id,
            "before": self.before,
            "after": [
                {"loop_id": lid, "verdict": verdict, "origin": tag}
                for lid, verdict, tag in self.after
            ],
            "unlocked": self.unlocked,
        }

    def __repr__(self):
        return (f"<TransformRow {self.program}:{self.loop_id} "
                f"{self.before} -> {self.best_after}>")


class TransformReport:
    """All rows of a before/after transform comparison."""

    def __init__(self, rows, transform_log=()):
        self.rows = sorted(rows, key=lambda r: (r.program, r.loop_id))
        #: Concatenated ``module.transform_log`` entries across programs.
        self.transform_log = list(transform_log)

    def counts_before(self):
        return _tally(row.before for row in self.rows)

    def counts_after(self):
        return _tally(row.best_after for row in self.rows)

    @property
    def unlocked(self):
        return [row for row in self.rows if row.unlocked]

    def __repr__(self):
        return (f"<TransformReport {len(self.rows)} loops, "
                f"{len(self.unlocked)} unlocked>")


def _tally(verdicts):
    counts = {VERDICT_DOALL: 0, "STATIC_LCD": 0, "UNKNOWN": 0}
    for verdict in verdicts:
        counts[verdict] = counts.get(verdict, 0) + 1
    return counts


def _module_verdicts(module):
    return {
        loop_id: dep.verdict
        for loop_id, dep in analyze_module(module).items()
    }


def transform_program(source, name):
    """Before/after rows for one program source.

    Compiles the program twice — the only honest way to diff: the
    transform pipeline mutates the module in place.
    """
    plain = compile_source(source, module_name=name, transform=False)
    transformed = compile_source(source, module_name=name, transform=True)
    before = _module_verdicts(plain)
    after = _module_verdicts(transformed)

    descendants = {loop_id: [] for loop_id in before}
    orphans = []
    for loop_id, verdict in after.items():
        root = loop_origin_root(transformed, loop_id)
        tag = loop_origin_of(transformed, loop_id).tag
        if root in descendants:
            descendants[root].append((loop_id, verdict, tag))
        else:
            # A transform product whose root predates the diff (should not
            # happen; kept so a provenance bug is visible, not silent).
            orphans.append((loop_id, verdict, tag))
    rows = [
        TransformRow(name, loop_id, before[loop_id], after_list)
        for loop_id, after_list in descendants.items()
    ]
    for loop_id, verdict, tag in orphans:
        rows.append(TransformRow(name, loop_id, "UNKNOWN",
                                 [(loop_id, verdict, tag)]))
    return rows, list(getattr(transformed, "transform_log", ()))


def transform_suites(suites=None):
    """Before/after report over the bench suites (default: all)."""
    from ..bench.suites import ALL_SUITES, suite_programs

    wanted = list(suites) if suites is not None else list(ALL_SUITES)
    rows = []
    log = []
    for suite in wanted:
        for program in suite_programs(suite):
            program_rows, program_log = transform_program(
                program.source, program.full_name)
            rows.extend(program_rows)
            log.extend(
                dict(entry, program=program.full_name)
                for entry in program_log
            )
    return TransformReport(rows, log)


def format_transform_figure(report, verbose=False):
    """Deterministic text rendering: the unlock figure plus details."""
    lines = []
    before = report.counts_before()
    after = report.counts_after()
    total = len(report.rows)
    lines.append(
        f"parallelism unlocked by transformation — {total} original loops")
    lines.append(f"  {'verdict':14s}{'before':>8s}{'after':>8s}")
    for verdict in (VERDICT_DOALL, "STATIC_LCD", "UNKNOWN"):
        lines.append(f"  {verdict:14s}{before[verdict]:>8d}"
                     f"{after[verdict]:>8d}")
    bar_before = "#" * before[VERDICT_DOALL]
    bar_after = "#" * after[VERDICT_DOALL]
    lines.append(f"  proved DOALL before |{bar_before}")
    lines.append(f"  proved DOALL after  |{bar_after}")
    passes = {}
    for entry in report.transform_log:
        passes[entry.get("pass", "?")] = \
            passes.get(entry.get("pass", "?"), 0) + 1
    if passes:
        applied = ", ".join(f"{name} x{count}"
                            for name, count in sorted(passes.items()))
        lines.append(f"  transforms applied: {applied}")
    else:
        lines.append("  transforms applied: none")
    if report.unlocked:
        lines.append("  unlocked loops:")
        for row in report.unlocked:
            winners = ", ".join(
                f"{lid} [{tag}]" for lid, verdict, tag in row.after
                if verdict == VERDICT_DOALL
            )
            lines.append(f"    {row.program} {row.loop_id}: "
                         f"{row.before} -> DOALL via {winners}")
    else:
        lines.append("  unlocked loops: none")
    if verbose:
        lines.append(f"  {'program':28s}{'loop':30s}{'before':14s}after")
        for row in report.rows:
            after_text = ", ".join(
                f"{lid}={verdict}" for lid, verdict, _ in row.after
            ) or "(removed)"
            lines.append(f"  {row.program:28s}{row.loop_id:30s}"
                         f"{row.before:14s}{after_text}")
    return "\n".join(lines)
