"""Static-vs-dynamic cross-validation of loop dependence verdicts.

Joins the static dependence engine's verdict for every loop
(:mod:`repro.analysis.depend`) against what the dynamic profile actually
observed, and buckets each loop:

* ``static-proved``     — ``STATIC_DOALL`` and no dynamic conflicts: the
  static tier alone certifies the loop, no profiling needed.
* ``dynamic-only``      — statically ``UNKNOWN`` but dynamically clean:
  parallelizable only on profile evidence (the paper's speculative tier).
* ``static-missed``     — ``STATIC_LCD`` predicted but no conflict ever
  manifested (the dependence is input-dependent, write-after-write only,
  or on a cold path).
* ``confirmed-lcd``     — ``STATIC_LCD`` and dynamic conflicts: both tiers
  agree the loop carries a memory dependence.
* ``dynamic-lcd``       — statically ``UNKNOWN`` with observed conflicts.
* ``unsound-static-doall`` — ``STATIC_DOALL`` *with* dynamic conflicts.
  This is a bug in the static engine by construction; ``repro crosscheck``
  and ``repro figures`` exit non-zero if any loop lands here.
* ``unobserved``        — the loop never ran under the profiling input.

The joint view is the agreement table behind ``repro crosscheck`` and the
"Static crosscheck" section of ``repro figures``.
"""

from __future__ import annotations

from ..analysis.depend import VERDICT_DOALL, VERDICT_LCD

CATEGORY_ORDER = (
    "static-proved",
    "dynamic-only",
    "static-missed",
    "confirmed-lcd",
    "dynamic-lcd",
    "unsound-static-doall",
    "unobserved",
)


class CrosscheckRow:
    """One loop's joined static verdict and dynamic observation."""

    __slots__ = ("program", "loop_id", "verdict", "distance", "conflicts",
                 "invocations", "iterations", "category")

    def __init__(self, program, loop_id, dependence, conflicts, invocations,
                 iterations):
        self.program = program
        self.loop_id = loop_id
        self.verdict = dependence.describe()
        self.distance = dependence.distance
        self.conflicts = conflicts
        self.invocations = invocations
        self.iterations = iterations
        self.category = _categorize(
            dependence.verdict, conflicts, invocations)

    def to_dict(self):
        return {
            "program": self.program,
            "loop_id": self.loop_id,
            "verdict": self.verdict,
            "conflicts": self.conflicts,
            "invocations": self.invocations,
            "iterations": self.iterations,
            "category": self.category,
        }

    def __repr__(self):
        return (f"<CrosscheckRow {self.program}:{self.loop_id} "
                f"{self.verdict} -> {self.category}>")


def _categorize(verdict, conflicts, invocations):
    if invocations == 0:
        return "unobserved"
    if verdict == VERDICT_DOALL:
        return "unsound-static-doall" if conflicts else "static-proved"
    if verdict == VERDICT_LCD:
        return "confirmed-lcd" if conflicts else "static-missed"
    return "dynamic-lcd" if conflicts else "dynamic-only"


class CrosscheckReport:
    """All rows of a crosscheck run, with agreement tallies."""

    def __init__(self, rows):
        self.rows = sorted(rows, key=lambda r: (r.program, r.loop_id))

    def counts(self):
        tally = {category: 0 for category in CATEGORY_ORDER}
        for row in self.rows:
            tally[row.category] += 1
        return tally

    @property
    def unsound(self):
        """Loops proving the static engine wrong — must be empty."""
        return [row for row in self.rows
                if row.category == "unsound-static-doall"]

    def __repr__(self):
        return f"<CrosscheckReport {len(self.rows)} loops>"


def crosscheck_program(lp, program_name=None):
    """Crosscheck rows for one profiled program."""
    name = program_name if program_name is not None else lp.name
    profile = lp.profile()
    conflicts = profile.loop_totals(profile.conflict_count)
    invocations = profile.loop_totals()
    iterations = profile.loop_totals(profile.n)
    rows = []
    for loop_id, dependence in lp.static_info.dependence().items():
        rows.append(CrosscheckRow(
            name, loop_id, dependence,
            conflicts.get(loop_id, 0),
            invocations.get(loop_id, 0),
            iterations.get(loop_id, 0),
        ))
    return rows


def crosscheck_suites(runner, suites=None):
    """Crosscheck every program of the given suites (default: all)."""
    from ..bench.suites import ALL_SUITES, suite_programs

    wanted = list(suites) if suites is not None else list(ALL_SUITES)
    rows = []
    for suite in wanted:
        for program in suite_programs(suite):
            lp = runner.instance(program)
            rows.extend(crosscheck_program(lp, program.full_name))
    return CrosscheckReport(rows)


def format_crosscheck(report, verbose=False):
    """Deterministic text rendering of a crosscheck report."""
    lines = []
    counts = report.counts()
    total = len(report.rows)
    lines.append(f"static x dynamic dependence crosscheck — {total} loops")
    for category in CATEGORY_ORDER:
        count = counts[category]
        if count == 0 and category != "unsound-static-doall":
            continue
        lines.append(f"  {category:22s} {count:4d}")
    if report.unsound:
        lines.append("  SOUNDNESS VIOLATIONS:")
        for row in report.unsound:
            lines.append(
                f"    {row.program} {row.loop_id}: {row.verdict} but "
                f"{row.conflicts} dynamic conflict(s)")
    else:
        lines.append("  soundness: no statically-proved DOALL loop showed a "
                     "dynamic conflict")
    if verbose:
        lines.append(f"  {'program':28s}{'loop':30s}{'static':22s}"
                     f"{'conflicts':>10s}  category")
        for row in report.rows:
            lines.append(
                f"  {row.program:28s}{row.loop_id:30s}{row.verdict:22s}"
                f"{row.conflicts:>10d}  {row.category}")
    return "\n".join(lines)
