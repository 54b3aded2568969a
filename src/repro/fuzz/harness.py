"""The four-way differential oracle and the fuzzing campaign driver.

For each program the harness compiles once per pipeline mode, with the
verifier run after every pass stage, and profiles that one module on
every backend. It checks four agreements:

``verifier``
    The IR is verifier-clean after *every* pass stage
    (``verify_each=True``), with the structural-transform stage both off
    and on. A frontend rejection of generated source also lands here —
    that is a generator bug, and just as quarantinable.
``backends``
    The reference interpreter (``closure``), the block-template JIT, and
    the vector tier produce byte-identical serialized profiles (and
    identical program result/output), per pipeline mode.
``transforms``
    Observable behaviour (result + output) is identical with the
    structural-transform stage on vs. off.
``crosscheck``
    No statically-proved DOALL loop shows a dynamic conflict
    (``unsound-static-doall == 0``), per pipeline mode — the soundness
    invariant from PR 4, now a continuously tested property. It reads the
    first backend's profile.

An execution fault (trap, fuel exhaustion) is reported under the
``execution`` pseudo-oracle: generated programs are trap-free by
construction, so a trap is a generator or interpreter bug either way.

:func:`fuzz_campaign` drives generate -> oracle -> shrink -> quarantine
over a seed range, with per-case events recorded in the PR 2 telemetry
ledger format (see :meth:`repro.runtime.telemetry.RunTelemetry.fuzz_case`).
"""

from __future__ import annotations

import json
import time

from ..core.framework import Loopapalooza
from ..errors import ReproError, VerificationError
from ..analysis.depend import VERDICT_DOALL
from ..interp.interpreter import Interpreter
from ..reporting.crosscheck import crosscheck_program
from ..runtime.recorder import ProfilingRuntime
from ..runtime.serialize import profile_to_dict
from .genprog import generate_program, render

#: The execution tiers the differential oracle compares.
BACKENDS = ("closure", "jit", "vec")

#: Oracle names in checking order. ``execution`` is the pseudo-oracle for
#: runtime faults in generated programs; ``nest`` validates outer-loop
#: STATIC_DOALL claims (loops with subloops) against the conflict log.
ORACLES = ("verifier", "backends", "transforms", "crosscheck", "nest",
           "execution")

#: Default fuel for oracle runs — generated programs stay well under 10^5
#: dynamic instructions, so hitting this means a runaway loop.
DEFAULT_FUEL = 20_000_000


class OracleFailure:
    """One disagreement: which oracle fired and a human-readable detail."""

    __slots__ = ("oracle", "detail")

    def __init__(self, oracle, detail):
        self.oracle = oracle
        self.detail = detail

    def to_dict(self):
        return {"oracle": self.oracle, "detail": self.detail}

    def __repr__(self):
        return f"<OracleFailure {self.oracle}: {self.detail[:60]}>"


class OracleReport:
    """All oracle outcomes for one program."""

    def __init__(self, name, failures, checks, wall_s=0.0):
        self.name = name
        self.failures = list(failures)
        #: oracle -> "ok" | "fail" | "skipped"
        self.checks = dict(checks)
        self.wall_s = wall_s

    @property
    def ok(self):
        return not self.failures

    @property
    def failed_oracles(self):
        return sorted({f.oracle for f in self.failures})

    def describe(self):
        if self.ok:
            return f"{self.name}: all oracles agree"
        parts = "; ".join(
            f"{f.oracle}: {f.detail}" for f in self.failures)
        return f"{self.name}: DISAGREEMENT — {parts}"


def _mode(transform):
    return "on" if transform else "off"


def _profile_key(lp, backend):
    """(serialized-profile, result, output) of ``lp``'s module run on
    ``backend`` — the byte-equality triple. ``lp``'s own backend gives its
    cached profile, which the crosscheck and nest oracles then read."""
    if backend == lp.backend:
        profile, output = lp.profile(), lp.output
    else:
        runtime = ProfilingRuntime(lp.name)
        machine = Interpreter(lp.module, runtime, lp.instrumentation,
                              fuel=lp.fuel, backend=backend)
        runtime.attach(machine)
        result = machine.run("main")
        profile, output = runtime.finish(machine.cost, result), machine.output
    text = json.dumps(profile_to_dict(profile), sort_keys=True)
    return text, profile.result, tuple(output)


def run_oracles(source, name="fuzz", fuel=DEFAULT_FUEL, backends=BACKENDS):
    """Run the four-way oracle on one MiniC source; an :class:`OracleReport`.

    Compiles the program twice (transforms off and on, verifying after
    every pass stage) and profiles each module once per backend; all
    comparisons come from those runs.
    """
    started = time.perf_counter()
    failures = []
    checks = {oracle: "ok" for oracle in ORACLES}

    # Oracle 1: verifier-clean IR after every pass stage, both modes. The
    # verified compile is the module every later oracle profiles.
    lps = {}
    for transform in (False, True):
        try:
            lps[transform] = Loopapalooza(
                source, name=name, fuel=fuel, verify_each=True,
                backend=backends[0], transform=transform)
        except VerificationError as error:
            checks["verifier"] = "fail"
            failures.append(OracleFailure(
                "verifier",
                f"transform={_mode(transform)}: {error.problems[0]}"
                + (f" (+{len(error.problems) - 1} more)"
                   if len(error.problems) > 1 else ""),
            ))
        except ReproError as error:
            checks["verifier"] = "fail"
            failures.append(OracleFailure(
                "verifier",
                f"frontend rejected generated source "
                f"(transform={_mode(transform)}): {error}",
            ))
    if failures:
        for oracle in ("backends", "transforms", "crosscheck", "nest",
                       "execution"):
            checks[oracle] = "skipped"
        return OracleReport(name, failures, checks,
                            time.perf_counter() - started)

    # Oracles 2-4 share one profile run per (backend, transform mode).
    keys = {}
    for transform in (False, True):
        for backend in backends:
            try:
                keys[(transform, backend)] = _profile_key(lps[transform],
                                                          backend)
            except ReproError as error:
                checks["execution"] = "fail"
                failures.append(OracleFailure(
                    "execution",
                    f"{backend}/transform={_mode(transform)}: "
                    f"{type(error).__name__}: {error}",
                ))
                for oracle in ("backends", "transforms", "crosscheck",
                               "nest"):
                    checks[oracle] = "skipped"
                return OracleReport(name, failures, checks,
                                    time.perf_counter() - started)

    # Oracle 2: all backends byte-identical, per mode.
    reference_backend = backends[0]
    for transform in (False, True):
        reference = keys[(transform, reference_backend)]
        for backend in backends[1:]:
            if keys[(transform, backend)] != reference:
                checks["backends"] = "fail"
                failures.append(OracleFailure(
                    "backends",
                    f"{backend} diverges from {reference_backend} "
                    f"(transform={_mode(transform)})",
                ))

    # Oracle 3: transforms are observationally safe (result + output).
    off = keys[(False, reference_backend)]
    on = keys[(True, reference_backend)]
    if off[1:] != on[1:]:
        checks["transforms"] = "fail"
        failures.append(OracleFailure(
            "transforms",
            f"observable behaviour changed: result/output "
            f"{off[1]!r} vs {on[1]!r} with transforms on",
        ))

    # Oracle 4: no unsound STATIC_DOALL, per mode.
    for transform, lp in lps.items():
        rows = crosscheck_program(lp, name)
        unsound = [row for row in rows
                   if row.category == "unsound-static-doall"]
        for row in unsound:
            checks["crosscheck"] = "fail"
            failures.append(OracleFailure(
                "crosscheck",
                f"{row.loop_id} (transform={_mode(transform)}): "
                f"{row.verdict} but {row.conflicts} dynamic conflict(s)",
            ))

        # Oracle 5 (nest): outer-loop STATIC_DOALL claims specifically.
        # The nest engine proves an outer loop DOALL only when every
        # dependence is `=` at its level; a dynamic conflict on such a
        # loop means a direction-vector test accepted a cross-iteration
        # pair it should not have.
        outer = set()
        for loop_info in lp.static_info.loop_infos.values():
            for loop in loop_info.all_loops():
                if loop.subloops:
                    outer.add(loop.loop_id)
        dependence = lp.static_info.dependence()
        conflicts = {}
        for invocation in lp.profile().all_invocations():
            conflicts[invocation.loop_id] = \
                conflicts.get(invocation.loop_id, 0) \
                + invocation.conflict_count
        for loop_id in sorted(outer):
            verdict = dependence.get(loop_id)
            if verdict is None or verdict.verdict != VERDICT_DOALL:
                continue
            observed = conflicts.get(loop_id, 0)
            if observed:
                checks["nest"] = "fail"
                failures.append(OracleFailure(
                    "nest",
                    f"outer loop {loop_id} "
                    f"(transform={_mode(transform)}): STATIC_DOALL but "
                    f"{observed} dynamic conflict(s) across its nest",
                ))

    return OracleReport(name, failures, checks,
                        time.perf_counter() - started)


def oracle_predicate(oracles, fuel=DEFAULT_FUEL, backends=BACKENDS):
    """A spec -> bool callback for the shrinker: does any of the given
    oracle kinds still fire on the rendered spec?"""
    wanted = set(oracles)

    def still_fails(spec):
        report = run_oracles(render(spec), name="shrink", fuel=fuel,
                             backends=backends)
        return bool(wanted.intersection(report.failed_oracles))

    return still_fails


# -- campaign driver -----------------------------------------------------------


class FuzzSummary:
    """Outcome of one :func:`fuzz_campaign`."""

    def __init__(self, profile, first_seed):
        self.profile = profile
        self.first_seed = first_seed
        self.cases = 0
        self.quarantined = []   # QuarantineCase objects
        self.wall_s = 0.0
        self.budget_exhausted = False
        self.last_seed = None

    @property
    def ok(self):
        return not self.quarantined

    def describe(self):
        lines = [
            f"fuzz campaign: profile={self.profile} "
            f"seeds {self.first_seed}..{self.last_seed} "
            f"({self.cases} case(s), {self.wall_s:.1f}s)"
        ]
        if self.budget_exhausted:
            lines.append("  time budget exhausted before the full seed "
                         "range was covered")
        if self.quarantined:
            lines.append(f"  {len(self.quarantined)} DISAGREEMENT(S) "
                         f"quarantined:")
            for case in self.quarantined:
                lines.append(f"    {case.case_id}: [{case.oracle}] "
                             f"{case.detail}")
        else:
            lines.append("  all oracles agreed on every generated program")
        return "\n".join(lines)


def fuzz_campaign(seed=0, count=100, profile="mixed", time_budget=None,
                  corpus_dir=None, telemetry=None, fuel=DEFAULT_FUEL,
                  shrink=True, log=None):
    """Generate -> oracle -> shrink -> quarantine over ``count`` seeds.

    Any disagreeing program is delta-minimized against the same oracle
    kinds and stored in the quarantine corpus; the campaign then moves on
    to the next seed. Returns a :class:`FuzzSummary`.
    """
    summary = FuzzSummary(profile, seed)
    started = time.perf_counter()
    for current in range(seed, seed + count):
        if time_budget is not None \
                and time.perf_counter() - started >= time_budget:
            summary.budget_exhausted = True
            break
        program = generate_program(current, profile)
        report = run_oracles(program.source, program.name, fuel=fuel)
        summary.cases += 1
        summary.last_seed = current
        case = None
        if not report.ok:
            case = _quarantine(program, report, fuel=fuel, shrink=shrink,
                               corpus_dir=corpus_dir, log=log)
            summary.quarantined.append(case)
        if telemetry is not None:
            telemetry.fuzz_case(
                case_id=case.case_id if case else None,
                seed=current,
                profile=profile,
                verdict="quarantined" if case else "ok",
                oracles=report.failed_oracles,
                wall_s=report.wall_s,
            )
        if log is not None and not report.ok:
            log(report.describe())
    summary.wall_s = time.perf_counter() - started
    return summary


def _quarantine(program, report, fuel, shrink, corpus_dir, log=None):
    """Minimize a disagreeing program and store it in the corpus."""
    from .corpus import QuarantineCase, store_case
    from .shrink import shrink_spec

    spec = program.spec
    if shrink:
        predicate = oracle_predicate(report.failed_oracles, fuel=fuel)
        spec = shrink_spec(spec, predicate)
    primary = report.failures[0]
    case = QuarantineCase(
        seed=program.seed,
        profile=program.profile,
        oracle=primary.oracle,
        detail=primary.detail,
        source=render(spec),
        original_source=program.source,
        failures=[f.to_dict() for f in report.failures],
    )
    path = store_case(case, corpus_dir)
    if log is not None:
        log(f"quarantined {case.case_id} -> {path}")
    return case
