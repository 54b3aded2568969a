"""repro.runtime — the Loopapalooza run-time component.

Profile data structures (the columnar profile, and the loop-invocation
nodes of its read-only tree view), the profiling runtime that implements
the instrumentation callbacks (epoch-ordered conflict tracking, register
LCD recording, cactus-stack privatization), and the DOALL /
Partial-DOALL / HELIX cost models.
"""

from .cost_models import (
    ModelOutcome,
    doacross_cost,
    doall_cost,
    helix_cost,
    pdoall_cost,
    pdoall_phase_breaks,
    serial_outcome,
)
from .call_records import CallRecord, CallSiteSummary
from .profile import LoopInvocation, ProgramProfile
from .serialize import (
    load_profile,
    profile_from_dict,
    profile_to_dict,
    save_profile,
)
from .recorder import ProfilingRuntime
from .telemetry import (
    RunTelemetry,
    format_run_summary,
    format_runs_table,
    list_runs,
    load_manifest,
    purge_runs,
    runs_root,
)

__all__ = [
    "CallRecord",
    "CallSiteSummary",
    "LoopInvocation",
    "ModelOutcome",
    "ProfilingRuntime",
    "ProgramProfile",
    "RunTelemetry",
    "format_run_summary",
    "format_runs_table",
    "list_runs",
    "load_manifest",
    "purge_runs",
    "runs_root",
    "doacross_cost",
    "doall_cost",
    "helix_cost",
    "load_profile",
    "pdoall_cost",
    "pdoall_phase_breaks",
    "profile_from_dict",
    "profile_to_dict",
    "save_profile",
    "serial_outcome",
]
