"""Run records: one manifest per run.

A *run* is one ``repro figures`` invocation, one ``repro fuzz`` campaign,
or any direct :meth:`~repro.bench.suites.SuiteRunner.evaluate_many` call
that was handed a :class:`RunTelemetry`. Each run owns a directory under
the runs root (``REPRO_RUNS_DIR``, else ``~/.cache/repro/runs``) holding
one file, ``<run_id>/manifest.json``: the status, task tallies (done,
profile-cache hits and misses, profiled instructions, summed task wall
time), the model-outcome tally (parallel vs serial loop summaries across
every evaluated result), cache statistics, vectorizer decisions and fuzz
tallies. The manifest is published atomically when the run is created,
after every task or fuzz case, and when the run finishes, so a killed run
reads ``running`` with the tasks it finished. ``repro runs`` renders it.

Evaluation results are never persisted. They are cheap to derive from a
profile, and the code that derives them (the evaluator, the cost models,
the predictors) changes in ways no hand-kept version number would track,
so a stored result keyed by program and configuration name could outlive
such a change and print stale figures. A killed run is recovered by
running it again: its finished profiles are already in the content-keyed
profile store (:mod:`repro.runtime.profile_store`), so figures are always
computed from profiles.

Telemetry must never break a sweep: a failed manifest write is counted
(``write_errors``), not raised, mirroring the profile store's contract.
"""

from __future__ import annotations

import json
import os
import pathlib
import shutil
import time
import uuid

from .profile_store import publish

#: Version of the manifest layout; ``repro runs`` lists manifests of any
#: version.
RUN_MANIFEST_SCHEMA = 2

MANIFEST_NAME = "manifest.json"


def runs_root():
    """The runs directory: ``REPRO_RUNS_DIR`` when set, else
    ``~/.cache/repro/runs``."""
    override = os.environ.get("REPRO_RUNS_DIR")
    if override:
        return pathlib.Path(override)
    return pathlib.Path.home() / ".cache" / "repro" / "runs"


def new_run_id():
    """Sortable, collision-resistant run identifier."""
    stamp = time.strftime("%Y%m%d-%H%M%S")
    return f"{stamp}-{uuid.uuid4().hex[:6]}"


class RunTelemetry:
    """One run's manifest, shared by every sweep in the run.

    Use :meth:`create` to start a run; the constructor itself is an
    implementation detail.
    """

    def __init__(self, run_id, root=None):
        self.run_id = run_id
        self.root = pathlib.Path(root) if root is not None else runs_root()
        self.run_dir = self.root / run_id
        self.manifest_path = self.run_dir / MANIFEST_NAME
        self.status = "running"
        self.write_errors = 0
        self._tasks = set()
        self._cache_hits = 0
        self._cache_misses = 0
        self._instructions = 0
        self._task_wall_s = 0.0
        self._outcomes = {"parallel_loops": 0, "serial_loops": 0}
        self._cache_stats = {}
        self._vec_decisions = {}
        self._fuzz = {"cases": 0, "quarantined": 0, "by_oracle": {},
                      "wall_s": 0.0}

    @classmethod
    def create(cls, root=None, run_id=None):
        """Start a new run: publishes its directory and manifest."""
        telemetry = cls(run_id or new_run_id(), root)
        telemetry._write_manifest()
        return telemetry

    # -- events ---------------------------------------------------------------

    def task_done(self, task, results, *, wall_s=0.0, cache_hit=None,
                  instructions=0):
        """Count one completed (benchmark x configurations) task.

        ``results`` is ``{config_name: EvaluationResult}``; only its
        parallel/serial loop tally is kept.
        """
        self._tasks.add(task)
        if cache_hit is True:
            self._cache_hits += 1
        elif cache_hit is False:
            self._cache_misses += 1
        self._instructions += int(instructions or 0)
        self._task_wall_s += float(wall_s or 0.0)
        for result in results.values():
            for summary in result.loops.values():
                key = (
                    "parallel_loops" if summary.is_parallel else "serial_loops"
                )
                self._outcomes[key] += 1
        self._write_manifest()

    def record_cache_stats(self, stats):
        """Snapshot end-of-run cache counters (profile store + code cache):
        ``{cache_name: {"entries", "size_bytes", "hits", "misses", ...}}``.
        The latest snapshot wins; ``repro cache stats`` reads it from the
        manifest of the most recent run."""
        self._cache_stats = dict(stats)
        self._write_manifest()

    def record_vec_decisions(self, summary):
        """Snapshot the vectorizer's aggregate decisions for the run's
        workload (see :func:`repro.interp.veccodegen.summarize_vec_decisions`):
        ``{"loops", "vectorized", "static_trip", "runtime_trip",
        "bailouts": {reason: count}}``. The latest snapshot wins and lands
        in the manifest, so `repro runs show` answers "how much of this
        sweep ran vectorized" without rerunning the planner."""
        self._vec_decisions = dict(summary)
        self._write_manifest()

    def fuzz_case(self, *, verdict, oracles=(), wall_s=0.0):
        """Count one differential-fuzzing oracle run (see :mod:`repro.fuzz`).

        ``verdict`` is ``"ok"`` or ``"quarantined"``; ``oracles`` lists the
        oracle kinds that fired (empty on agreement)."""
        self._fuzz["cases"] += 1
        self._fuzz["wall_s"] = round(
            self._fuzz["wall_s"] + float(wall_s or 0.0), 6)
        if verdict == "quarantined":
            self._fuzz["quarantined"] += 1
        by_oracle = self._fuzz["by_oracle"]
        for oracle in sorted(oracles):
            by_oracle[oracle] = by_oracle.get(oracle, 0) + 1
        self._write_manifest()

    def finish(self, status="complete"):
        self.status = status
        self._write_manifest()

    # -- persistence ----------------------------------------------------------

    def _write_manifest(self):
        try:
            publish(self.manifest_path, json.dumps(self.summary(), indent=1))
        except OSError:
            self.write_errors += 1

    # -- reporting ------------------------------------------------------------

    def summary(self):
        """The manifest dict (also what ``repro runs show`` prints)."""
        return {
            "schema": RUN_MANIFEST_SCHEMA,
            "run_id": self.run_id,
            "status": self.status,
            "updated": time.time(),
            "tasks_done": len(self._tasks),
            "cache_hits": self._cache_hits,
            "cache_misses": self._cache_misses,
            "instructions": self._instructions,
            "task_wall_s": round(self._task_wall_s, 6),
            "outcomes": dict(self._outcomes),
            "cache_stats": dict(self._cache_stats),
            "vec_decisions": dict(self._vec_decisions),
            "fuzz": {
                "cases": self._fuzz["cases"],
                "quarantined": self._fuzz["quarantined"],
                "by_oracle": dict(self._fuzz["by_oracle"]),
                "wall_s": self._fuzz["wall_s"],
            },
            "write_errors": self.write_errors,
        }

    def __repr__(self):
        return f"<RunTelemetry {self.run_id} ({len(self._tasks)} tasks)>"


# -- run registry ----------------------------------------------------------------


def list_runs(root=None):
    """Manifest dicts of every run under ``root``, newest first."""
    root = pathlib.Path(root) if root is not None else runs_root()
    manifests = []
    try:
        run_dirs = sorted(root.iterdir(), reverse=True)
    except OSError:
        return []
    for run_dir in run_dirs:
        manifest = load_manifest(run_dir.name, root)
        if manifest is not None:
            manifests.append(manifest)
    return manifests


def load_manifest(run_id, root=None):
    """One run's manifest dict, or ``None`` when absent/unreadable."""
    root = pathlib.Path(root) if root is not None else runs_root()
    try:
        data = json.loads((root / run_id / MANIFEST_NAME).read_text())
    except (OSError, ValueError):
        return None
    if not isinstance(data, dict):
        return None
    data.setdefault("run_id", run_id)
    return data


def purge_runs(root=None):
    """Delete every run directory — every directory under ``root`` that
    holds a ``manifest.json``, the file :func:`list_runs` reads — and
    nothing else; returns the number removed."""
    root = pathlib.Path(root) if root is not None else runs_root()
    removed = 0
    try:
        run_dirs = list(root.iterdir())
    except OSError:
        return 0
    for run_dir in run_dirs:
        if not (run_dir / MANIFEST_NAME).is_file():
            continue
        try:
            shutil.rmtree(run_dir)
            removed += 1
        except OSError:
            pass
    return removed


# -- formatting ------------------------------------------------------------------


def format_runs_table(manifests):
    """The ``repro runs`` listing."""
    if not manifests:
        return "no recorded runs"
    lines = [f"{'run id':24s}{'status':>12s}{'tasks':>7s}"]
    for manifest in manifests:
        lines.append(
            f"{manifest.get('run_id', '?'):24s}"
            f"{manifest.get('status', '?'):>12s}"
            f"{manifest.get('tasks_done', 0):>7d}"
        )
    return "\n".join(lines)


def format_run_summary(manifest):
    """The ``repro runs show RUN_ID`` / ``repro figures`` summary block.

    It prints only what the run recorded: the sweep tallies when it
    counted a task, the fuzz tallies when it counted an oracle run."""
    lines = [
        f"run {manifest.get('run_id', '?')} [{manifest.get('status', '?')}]",
    ]
    if manifest.get("tasks_done"):
        outcomes = manifest.get("outcomes") or {}
        lines += [
            f"  tasks:        {manifest['tasks_done']} done",
            f"  profile cache: {manifest.get('cache_hits', 0)} hits, "
            f"{manifest.get('cache_misses', 0)} misses",
            f"  instructions: {manifest.get('instructions', 0)} profiled",
            f"  task wall:    {manifest.get('task_wall_s', 0.0):.2f}s summed "
            f"over tasks",
            f"  outcomes:     {outcomes.get('parallel_loops', 0)} parallel / "
            f"{outcomes.get('serial_loops', 0)} serial loop summaries",
        ]
    for name, stats in sorted((manifest.get("cache_stats") or {}).items()):
        lines.append(
            f"  {name}: {stats.get('entries', 0)} entries, "
            f"{stats.get('size_bytes', 0)} bytes, "
            f"{stats.get('hits', 0)} hits, {stats.get('misses', 0)} misses"
        )
    vec = manifest.get("vec_decisions") or {}
    if vec:
        bailouts = vec.get("bailouts") or {}
        lines.append(
            f"  vectorizer:   {vec.get('vectorized', 0)}/"
            f"{vec.get('loops', 0)} innermost loops vectorized "
            f"({vec.get('static_trip', 0)} static / "
            f"{vec.get('runtime_trip', 0)} runtime trip), "
            f"{sum(bailouts.values())} bailouts"
        )
        for reason, count in sorted(
            bailouts.items(), key=lambda item: (-item[1], item[0])
        ):
            lines.append(f"    bailout {reason}: {count}")
    fuzz = manifest.get("fuzz") or {}
    if fuzz.get("cases"):
        lines.append(
            f"  fuzz:         {fuzz.get('cases', 0)} oracle runs, "
            f"{fuzz.get('quarantined', 0)} quarantined "
            f"({fuzz.get('wall_s', 0.0):.2f}s)"
        )
        for oracle, count in sorted((fuzz.get("by_oracle") or {}).items()):
            lines.append(f"    oracle {oracle}: {count} disagreement(s)")
    return "\n".join(lines)
