"""Layer spans for the traced run, recorded from outside the program.

The traced repetition wraps the entry points of each layer before its
timed section and restores them afterwards. A wrapper pushes a span on
entry; on exit it charges the span's *self* time (its duration minus the
time of the spans nested in it) to its layer. Each name is patched where
callers look it up: the attribute of the defining module or class, and
every module global bound to the same function by ``from ... import``.
Spans stay in memory and are written out once, after the section.

The profiling recorder is called about 3.5 million times per cold paper
pass, so its callbacks get no span each. They are aggregated into a call
count plus summed time, and only the outermost callback of a nest (such as
``deliver_block_events`` calling ``mem_batch``) is timed and counted.

Wrappers pass arguments and results through unchanged, so a traced
repetition produces the same profiles and figures as an untraced one.
Bookkeeping that inspects a result (counting IR instructions, hooks,
bytes) is timed too and kept out of the enclosing span's self time.
"""

from __future__ import annotations

import functools
import importlib
import inspect
import json
import sys
import time

_clock = time.perf_counter


class Tracer:
    """Span stack, per-layer self times and exact counts of one section."""

    def __init__(self):
        # One frame per open span: [start, child_seconds, span_id]. Frame 0
        # is the section itself; its self time is work outside every layer.
        self.stack = [[0.0, 0.0, 0]]
        self.spans = []  # (span_id, parent_id, layer, start, end)
        self.self_s = {}
        self.counts = {}
        self.recorder_s = 0.0
        self.recorder_calls = 0
        self.mem_events = 0
        self.in_recorder = False
        #: (module, instrumentation, backend, fuel) of every profiling run.
        self.profiled_runs = []
        #: Entry points the program no longer has; their layer reads 0.
        self.missing = []
        self._next_id = 1
        self._patches = []

    def count(self, name, amount=1):
        self.counts[name] = self.counts.get(name, 0) + amount

    # -- the section ------------------------------------------------------------

    def start(self):
        self.stack[0][0] = _clock()

    def stop(self):
        root = self.stack[0]
        self.self_s["other"] = _clock() - root[0] - root[1]

    # -- wrappers ---------------------------------------------------------------

    def _span(self, layer, fn, after):
        stack = self.stack
        spans = self.spans
        self_s = self.self_s
        counts_io = layer in _IO_LAYERS

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            if counts_io:
                io_before = _io_counters()
            span_id = self._next_id
            self._next_id = span_id + 1
            frame = [_clock(), 0.0, span_id]
            stack.append(frame)
            try:
                result = fn(*args, **kwargs)
            finally:
                end = _clock()
                stack.pop()
                parent = stack[-1]
                duration = end - frame[0]
                name = layer(args) if callable(layer) else layer
                self_s[name] = self_s.get(name, 0.0) + duration - frame[1]
                parent[1] += duration
                spans.append((span_id, parent[2], name, frame[0], end))
            started = _clock()
            if counts_io:
                read, written, _ = _io_counters()
                # The first snapshot's own read of /proc is in the delta.
                self.count("store.bytes_read", read - io_before[0] - io_before[2])
                self.count("store.bytes_written", written - io_before[1])
            if after is not None:
                after(self, args, kwargs, result)
            parent[1] += _clock() - started
            return result

        return wrapper

    def _recorder(self, fn, events):
        stack = self.stack

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            if self.in_recorder:
                return fn(*args, **kwargs)
            self.in_recorder = True
            start = _clock()
            try:
                return fn(*args, **kwargs)
            finally:
                elapsed = _clock() - start
                self.in_recorder = False
                self.recorder_s += elapsed
                self.recorder_calls += 1
                stack[-1][1] += elapsed
                if events is not None:
                    self.mem_events += events(args)

        return wrapper

    # -- installation -------------------------------------------------------------

    def install(self, recorder=True):
        """Wrap every entry point the program has; ``recorder=False`` leaves
        the recorder callbacks unwrapped (their time then stays in the
        interpreter). Entry points that are gone are listed in ``missing``
        rather than failing the run, so a change that removes one still
        gets the other layers measured."""
        for module_name, name, layer, after in _ENTRY_POINTS:
            self._wrap(module_name, name,
                       lambda fn: self._span(layer, fn, after))
        if recorder:
            for attr, events in _RECORDER_CALLBACKS.items():
                self._wrap("repro.runtime.recorder",
                           f"ProfilingRuntime.{attr}",
                           lambda fn: self._recorder(fn, events))

    def _wrap(self, module_name, name, make_wrapper):
        found = _resolve(module_name, name)
        if found is None:
            self.missing.append(f"{module_name}.{name}")
            return
        owner, attr = found
        self._patch(owner, attr, make_wrapper(owner.__dict__[attr]))

    def _patch(self, owner, attr, wrapper):
        original = owner.__dict__[attr]
        setattr(owner, attr, wrapper)
        self._patches.append((owner, attr, original))
        if inspect.isclass(owner):
            return
        # ``from module import name`` copied the function into other
        # modules: rebind those names too, or their calls go unseen.
        for module in list(sys.modules.values()):
            namespace = getattr(module, "__dict__", None)
            if namespace is None or module is owner:
                continue
            for key, value in list(namespace.items()):
                if value is original:
                    setattr(module, key, wrapper)
                    self._patches.append((module, key, original))

    def uninstall(self):
        while self._patches:
            owner, attr, original = self._patches.pop()
            setattr(owner, attr, original)

    # -- results ------------------------------------------------------------------

    def layer_metrics(self):
        """The per-layer metrics this section measured (the post-section
        ``interp.plain_s`` / ``recorder.overhead_x`` and the run-level
        ``trace.overhead_frac`` are added by the caller)."""
        s = self.self_s.get
        c = self.counts.get
        return {
            "frontend.self_s": s("frontend", 0.0),
            "frontend.modules": c("frontend.modules", 0),
            "passes.self_s": s("passes", 0.0),
            "passes.transform_s": s("passes.transform", 0.0),
            "passes.ir_insts": c("passes.ir_insts", 0),
            "analysis.classify_s": s("analysis.classify", 0.0),
            "analysis.depend_s": s("analysis.depend", 0.0),
            "analysis.loops": c("analysis.loops", 0),
            "analysis.doall_loops": c("analysis.doall_loops", 0),
            "instrument.self_s": s("instrument", 0.0),
            "instrument.hooks": c("instrument.hooks", 0),
            "interp.codegen_s": s("interp.codegen", 0.0),
            "interp.sources_generated": c("interp.sources_generated", 0),
            "interp.exec_s": s("interp.exec", 0.0) + s("interp.exec_plain", 0.0),
            "interp.ir_instructions": c("interp.ir_instructions", 0),
            "interp.vec_loops": c("interp.vec_loops", 0),
            "recorder.self_s": self.recorder_s + s("recorder", 0.0),
            "recorder.calls": self.recorder_calls,
            "recorder.mem_events": self.mem_events,
            "recorder.conflicts": c("recorder.conflicts", 0),
            "store.write_s": s("store.write", 0.0),
            "store.read_s": s("store.read", 0.0),
            "store.bytes_written": c("store.bytes_written", 0),
            "store.bytes_read": c("store.bytes_read", 0),
            "store.hits": c("store.hits", 0),
            "store.misses": c("store.misses", 0),
            "codecache.hits": c("codecache.hits", 0),
            "codecache.misses": c("codecache.misses", 0),
            "evaluator.self_s": s("evaluator", 0.0),
            "evaluator.calls": c("evaluator.calls", 0),
            "predictors.self_s": s("predictors", 0.0),
            "reporting.self_s": s("reporting", 0.0),
            "fuzz.self_s": s("fuzz", 0.0),
            "fuzz.programs": c("fuzz.programs", 0),
            "fuzz.disagreements": c("fuzz.disagreements", 0),
        }

    def write_spans(self, path, trace_id):
        """One JSON object per line: a header with the aggregated recorder
        record and the self times, then every span of the section."""
        with open(path, "w") as handle:
            handle.write(json.dumps({
                "trace": trace_id,
                "recorder": {"calls": self.recorder_calls,
                             "seconds": self.recorder_s,
                             "mem_events": self.mem_events},
                "self_s": self.self_s,
                "counts": self.counts,
                "missing": self.missing,
            }) + "\n")
            for span_id, parent, layer, start, end in self.spans:
                handle.write(json.dumps({
                    "trace": trace_id, "id": span_id, "parent": parent,
                    "layer": layer, "start": start, "end": end,
                }) + "\n")


def measure_overhead(profiled_runs):
    """Re-run each profiled module once uninstrumented and once
    instrumented, with the recorder unwrapped, and return
    ``(plain_s, instrumented_s)``: execution self time of each kind, code
    generation and code-cache time excluded."""
    from repro.interp.interpreter import Interpreter
    from repro.runtime.recorder import ProfilingRuntime

    tracer = Tracer()
    tracer.install(recorder=False)
    try:
        for module, instrumentation, backend, fuel in profiled_runs:
            Interpreter(module, None, None, fuel=fuel,
                        backend=backend).run("main")
            runtime = ProfilingRuntime(module.name)
            machine = Interpreter(module, runtime, instrumentation, fuel=fuel,
                                  backend=backend)
            runtime.attach(machine)
            machine.run("main")
    finally:
        tracer.uninstall()
    return (tracer.self_s.get("interp.exec_plain", 0.0),
            tracer.self_s.get("interp.exec", 0.0))


# -- what gets wrapped ----------------------------------------------------------


def _resolve(module_name, name):
    """``(owner, attribute)`` of an entry point, or None if it is gone."""
    try:
        owner = importlib.import_module(module_name)
    except ImportError:
        return None
    *classes, attr = name.split(".")
    for class_name in classes:
        owner = getattr(owner, class_name, None)
    if owner is None or attr not in vars(owner):
        return None
    return owner, attr


def _io_counters():
    """``(rchar, wchar, bytes this call read)`` of the process: every byte
    passed through read and write calls, whatever file format or API."""
    with open("/proc/self/io", "rb") as handle:
        data = handle.read()
    fields = dict(line.split(b": ") for line in data.splitlines())
    return int(fields[b"rchar"]), int(fields[b"wchar"]), len(data)


def _after_compile(tracer, args, kwargs, module):
    tracer.count("frontend.modules")


def _after_pipeline(tracer, args, kwargs, result):
    module = args[0] if args else kwargs["module"]
    tracer.count("passes.ir_insts", sum(
        len(block.instructions)
        for function in module.defined_functions()
        for block in function.blocks
    ))


def _after_classify(tracer, args, kwargs, result):
    tracer.count("analysis.loops", len(args[0].loops))


def _after_depend(tracer, args, kwargs, verdicts):
    from repro.analysis.depend import VERDICT_DOALL

    tracer.count("analysis.doall_loops", sum(
        1 for dependence in verdicts.values()
        if dependence.verdict == VERDICT_DOALL
    ))


def _after_instrument(tracer, args, kwargs, plans):
    tracer.count("instrument.hooks", sum(
        sum(map(len, plan.edge_actions.values()))
        + sum(map(len, plan.def_hooks.values()))
        + sum(map(len, plan.use_hooks.values()))
        + len(plan.call_sites)
        + sum(map(len, plan.call_use_hooks.values()))
        for plan in plans.values()
    ))


def _after_generate(tracer, args, kwargs, source):
    tracer.count("interp.sources_generated")


def _exec_layer(args):
    return "interp.exec" if args[0].runtime is not None else "interp.exec_plain"


def _after_run(tracer, args, kwargs, result):
    machine = args[0]
    tracer.count("interp.ir_instructions", machine.cost)
    tracer.count("interp.vec_loops",
                 sum(getattr(machine, "vec_runs", {}).values()))
    if machine.runtime is not None:
        tracer.profiled_runs.append((machine.module, machine.instrumentation,
                                     machine.backend, machine.fuel))


def _after_finish(tracer, args, kwargs, profile):
    tracer.count("recorder.conflicts", sum(
        invocation.conflict_count for invocation in profile.all_invocations()
    ))


def _after_profile_load(tracer, args, kwargs, cached):
    tracer.count("store.misses" if cached is None else "store.hits")


def _after_code_load(tracer, args, kwargs, source):
    tracer.count("codecache.misses" if source is None else "codecache.hits")


def _after_evaluate(tracer, args, kwargs, result):
    tracer.count("evaluator.calls")


def _after_oracles(tracer, args, kwargs, report):
    tracer.count("fuzz.programs")
    tracer.count("fuzz.disagreements", len(report.failures))


_REPORTING = "reporting"
#: Layers whose spans also count the bytes the process reads and writes.
_IO_LAYERS = ("store.read", "store.write")

#: (module, function or Class.method, layer, bookkeeping after the call).
_ENTRY_POINTS = (
    ("repro.frontend.codegen", "compile_source", "frontend", _after_compile),
    ("repro.passes.pass_manager", "run_standard_pipeline", "passes",
     _after_pipeline),
    ("repro.passes.pass_manager", "run_transform_pipeline",
     "passes.transform", None),
    ("repro.core.static_info", "ModuleStaticInfo.__init__",
     "analysis.classify", _after_classify),
    ("repro.analysis.depend", "analyze_module", "analysis.depend",
     _after_depend),
    ("repro.core.instrument", "build_instrumentation", "instrument",
     _after_instrument),
    ("repro.interp.codegen", "jit_entry", "interp.codegen", None),
    ("repro.interp.codegen", "generate_source", "interp.codegen",
     _after_generate),
    ("repro.interp.interpreter", "Interpreter._compile_function",
     "interp.codegen", None),
    ("repro.interp.interpreter", "Interpreter.run", _exec_layer, _after_run),
    ("repro.runtime.recorder", "ProfilingRuntime.finish", "recorder",
     _after_finish),
    ("repro.runtime.profile_store", "ProfileStore.load", "store.read",
     _after_profile_load),
    ("repro.runtime.profile_store", "ProfileStore.store", "store.write",
     None),
    ("repro.runtime.profile_store", "CodeCache.load", "store.read",
     _after_code_load),
    ("repro.runtime.profile_store", "CodeCache.store", "store.write", None),
    ("repro.core.evaluator", "evaluate_config", "evaluator", _after_evaluate),
    ("repro.predictors.hybrid", "perfect_hybrid_flags", "predictors", None),
    ("repro.bench.suites", "SuiteRunner.instance", _REPORTING, None),
    ("repro.bench.suites", "SuiteRunner.evaluate_many", _REPORTING, None),
    ("repro.reporting.experiments", "figure2_nonnumeric", _REPORTING, None),
    ("repro.reporting.experiments", "figure3_numeric", _REPORTING, None),
    ("repro.reporting.experiments", "figure4_per_benchmark", _REPORTING, None),
    ("repro.reporting.experiments", "figure5_coverage", _REPORTING, None),
    ("repro.reporting.experiments", "table1_census", _REPORTING, None),
    ("repro.reporting.experiments", "format_speedup_figure", _REPORTING, None),
    ("repro.reporting.experiments", "format_figure4", _REPORTING, None),
    ("repro.reporting.experiments", "format_coverage", _REPORTING, None),
    ("repro.reporting.experiments", "format_census", _REPORTING, None),
    ("repro.reporting.crosscheck", "crosscheck_suites", _REPORTING, None),
    ("repro.reporting.crosscheck", "format_crosscheck", _REPORTING, None),
    ("repro.reporting.transform_report", "transform_suites", _REPORTING, None),
    ("repro.reporting.transform_report", "format_transform_figure",
     _REPORTING, None),
    ("repro.reporting.advisor", "advise_suites", _REPORTING, None),
    ("repro.reporting.advisor", "format_advice", _REPORTING, None),
    ("repro.fuzz.harness", "run_oracles", "fuzz", _after_oracles),
)


def _one(args):
    return 1


def _batch_events(args):
    # The closure interpreter hands over its per-block event list.
    events = args[1]
    return len(events) if isinstance(events, list) else 0


def _block_events(args):
    return len(args[1])


def _vec_events(args):
    # vec_loop(loop_id, enter_ts, trip, step_cost, exit_ts, accesses): one
    # event per static access per iteration, as the scalar tiers deliver.
    accesses = args[6] if len(args) > 6 else ()
    return args[3] * len(accesses)


#: Recorder callbacks -> how many memory events a call delivers.
_RECORDER_CALLBACKS = {
    "func_enter": None,
    "func_exit": None,
    "call_start": None,
    "call_end": None,
    "call_result_use": None,
    "loop_enter": None,
    "loop_iter": None,
    "loop_exit": None,
    "lcd_def": None,
    "lcd_use": None,
    "current_marks": None,
    "mem_read": _one,
    "mem_write": _one,
    "mem_batch": _batch_events,
    "deliver_block_events": _block_events,
    "vec_loop": _vec_events,
}
