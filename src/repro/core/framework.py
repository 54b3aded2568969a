"""The Loopapalooza driver: compile -> classify -> instrument -> profile ->
evaluate.

This is the library's main entry point::

    from repro.core import Loopapalooza, LPConfig

    lp = Loopapalooza(minic_source, name="kernel")
    result = lp.evaluate(LPConfig("helix", reduc=1, dep=1, fn=2))
    print(result.speedup, result.coverage)

One profiling run per program; every configuration is evaluated analytically
from the recorded profile (see DESIGN.md).
"""

from __future__ import annotations

from ..errors import FrameworkError
from ..frontend.codegen import compile_source
from ..interp.interpreter import Interpreter
from ..runtime.recorder import ProfilingRuntime
from .config import LPConfig
from .evaluator import ProfileCache, evaluate_config
from .instrument import build_instrumentation
from .static_info import ModuleStaticInfo


class Loopapalooza:
    """Owns one program's compilation artifacts and execution profile.

    ``store`` (a :class:`~repro.runtime.profile_store.ProfileStore`) makes
    :meth:`profile` consult the persistent profile cache first: on a warm
    start the instrumented interpreter run is skipped entirely and the
    recorded profile + program output are restored from disk. The cached
    static classification is cross-checked against the freshly computed one;
    a mismatch (stale analysis code without a version bump) falls back to
    re-profiling.

    Every input of the profile is an argument of this call: the source,
    ``fuel``, ``inline`` and ``transform`` (the structural fission/peel/
    fusion stage, off by default) make up the store key with the versions,
    and no environment variable changes what is compiled or profiled.
    """

    def __init__(self, source, name="program", fuel=200_000_000,
                 verify_each=False, inline=False, store=None, backend="vec",
                 transform=False):
        self.name = name
        self.fuel = fuel
        self.source = source
        self.inline = inline
        self.store = store
        #: Interpreter backend: "vec" (the default), "jit" or "closure".
        self.backend = backend
        #: Structural-transform pipeline flag (fission/peel/fusion); part of
        #: the profile-store key because it changes the loop population.
        self.transform = bool(transform)
        self.module = compile_source(
            source, module_name=name, verify_each=verify_each, inline=inline,
            transform=self.transform,
        )
        self.static_info = ModuleStaticInfo(self.module)
        self.instrumentation = build_instrumentation(self.static_info)
        self._profile = None
        self._cache = None
        self._output = None
        self.profiled_from_cache = False

    # -- profiling ------------------------------------------------------------

    def profile(self):
        """The ProgramProfile: loaded from the profile store on a warm
        start, otherwise measured by one instrumented interpreter run."""
        if self._profile is None:
            if self.store is not None:
                self._load_cached_profile()
        if self._profile is None:
            runtime = ProfilingRuntime(self.name)
            machine = Interpreter(
                self.module, runtime, self.instrumentation, fuel=self.fuel,
                backend=self.backend,
            )
            runtime.attach(machine)
            result = machine.run("main")
            self._profile = runtime.finish(machine.cost, result)
            self._cache = ProfileCache(self._profile)
            self._output = machine.output
            if self.store is not None:
                self.store.store(
                    self.source, self.fuel, self._profile, self.static_info,
                    self._output, inline=self.inline,
                    transform=self.transform,
                )
        return self._profile

    def _load_cached_profile(self):
        from ..core.static_info import loop_static_to_dict

        cached = self.store.load(self.source, self.fuel, inline=self.inline,
                                 transform=self.transform)
        if cached is None:
            return
        mine = {
            loop_id: loop_static_to_dict(s)
            for loop_id, s in self.static_info.loops.items()
        }
        theirs = {
            loop_id: loop_static_to_dict(s)
            for loop_id, s in cached.static_loops.items()
        }
        if mine != theirs:
            # The classifier disagrees with what was profiled: the cached
            # instrumentation plan is stale, so the profile is unusable.
            self.store.stats.hits -= 1
            self.store.stats.misses += 1
            return
        cached.profile.name = self.name
        self._profile = cached.profile
        self._cache = ProfileCache(self._profile)
        self._output = cached.output
        self.profiled_from_cache = True

    def run_uninstrumented(self):
        """Plain execution (no callbacks); returns ``(result, cost, output)``.

        Used by tests to confirm instrumentation does not perturb either the
        program's observable behaviour or its dynamic IR instruction count.
        """
        machine = Interpreter(self.module, None, None, fuel=self.fuel,
                              backend=self.backend)
        result = machine.run("main")
        return result, machine.cost, machine.output

    @property
    def total_cost(self):
        return self.profile().total_cost

    @property
    def output(self):
        self.profile()
        return self._output

    # -- evaluation ------------------------------------------------------------

    def evaluate(self, config, innermost_only=False):
        """Evaluate one configuration (string or LPConfig).

        ``innermost_only`` reproduces the related-work baseline (paper §V,
        Kejariwal et al.): no outer-loop or nested parallelization.
        """
        if isinstance(config, str):
            config = LPConfig.parse(config)
        profile = self.profile()
        return evaluate_config(
            profile, self.static_info, config, self._cache,
            innermost_only=innermost_only,
        )

    def evaluate_many(self, configs):
        """Evaluate several configurations sharing all caches."""
        return {
            (c.name if isinstance(c, LPConfig) else c): self.evaluate(c)
            for c in configs
        }

    # -- introspection --------------------------------------------------------

    def loop_ids(self):
        return sorted(self.static_info.loops)

    def call_tls_report(self):
        """Function-call/continuation TLS estimate (paper §I extension)."""
        from .call_tls import estimate_call_tls

        return estimate_call_tls(self.profile())

    def census(self):
        """Static dependence census (the Table-I view for this program)."""
        return self.static_info.census()

    def describe_loop(self, loop_id):
        """Static classification record for one loop."""
        static = self.static_info.loops.get(loop_id)
        if static is None:
            raise FrameworkError(f"unknown loop {loop_id!r}")
        return static

    def __repr__(self):
        return f"<Loopapalooza {self.name}: {len(self.static_info.loops)} loops>"
