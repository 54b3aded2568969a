"""Static classification (compile-time component) and instrumentation tests."""

from repro.core import (
    CALL_INSTRUMENTED,
    CALL_PURE,
    CALL_THREAD_SAFE,
    CALL_UNSAFE,
    PHI_COMPUTABLE,
    PHI_NONCOMPUTABLE,
    PHI_REDUCTION,
    Loopapalooza,
    ModuleStaticInfo,
    build_instrumentation,
)
from repro.core.static_info import (
    LoopStatic,
    loop_static_from_dict,
    loop_static_to_dict,
)
from repro.frontend import compile_source
from repro.ir import I32, IRBuilder, Module


def static_for(source):
    module = compile_source(source)
    return ModuleStaticInfo(module)


def the_loop(info, function="main", index=0):
    loops = sorted(
        (l for l in info.loops.values() if l.function_name == function),
        key=lambda l: l.loop_id,
    )
    return loops[index]


class TestPhiClassification:
    def test_iv_reduction_noncomputable_split(self):
        info = static_for(
            """
            float OUT = 0.0;
            int A[64];
            int main() {
              int i;
              float acc = 0.0;
              int state = 1;
              for (i = 0; i < 64; i = i + 1) {
                acc = acc + (float)A[i];
                state = (state * 5 + A[i]) & 1023;
                A[i] = state;
              }
              OUT = acc;
              return state;
            }
            """
        )
        loop = the_loop(info)
        classes = {}
        for key, cls in loop.phi_classes.items():
            classes[key.rsplit(":", 1)[1]] = cls
        assert classes["i"] == PHI_COMPUTABLE
        assert classes["acc"] == PHI_REDUCTION
        assert classes["state"] == PHI_NONCOMPUTABLE
        assert loop.reduction_kinds
        assert loop.noncomputable_phis
        assert loop.reduction_phis

    def test_trip_count_hint(self):
        info = static_for(
            """
            int main() {
              int i; int s = 0;
              for (i = 0; i < 17; i = i + 1) { s = s + i; }
              return s;
            }
            """
        )
        assert the_loop(info).trip_count_hint == 17


class TestCallClasses:
    SOURCE = """
    int G = 0;
    int pure_fn(int x) { return x * 2; }
    int dirty_fn(int x) { G = x; return x; }
    int noisy_fn(int x) { print_int(x); return x; }
    int A[40];
    int main() {
      int i;
      for (i = 0; i < 10; i = i + 1) { A[i] = pure_fn(i); }
      for (i = 0; i < 10; i = i + 1) { A[i] = dirty_fn(i); }
      for (i = 0; i < 10; i = i + 1) { A[i] = noisy_fn(i); }
      for (i = 0; i < 10; i = i + 1) { memset_i32(&A[i], i, 1); }
      for (i = 0; i < 10; i = i + 1) { A[i + 10] = A[i]; }
      return G;
    }
    """

    def test_classes_per_loop(self):
        info = static_for(self.SOURCE)
        loops = sorted(
            (l for l in info.loops.values() if l.function_name == "main"),
            key=lambda l: int("".join(ch for ch in l.loop_id if ch.isdigit())),
        )
        assert loops[0].call_classes == {CALL_PURE}
        assert loops[1].call_classes == {CALL_INSTRUMENTED}
        assert loops[2].call_classes == {CALL_UNSAFE}
        assert loops[3].call_classes == {CALL_THREAD_SAFE}
        assert loops[4].call_classes == set()

    def test_fn_legality_matrix(self):
        info = static_for(self.SOURCE)
        loops = sorted(
            (l for l in info.loops.values() if l.function_name == "main"),
            key=lambda l: int("".join(ch for ch in l.loop_id if ch.isdigit())),
        )
        pure, inst, unsafe, safe, none = loops
        # fn0: any call serializes
        assert all(l.serial_under_fn(0) for l in (pure, inst, unsafe, safe))
        assert not none.serial_under_fn(0)
        # fn1: only pure calls pass
        assert not pure.serial_under_fn(1)
        assert inst.serial_under_fn(1)
        assert safe.serial_under_fn(1)
        # fn2: everything but unsafe passes
        assert not inst.serial_under_fn(2)
        assert not safe.serial_under_fn(2)
        assert unsafe.serial_under_fn(2)
        # fn3: everything passes
        assert not unsafe.serial_under_fn(3)

    def test_transitive_unsafe_taint(self):
        info = static_for(
            """
            int wrapper(int x) { return x + rand(); }
            int A[8];
            int main() {
              int i;
              for (i = 0; i < 8; i = i + 1) { A[i] = wrapper(i); }
              return A[0];
            }
            """
        )
        loop = the_loop(info)
        assert CALL_UNSAFE in loop.call_classes
        assert loop.serial_under_fn(2)
        assert not loop.serial_under_fn(3)

    def test_census_totals(self):
        info = static_for(self.SOURCE)
        census = info.census()
        assert census["loops"] == 5
        assert census["loops_with_calls"] == 4
        assert census["loops_with_unsafe_calls"] == 1
        assert census["computable_phis"] >= 5  # one IV per loop


class TestUntrackableLoops:
    """Hand-built loop shapes the frontend never emits: the static info
    keeps them out of the census and says why."""

    def test_multi_latch_loop_is_untrackable(self):
        # Two blocks branch back to the header.
        module = Module("latches")
        f = module.add_function("f", I32, [])
        entry = f.append_block("entry")
        header = f.append_block("header")
        body1 = f.append_block("body1")
        body2 = f.append_block("body2")
        exit_block = f.append_block("exit")
        b = IRBuilder(entry)
        b.br(header)
        b.position_at_end(header)
        iv = b.phi(I32, "i")
        cond = b.icmp("slt", iv, b.const_int(10))
        b.condbr(cond, body1, exit_block)
        b.position_at_end(body1)
        nxt = b.add(iv, b.const_int(1))
        parity = b.icmp("eq", b.srem(nxt, b.const_int(2)), b.const_int(0))
        b.condbr(parity, header, body2)
        b.position_at_end(body2)
        b.br(header)
        iv.add_incoming(b.const_int(0), entry)
        iv.add_incoming(nxt, body1)
        iv.add_incoming(nxt, body2)
        IRBuilder(exit_block).ret(iv)

        (static,) = ModuleStaticInfo(module).loops.values()
        assert not static.trackable
        assert static.untrackable_reason == "multi-latch"

    def test_loop_without_preheader_is_untrackable(self):
        # A self-loop entered straight from the entry block, which also
        # branches to the exit, so no block is a dedicated preheader.
        module = Module("shape")
        f = module.add_function("f", I32, [])
        entry = f.append_block("entry")
        header = f.append_block("header")
        b = IRBuilder(entry)
        cond = b.icmp("eq", b.const_int(0), b.const_int(0))
        exit_block = f.append_block("exit")
        b.condbr(cond, header, exit_block)
        IRBuilder(header).br(header)
        IRBuilder(exit_block).ret(b.const_int(0))

        (static,) = ModuleStaticInfo(module).loops.values()
        assert not static.trackable
        assert static.untrackable_reason == "no-preheader"

    def test_untrackable_reason_round_trips(self):
        static = LoopStatic("f.header", "f", 1)
        static.trackable = False
        static.untrackable_reason = "multi-latch"
        restored = loop_static_from_dict(loop_static_to_dict(static))
        assert restored.untrackable_reason == "multi-latch"
        assert not restored.trackable
        # Entries written before the field existed stay loadable.
        legacy = loop_static_to_dict(static)
        del legacy["untrackable_reason"]
        assert loop_static_from_dict(legacy).untrackable_reason is None


class TestInstrumentationPlan:
    def test_plans_exist_for_functions_with_loops(self):
        module = compile_source(
            """
            int A[16];
            int helper(int x) { return x + 1; }
            int main() {
              int i;
              for (i = 0; i < 16; i = i + 1) { A[i] = helper(i); }
              return 0;
            }
            """
        )
        info = ModuleStaticInfo(module)
        plans = build_instrumentation(info)
        assert "main" in plans
        assert "helper" not in plans  # no loops, nothing to instrument

    def test_edge_actions_cover_enter_iter_exit(self):
        module = compile_source(
            """
            int main() {
              int i; int s = 0;
              for (i = 0; i < 4; i = i + 1) { s = s + i; }
              return s;
            }
            """
        )
        info = ModuleStaticInfo(module)
        plan = build_instrumentation(info)["main"]
        kinds = sorted(
            kind for actions in plan.edge_actions.values()
            for kind, _ in actions
        )
        assert kinds == ["enter", "exit", "iter"]

    def test_break_loop_has_multiple_exit_actions(self):
        module = compile_source(
            """
            int A[50];
            int main() {
              int i;
              for (i = 0; i < 50; i = i + 1) {
                if (A[i] == 3) { break; }
              }
              return i;
            }
            """
        )
        info = ModuleStaticInfo(module)
        plan = build_instrumentation(info)["main"]
        exits = [
            1 for actions in plan.edge_actions.values()
            for kind, _ in actions if kind == "exit"
        ]
        assert len(exits) >= 2

    def test_nested_exit_ordering_innermost_first(self):
        lp = Loopapalooza(
            """
            int A[100];
            int main() {
              int i; int j;
              for (i = 0; i < 10; i = i + 1) {
                for (j = 0; j < 10; j = j + 1) {
                  if (A[i*10+j] == 999) { return 1; }
                  A[i*10+j] = i;
                }
              }
              return 0;
            }
            """,
            "nested",
        )
        # the profile must be well nested (no FrameworkError at runtime)
        profile = lp.profile()
        outer = profile.top_level[0]
        assert outer.children

    def test_only_noncomputable_phis_tracked(self):
        module = compile_source(
            """
            float OUT = 0.0;
            int main() {
              int i;
              float acc = 0.0;
              for (i = 0; i < 8; i = i + 1) { acc = acc + 1.5; }
              OUT = acc;
              return 0;
            }
            """
        )
        info = ModuleStaticInfo(module)
        plan = build_instrumentation(info)["main"]
        tracked = [
            key for specs in plan.latch_values.values() for key, _ in specs
        ]
        assert all(":acc" in key for key in tracked)
