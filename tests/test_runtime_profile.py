"""Profiling-runtime tests: invocation tree, conflicts, privatization, LCDs."""

from repro.core import Loopapalooza

from helpers import on_all_backends


def profile_of(source, name="t"):
    lp = Loopapalooza(source, name)
    return lp, lp.profile()


def conflicts_on_all_backends(source):
    """``(conflict_count, conflict_pairs, max_mem_skew)`` of the one
    top-level invocation of ``source``, equal on every backend."""
    def run(backend):
        [inv] = Loopapalooza(source, "t", backend=backend).profile().top_level
        return inv.conflict_count, inv.conflict_pairs, inv.max_mem_skew

    return on_all_backends(run)


class TestInvocationTree:
    def test_single_loop_structure(self, doall_kernel):
        profile = doall_kernel.profile()
        top = profile.top_level
        assert len(top) == 1
        inv = top[0]
        # N body executions record N+1 iteration starts: the final header
        # check (the failing exit test) is its own cheap pseudo-iteration.
        assert inv.num_iterations == 121
        assert inv.exited
        assert inv.parent is None
        assert inv.serial_cost > 0
        assert len(inv.iteration_costs()) == 121
        assert sum(inv.iteration_costs()) == inv.serial_cost

    def test_nested_invocations(self):
        lp, profile = profile_of(
            """
            int A[64];
            int main() {
              int i; int j;
              for (i = 0; i < 8; i = i + 1) {
                for (j = 0; j < 8; j = j + 1) { A[i*8+j] = i + j; }
              }
              return 0;
            }
            """
        )
        outer = profile.top_level[0]
        assert outer.num_iterations == 9  # 8 trips + exit check
        assert len(outer.children) == 8
        parent_iters = [child.parent_iter for child in outer.children]
        assert parent_iters == list(range(8))
        for child in outer.children:
            assert child.num_iterations == 9
            assert child.parent is outer

    def test_loops_in_callees_nest_dynamically(self):
        lp, profile = profile_of(
            """
            int A[40];
            void work(int base) {
              int j;
              for (j = 0; j < 10; j = j + 1) { A[base + j] = j; }
            }
            int main() {
              int i;
              for (i = 0; i < 4; i = i + 1) { work(i * 10); }
              return 0;
            }
            """
        )
        outer = profile.top_level[0]
        assert len(outer.children) == 4
        assert all(child.loop_id.startswith("work.") for child in outer.children)

    def test_early_return_closes_invocations(self):
        lp, profile = profile_of(
            """
            int find(int needle) {
              int i;
              for (i = 0; i < 100; i = i + 1) {
                if (i == needle) { return i; }
              }
              return -1;
            }
            int main() { return find(5); }
            """
        )
        inv = profile.top_level[0]
        assert inv.exited
        assert inv.num_iterations == 6
        assert inv.end_ts >= inv.iter_starts[-1]

    def test_break_exit_recorded(self):
        lp, profile = profile_of(
            """
            int A[50];
            int main() {
              int i;
              for (i = 0; i < 50; i = i + 1) {
                if (i == 10) { break; }
                A[i] = i;
              }
              return A[3];
            }
            """
        )
        inv = profile.top_level[0]
        assert inv.exited
        assert inv.num_iterations == 11

    def test_total_cost_covers_loops(self, reduction_kernel):
        profile = reduction_kernel.profile()
        loop_cost = sum(inv.serial_cost for inv in profile.top_level)
        assert 0 < loop_cost <= profile.total_cost


class TestConflicts:
    def test_doall_loop_has_no_conflicts(self, doall_kernel):
        inv = doall_kernel.profile().top_level[0]
        assert inv.conflict_count == 0
        assert inv.conflict_pairs == {}

    def test_chain_conflicts_every_iteration(self, chain_kernel):
        inv = chain_kernel.profile().top_level[0]
        assert inv.num_iterations == 120  # 119 trips + exit check
        # every iteration i>0 consumes iteration i-1's store
        assert set(inv.conflict_pairs) == set(range(1, 119))
        assert all(inv.conflict_pairs[c] == c - 1 for c in inv.conflict_pairs)
        assert inv.max_mem_skew > 0

    def test_long_distance_conflict_pairs(self):
        lp, profile = profile_of(
            """
            int A[100];
            int main() {
              int i;
              for (i = 0; i < 100; i = i + 1) {
                if (i >= 50) { A[i] = A[i - 50] + 1; }
                if (i < 50) { A[i] = i; }
              }
              return A[99];
            }
            """
        )
        inv = profile.top_level[0]
        assert set(inv.conflict_pairs) == set(range(50, 100))
        assert all(inv.conflict_pairs[c] == c - 50 for c in inv.conflict_pairs)

    def test_intra_iteration_rmw_is_not_a_conflict(self):
        lp, profile = profile_of(
            """
            int A[32];
            int main() {
              int i;
              for (i = 0; i < 32; i = i + 1) {
                A[i] = 1;
                A[i] = A[i] + 1;   // read of same-iteration write
              }
              return A[5];
            }
            """
        )
        assert profile.top_level[0].conflict_count == 0

    def test_reads_of_preloop_data_are_not_conflicts(self):
        lp, profile = profile_of(
            """
            int A[32]; int B[32];
            int main() {
              int i;
              for (i = 0; i < 32; i = i + 1) { A[i] = i; }
              for (i = 1; i < 32; i = i + 1) { B[i] = A[i - 1]; }
              return B[5];
            }
            """
        )
        second = profile.top_level[1]
        assert second.conflict_count == 0

    def test_skew_reflects_producer_consumer_positions(self):
        # Early producer, late consumer -> skew ~0; the reverse -> large.
        lp_early, profile_early = profile_of(
            """
            int A[64];
            int main() {
              int i;
              A[0] = 1;
              for (i = 1; i < 64; i = i + 1) {
                A[i] = A[i-1] + 1;          // producer early in iteration
                int k; int s = 0;
                for (k = 0; k < 8; k = k + 1) { s = s + k * i; }
                if (s < 0) { A[i] = 0; }
              }
              return A[63];
            }
            """,
            "early",
        )
        outer_early = profile_early.top_level[0]
        iter_len = outer_early.serial_cost / outer_early.num_iterations
        assert outer_early.max_mem_skew < iter_len * 0.5


class TestCactusStackPrivatization:
    def test_callee_frame_is_iteration_private(self):
        """Calls in a loop write their own frames; the paper's cactus-stack
        rule says those writes are not loop-carried dependencies."""
        lp, profile = profile_of(
            """
            int helper(int x) {
              int tmp[4];
              tmp[0] = x;
              tmp[1] = tmp[0] * 2;
              return tmp[1];
            }
            int OUT[32];
            int main() {
              int i;
              for (i = 0; i < 32; i = i + 1) { OUT[i] = helper(i); }
              return OUT[3];
            }
            """
        )
        inv = profile.top_level[0]
        assert inv.conflict_count == 0

    def test_storage_born_after_a_write_never_conflicts_with_it(self):
        """Each call's ``tmp`` takes the slots the previous iteration's
        call wrote, and reads them before writing: the write it sees was
        made before the storage was born, so it is no loop-carried
        dependence (the test above writes first, so it cannot tell)."""
        count, pairs, _ = conflicts_on_all_backends(
            """
            int helper(int x) {
              int tmp[4];
              int r = tmp[0];
              tmp[0] = x;
              return r + tmp[0];
            }
            int OUT[32];
            int main() {
              int i;
              for (i = 0; i < 32; i = i + 1) { OUT[i] = helper(i); }
              return OUT[3];
            }
            """
        )
        assert (count, pairs) == (0, {})

    def test_storage_escaping_its_iteration_is_not_private(self):
        """A loop-body array lives until its function returns, so a later
        iteration can read it through a pointer: that read sees the
        earlier iteration's write, a loop-carried dependence like any
        other, although the array was born inside the writing
        iteration."""
        count, pairs, _ = conflicts_on_all_backends(
            """
            int f(int *p, int n) {
              int i;
              int s = 0;
              for (i = 0; i < n; i = i + 1) {
                int t[2];
                if (i > 0) { s = s + p[0]; }
                t[0] = i;
                p = &t[0];
              }
              return s;
            }
            int A[2];
            int main() { return f(A, 4); }
            """
        )
        assert (count, pairs) == (3, {1: 0, 2: 1, 3: 2})

    def test_loop_body_alloca_is_private(self):
        lp, profile = profile_of(
            """
            int OUT[16];
            int main() {
              int i;
              for (i = 0; i < 16; i = i + 1) {
                int scratch[4];
                scratch[0] = i;
                scratch[1] = scratch[0] + 1;
                OUT[i] = scratch[1];
              }
              return OUT[3];
            }
            """
        )
        assert profile.top_level[0].conflict_count == 0

    def test_outer_frame_array_still_conflicts(self):
        lp, profile = profile_of(
            """
            int main() {
              int buf[8];
              int i;
              buf[0] = 1;
              for (i = 1; i < 8; i = i + 1) { buf[i] = buf[i-1] * 2; }
              return buf[7];
            }
            """
        )
        inv = profile.top_level[0]
        assert inv.conflict_count > 0  # buf belongs to the pre-loop frame


class TestConflictAttribution:
    def test_write_at_an_iteration_boundary_belongs_to_its_iteration(self):
        """``memset_i32`` ends the loop body, so its memory events carry
        the cost counter after the call's charge, which is the next
        iteration's start timestamp. Each write still belongs to the
        iteration that made it: every later iteration reads the previous
        one's write."""
        count, pairs, skew = conflicts_on_all_backends(
            """
            int A[8];
            int main() {
              int i;
              int s = 0;
              for (i = 0; i < 16; i = i + 1) {
                s = s + A[0];
                memset_i32(A, i, 8);
              }
              return s;
            }
            """
        )
        assert count == 15
        assert pairs == {k: k - 1 for k in range(1, 16)}
        assert skew == 5.0


class TestRegisterLCDRecording:
    def test_noncomputable_lcd_values_recorded(self):
        lp, profile = profile_of(
            """
            int A[64];
            int main() {
              int pos = 0;
              int s = 0;
              while (pos < 60) {
                s = s + A[pos];
                pos = pos + 1 + (A[pos] & 1);
              }
              return s;
            }
            """
        )
        inv = profile.top_level[0]
        assert inv.lcd_values, "unpredictable cursor should be tracked"
        pos_key = [k for k in inv.lcd_values if ":pos" in k]
        assert pos_key
        values = inv.lcd_values[pos_key[0]]
        assert len(values) == inv.num_iterations - 1
        assert values == sorted(values)  # cursor increases

    def test_computable_iv_not_recorded(self, doall_kernel):
        inv = doall_kernel.profile().top_level[0]
        assert all(":i" not in key for key in inv.lcd_values)

    def test_def_and_use_offsets_recorded(self):
        lp, profile = profile_of(
            """
            int OUT[40];
            int main() {
              int x = 1;
              int i;
              for (i = 0; i < 40; i = i + 1) {
                OUT[i] = x;                     // use of x early
                x = (x * 5 + 1) & 1023;         // def of next x
              }
              return OUT[39];
            }
            """
        )
        inv = profile.top_level[0]
        x_key = [k for k in inv.lcd_def_offsets if ":x" in k][0]
        defs = inv.lcd_def_offsets[x_key]
        uses = inv.lcd_use_offsets[x_key]
        assert len(defs) == inv.num_iterations - 1
        assert all(d >= 0 for d in defs)
        assert any(u is not None for u in uses)
