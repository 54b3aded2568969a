"""CLI and profile-serialization tests."""

import io
import json

import pytest

from repro.cli import main
from repro.core import Loopapalooza, paper_configurations
from repro.errors import FrameworkError
from repro.runtime.serialize import (
    load_profile,
    profile_from_dict,
    profile_to_dict,
    save_profile,
)

DEMO = """
int A[64];
float S = 0.0;
int main() {
  int i;
  float acc = 0.0;
  A[0] = 3;
  for (i = 1; i < 64; i = i + 1) { A[i] = (A[i-1] * 5 + i) & 1023; }
  for (i = 0; i < 64; i = i + 1) { acc = acc + (float)A[i]; }
  S = acc;
  print_int((int)acc);
  return (int)acc & 32767;
}
"""


@pytest.fixture()
def demo_file(tmp_path):
    path = tmp_path / "demo.c"
    path.write_text(DEMO)
    return str(path)


def run_cli(*argv):
    out = io.StringIO()
    code = main(list(argv), out=out)
    return code, out.getvalue()


class TestCLI:
    def test_run(self, demo_file):
        code, text = run_cli("run", demo_file)
        assert code == 0
        assert "result:" in text
        assert "dynamic IR instructions:" in text
        assert "program output:" in text

    def test_census(self, demo_file):
        code, text = run_cli("census", demo_file)
        assert code == 0
        assert "computable" in text
        assert "reduction" in text

    def test_evaluate_default_configs(self, demo_file):
        code, text = run_cli("evaluate", demo_file)
        assert code == 0
        for config in paper_configurations():
            assert config.name in text

    def test_evaluate_specific_config(self, demo_file):
        code, text = run_cli(
            "evaluate", demo_file, "--config", "helix:reduc1-dep1-fn2"
        )
        assert code == 0
        assert text.count("helix:") == 1
        assert "doall:" not in text

    def test_diagnose(self, demo_file):
        code, text = run_cli("diagnose", demo_file)
        assert code == 0
        assert "unlocks at" in text

    def test_bench_lists_programs(self):
        code, text = run_cli("bench")
        assert code == 0
        assert "specint2000/gzip_like" in text
        assert text.count("\n") >= 48

    def test_missing_file_is_an_error(self):
        code, _ = run_cli("run", "/nonexistent/never.c")
        assert code == 1

    def test_bad_config_is_an_error(self, demo_file):
        code, _ = run_cli("evaluate", demo_file, "--config", "warp9")
        assert code == 1

    def test_bad_program_is_an_error(self, tmp_path):
        path = tmp_path / "broken.c"
        path.write_text("int main() { return ; }")
        code, _ = run_cli("run", str(path))
        assert code == 1

    def test_cache_stats_prints_no_per_process_counters(self, tmp_path,
                                                       monkeypatch):
        # The CLI process compiles nothing itself, so counters of its own
        # in-process caches would always read zero: only on-disk state and
        # recorded runs belong in the output.
        from repro.interp import codegen
        from repro.runtime import profile_store
        from repro.runtime.profile_store import ProfileStore

        monkeypatch.setenv("REPRO_CACHE_DIR", str(tmp_path))
        monkeypatch.setenv("REPRO_RUNS_DIR", str(tmp_path / "runs"))
        monkeypatch.setattr(codegen, "_CODE_MEMO", {})
        Loopapalooza(DEMO, name="demo", store=ProfileStore(tmp_path)).profile()
        assert profile_store.default_code_cache().entries()

        code, text = run_cli("cache", "stats")
        assert code == 0
        assert f"profile store at {tmp_path}" in text
        assert f"code cache at {tmp_path / 'code'}" in text
        assert "entries: 0" not in text
        for counter in ("in-process", "memo", "gather", "evict"):
            assert counter not in text

    @pytest.mark.parametrize("knobs", ["none", "every"])
    def test_cache_commands_cover_both_stores(self, tmp_path, monkeypatch,
                                              knobs):
        """``info`` and ``stats`` list both stores, ``clear`` empties both,
        and no ``REPRO_*`` variable (current or retired) makes one of
        them go missing."""
        from repro.runtime.profile_store import CodeCache, ProfileStore

        if knobs == "every":
            for name in ("TRANSFORM", "VERIFY_PASSES", "NO_PROFILE_CACHE",
                         "JIT_DUMP", "HYPOTHESIS_PROFILE"):
                monkeypatch.setenv(f"REPRO_{name}", "1")
            for name in ("RUNS_DIR", "FUZZ_CORPUS"):
                monkeypatch.setenv(f"REPRO_{name}", str(tmp_path / name))
        monkeypatch.setenv("HOME", str(tmp_path / "home"))
        monkeypatch.setenv("REPRO_CACHE_DIR", str(tmp_path))
        Loopapalooza(DEMO, name="demo", store=ProfileStore()).profile()
        CodeCache().store("0" * 64, "def _jit_run(machine, args):\n    pass\n")

        for action in ("info", "stats"):
            code, text = run_cli("cache", action)
            assert code == 0, action
            assert f"profile store at {tmp_path}\n" in text
            assert f"code cache at {tmp_path / 'code'}\n" in text
            assert "entries: 0" not in text
        code, text = run_cli("cache", "clear")
        assert code == 0
        assert f"from the profile store at {tmp_path}\n" in text
        assert f"from the code cache at {tmp_path / 'code'}\n" in text
        assert ProfileStore().entries() == CodeCache().entries() == []

    def test_cache_commands_leave_foreign_files_alone(self, tmp_path,
                                                      monkeypatch):
        """Only files named like entries (a sha256 key plus ``.entry``)
        are counted and cleared; anything else in the cache directories
        is not the cache's to delete."""
        from repro.runtime.profile_store import CodeCache, ProfileStore

        monkeypatch.setenv("REPRO_CACHE_DIR", str(tmp_path))
        Loopapalooza(DEMO, name="demo", store=ProfileStore()).profile()
        CodeCache().store("0" * 64, "def _jit_run(machine, args):\n    pass\n")
        foreign = [tmp_path / "notes.json", tmp_path / "README",
                   tmp_path / "code" / "notes.json"]
        for path in foreign:
            path.write_text("{}")

        code, text = run_cli("cache", "info")
        assert code == 0
        assert text.count("entries: 1\n") == 2
        code, text = run_cli("cache", "clear")
        assert code == 0
        assert "removed 1 entries from the profile store" in text
        assert "removed 1 entries from the code cache" in text
        assert all(path.read_text() == "{}" for path in foreign)

    def test_cache_info_counts_what_clear_removes(self, tmp_path,
                                                  monkeypatch):
        """An entry of the earlier JSON layout is shown by ``info`` and
        removed by ``clear``, which agree on the count and the size; a
        ``notes.json`` beside it is neither."""
        monkeypatch.setenv("REPRO_CACHE_DIR", str(tmp_path))
        earlier = tmp_path / ("ab" * 32 + ".json")
        earlier.write_text('{"profile": {}}')
        notes = tmp_path / "notes.json"
        notes.write_text("{}")

        code, text = run_cli("cache", "info")
        assert code == 0
        store_info = text.split("code cache at")[0]
        assert "  entries: 0\n" in store_info
        assert "  earlier-layout entries: 1 (removed by clear)\n" in store_info
        assert f"  size:    {len(earlier.read_bytes())} bytes\n" in store_info
        code, text = run_cli("cache", "clear")
        assert code == 0
        assert "removed 1 entries from the profile store" in text
        assert not earlier.exists()
        assert notes.read_text() == "{}"


class TestSerialization:
    def test_round_trip_dict(self):
        lp = Loopapalooza(DEMO, "serialize_demo")
        profile = lp.profile()
        data = profile_to_dict(profile)
        json.dumps(data)  # must be JSON-safe
        rebuilt = profile_from_dict(data)
        assert rebuilt.total_cost == profile.total_cost
        assert rebuilt.result == profile.result
        assert len(rebuilt.all_invocations()) == len(profile.all_invocations())
        for original, copy in zip(
            profile.all_invocations(), rebuilt.all_invocations()
        ):
            assert original.loop_id == copy.loop_id
            assert original.iter_starts == copy.iter_starts
            assert original.conflict_pairs == copy.conflict_pairs
            assert original.lcd_values == copy.lcd_values

    def test_round_trip_preserves_evaluation(self):
        from repro.core.evaluator import evaluate_config
        from repro.core.config import LPConfig

        lp = Loopapalooza(DEMO, "serialize_eval")
        profile = lp.profile()
        rebuilt = profile_from_dict(profile_to_dict(profile))
        for config in (LPConfig("helix", 1, 1, 2), LPConfig("pdoall", 1, 2, 2)):
            original = evaluate_config(profile, lp.static_info, config)
            copied = evaluate_config(rebuilt, lp.static_info, config)
            assert copied.speedup == pytest.approx(original.speedup)
            assert copied.coverage == pytest.approx(original.coverage)

    def test_save_and_load_file(self, tmp_path):
        lp = Loopapalooza(DEMO, "serialize_file")
        profile = lp.profile()
        path = tmp_path / "profile.json"
        save_profile(profile, path)
        loaded = load_profile(path)
        assert loaded.total_cost == profile.total_cost

    def test_version_check(self):
        with pytest.raises(FrameworkError, match="format"):
            profile_from_dict({"format": 999})

    def test_parent_links_rebuilt(self):
        lp = Loopapalooza(
            """
            int A[64];
            int main() {
              int i; int j;
              for (i = 0; i < 4; i = i + 1) {
                for (j = 0; j < 4; j = j + 1) { A[i*4+j] = i; }
              }
              return 0;
            }
            """,
            "nested_ser",
        )
        rebuilt = profile_from_dict(profile_to_dict(lp.profile()))
        outer = rebuilt.top_level[0]
        assert all(child.parent is outer for child in outer.children)
