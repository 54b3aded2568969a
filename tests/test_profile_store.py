"""Persistent caches: round-trip fidelity and failure fallbacks.

The contract under test: a profile served from the on-disk store must be
observationally identical to the freshly measured one — every paper
configuration evaluates to bit-identical speedup and coverage — and any
defect in the store (schema drift, corruption, version bumps) silently
degrades to re-profiling, never to wrong numbers. The profile store and
the JIT code cache share one entry format and one read path, so one
corruption contract is checked against both.
"""

import hashlib
import json

import pytest

from repro.bench import find_program
from repro.core.config import paper_configurations
from repro.core.framework import Loopapalooza
from repro.frontend.codegen import compile_source
from repro.interp import codegen
from repro.runtime.profile_store import (
    CODE_CACHE_SCHEMA,
    PROFILE_CACHE_SCHEMA,
    CodeCache,
    ProfileStore,
    default_cache_root,
    default_code_cache,
    default_code_cache_root,
    default_store,
)

FUEL = 50_000_000
BENCH = "specint2000/gzip_like"


@pytest.fixture(scope="module")
def source():
    return find_program(BENCH).source


@pytest.fixture()
def store(tmp_path):
    return ProfileStore(tmp_path / "profiles")


def _fresh(source, store):
    return Loopapalooza(source, name=BENCH, fuel=FUEL, store=store)


def test_round_trip_bit_identical_for_every_config(source, store):
    cold = _fresh(source, store)
    cold.profile()
    assert not cold.profiled_from_cache
    assert store.stats.stores == 1

    warm = _fresh(source, store)
    warm.profile()
    assert warm.profiled_from_cache
    assert store.stats.hits == 1

    for config in paper_configurations():
        measured = cold.evaluate(config)
        cached = warm.evaluate(config)
        # Serving from the cache must not change a single byte of the
        # result, dict order included -- although a loaded profile holds
        # its conflict pairs sorted and a recorded one in event order.
        assert json.dumps(cached.to_dict()) == json.dumps(measured.to_dict()), \
            config.name


def test_round_trip_preserves_output_and_total_cost(source, store):
    cold = _fresh(source, store)
    cold.profile()
    warm = _fresh(source, store)
    warm.profile()
    assert warm.output == cold.output
    assert warm.total_cost == cold.total_cost


def test_schema_bump_invalidates(source, store):
    cold = _fresh(source, store)
    cold.profile()

    bumped = ProfileStore(store.root, schema=PROFILE_CACHE_SCHEMA + 1)
    relearn = _fresh(source, bumped)
    relearn.profile()
    assert not relearn.profiled_from_cache
    assert bumped.stats.hits == 0
    assert bumped.stats.misses == 1
    # The bumped store writes its own entry alongside the old one.
    assert bumped.stats.stores == 1

    # The original schema still hits its own entry.
    again = _fresh(source, ProfileStore(store.root))
    again.profile()
    assert again.profiled_from_cache


def test_key_depends_on_fuel_and_inline(store):
    key = store.cache_key("int main() { return 0; }", FUEL)
    assert key != store.cache_key("int main() { return 0; }", FUEL + 1)
    assert key != store.cache_key("int main() { return 0; }", FUEL,
                                  inline=True)
    assert key != store.cache_key("int main() { return 1; }", FUEL)
    assert key == store.cache_key("int main() { return 0; }", FUEL)


def test_key_depends_on_transform(store):
    """Stale-hit regression: the transform pipeline changes the loop
    population, so a profile recorded with it off must not warm-start a
    run with it on (or vice versa)."""
    source = "int main() { return 0; }"
    key = store.cache_key(source, FUEL)
    assert key != store.cache_key(source, FUEL, transform=True)
    assert key == store.cache_key(source, FUEL, transform=False)


def test_corrupt_entry_falls_back_to_reprofiling(source, store):
    cold = _fresh(source, store)
    cold.profile()
    [entry] = store.entries()
    entry.write_text(entry.read_text()[: entry.stat().st_size // 2])

    relearn = _fresh(source, store)
    relearn.profile()
    assert not relearn.profiled_from_cache
    assert store.stats.corrupt == 1
    # The corrupt entry was dropped and rewritten by the re-profile.
    assert store.stats.stores == 2

    warm = _fresh(source, store)
    warm.profile()
    assert warm.profiled_from_cache


def test_checksum_mismatch_detected(source, store):
    cold = _fresh(source, store)
    cold.profile()
    [path] = store.entries()
    entry = json.loads(path.read_text())
    entry["payload"]["profile"]["total_cost"] += 1  # bit rot
    path.write_text(json.dumps(entry))

    warm = _fresh(source, store)
    warm.profile()
    assert not warm.profiled_from_cache
    assert store.stats.corrupt == 1
    assert store.entries(), "entry is rewritten after the fallback"


def test_non_utf8_byte_is_corruption(source, store):
    """Regression: a byte that does not decode used to escape the guarded
    block as a UnicodeDecodeError and crash the run."""
    _fresh(source, store).profile()
    [path] = store.entries()
    data = bytearray(path.read_bytes())
    data[len(data) // 2] = 0xFF
    path.write_bytes(bytes(data))

    warm = _fresh(source, store)
    warm.profile()
    assert not warm.profiled_from_cache
    assert store.stats.corrupt == 1
    assert store.stats.stores == 2


def test_payload_edit_that_parses_the_same_is_rejected(source, store):
    """The checksum covers the stored payload bytes, not the parsed value:
    one added space still parses to the same payload, yet it is corrupt."""
    _fresh(source, store).profile()
    [path] = store.entries()
    data = path.read_bytes()
    head = data.index(b'"payload": ') + len(b'"payload": ')
    comma = data.index(b",", head)
    edited = data[:comma + 1] + b" " + data[comma + 1:]
    assert json.loads(edited)["payload"] == json.loads(data)["payload"]
    path.write_bytes(edited)

    warm = _fresh(source, store)
    warm.profile()
    assert not warm.profiled_from_cache
    assert store.stats.corrupt == 1


def test_entry_under_another_key_is_rejected(source, store):
    """An intact entry copied to another key's path (here: a different
    fuel budget) must not serve that key."""
    _fresh(source, store).profile()
    [path] = store.entries()
    other = store.root / f"{store.cache_key(source, FUEL + 1)}.json"
    other.write_bytes(path.read_bytes())

    relearn = Loopapalooza(source, name=BENCH, fuel=FUEL + 1, store=store)
    relearn.profile()
    assert not relearn.profiled_from_cache
    assert store.stats.corrupt == 1
    assert store.stats.hits == 0


def test_clear_and_info(source, store):
    cold = _fresh(source, store)
    cold.profile()
    info = store.info()
    assert info["entries"] == 1
    assert info["size_bytes"] > 0
    assert store.clear() == 1
    assert store.info()["entries"] == 0


def test_default_root_override(monkeypatch, tmp_path):
    monkeypatch.setenv("REPRO_CACHE_DIR", str(tmp_path / "elsewhere"))
    assert default_cache_root() == tmp_path / "elsewhere"


def test_one_variable_places_both_stores(monkeypatch, tmp_path):
    monkeypatch.setenv("REPRO_CACHE_DIR", str(tmp_path))
    assert ProfileStore().root == tmp_path
    assert CodeCache().root == tmp_path / "code"
    assert default_code_cache_root() == tmp_path / "code"


def test_default_stores_follow_the_variable(monkeypatch, tmp_path):
    """The default stores read ``REPRO_CACHE_DIR`` on every call, and one
    instance per root shares its counters between callers."""
    from repro.bench.suites import SuiteRunner

    first, second = tmp_path / "first", tmp_path / "second"
    monkeypatch.setenv("REPRO_CACHE_DIR", str(first))
    store, code = default_store(), default_code_cache()
    assert (store.root, code.root) == (first, first / "code")
    monkeypatch.setenv("REPRO_CACHE_DIR", str(second))
    assert SuiteRunner().store.root == second
    assert default_code_cache().root == second / "code"
    monkeypatch.setenv("REPRO_CACHE_DIR", str(first))
    assert default_store() is store and default_code_cache() is code


@pytest.mark.parametrize("key", ["aaa", "A" * 64, "a" * 63, "../" + "a" * 61,
                                 "a" * 64 + ".old"])
def test_malformed_key_is_refused(tmp_path, key):
    """Every entry is named by a sha256 hex key, so every entry written
    is one that ``entries``, ``clear`` and eviction see."""
    cache = CodeCache(tmp_path)
    with pytest.raises(ValueError, match="not a store key"):
        cache.store(key, "source")
    with pytest.raises(ValueError, match="not a store key"):
        cache.load(key)
    assert list(tmp_path.iterdir()) == []


# -- one corruption contract for both stores -----------------------------------

#: Two small programs, so each store holds entries under two keys.
SMALL = tuple(
    "int A[32];\n"
    "int main() { int i;\n"
    f"  for (i = 0; i < 32; i = i + 1) {{ A[i] = i * {factor}; }}\n"
    "  return A[31]; }\n"
    for factor in (3, 5)
)


class _ProfileEntries:
    """Profile-store entries of the two programs."""

    def __init__(self, root, monkeypatch):
        self.store = ProfileStore(root)

    def recompute(self, which):
        Loopapalooza(SMALL[which], name="small", fuel=FUEL,
                     store=self.store).profile()

    def load(self, which):
        return self.store.load(SMALL[which], FUEL)

    def path(self, which):
        return self.store._path_for(self.store.cache_key(SMALL[which], FUEL))


class _CodeEntries:
    """Code-cache entries of the two programs' plain ``main``."""

    def __init__(self, root, monkeypatch):
        self.store = CodeCache(root)
        self.monkeypatch = monkeypatch
        self.functions = [compile_source(source).get_function("main")
                          for source in SMALL]

    def recompute(self, which):
        # An empty in-process memo makes jit_entry consult the disk cache.
        self.monkeypatch.setattr(codegen, "_CODE_MEMO", {})
        codegen.jit_entry(self.functions[which], None, False,
                          code_cache=self.store)

    def load(self, which):
        return self.store.load(self._key(which))

    def path(self, which):
        return self.store._path_for(self._key(which))

    def _key(self, which):
        return codegen.jit_cache_key(self.functions[which], None, False)


def _truncate(entries, data):
    return data[: len(data) // 2]


def _non_utf8_byte(entries, data):
    damaged = bytearray(data)
    damaged[len(damaged) // 2] = 0xFF
    return bytes(damaged)


def _same_parse_edit(entries, data):
    at = data.rindex(b', "checksum"')
    edited = data[:at] + b" " + data[at:]
    assert json.loads(edited) == json.loads(data)
    return edited


def _other_keys_entry(entries, data):
    return entries.path(1).read_bytes()


@pytest.mark.parametrize("damage", [
    _truncate, _non_utf8_byte, _same_parse_edit, _other_keys_entry,
], ids=["truncated", "non-utf8-byte", "same-parse-edit", "other-keys-entry"])
@pytest.mark.parametrize("kind", [_ProfileEntries, _CodeEntries],
                         ids=["profile-store", "code-cache"])
def test_damaged_entry_is_a_corrupt_miss_then_rewritten(
        tmp_path, monkeypatch, kind, damage):
    entries = kind(tmp_path, monkeypatch)
    entries.recompute(0)
    entries.recompute(1)
    path = entries.path(0)
    path.write_bytes(damage(entries, path.read_bytes()))
    stats = entries.store.stats
    before = stats.as_dict()

    assert entries.load(0) is None
    assert stats.corrupt == before["corrupt"] + 1
    assert stats.misses == before["misses"] + 1
    assert stats.hits == before["hits"]
    assert not path.exists()

    entries.recompute(0)
    assert stats.stores == before["stores"] + 1
    assert entries.load(0) is not None
    assert stats.hits == before["hits"] + 1
    assert stats.corrupt == before["corrupt"] + 1


def test_code_cache_schema_bump_reads_as_corrupt_once(tmp_path, monkeypatch):
    """A code-cache entry of an older layout (here the schema-1 layout,
    with a top-level ``source``) is one corrupt miss, then regenerated;
    the schema is not part of code-cache keys."""
    entries = _CodeEntries(tmp_path, monkeypatch)
    source = codegen.generate_source(entries.functions[0], None, False)
    key = entries._key(0)
    entries.path(0).write_text(json.dumps({
        "schema": CODE_CACHE_SCHEMA - 1, "key": key, "source": source,
        "checksum": hashlib.sha256(source.encode("utf-8")).hexdigest(),
        "meta": {},
    }))

    entries.recompute(0)
    assert entries.store.stats.corrupt == 1
    assert entries.store.stats.stores == 1
    assert entries.load(0) == source
    assert entries.store.stats.corrupt == 1
