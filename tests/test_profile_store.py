"""Persistent caches: round-trip fidelity and failure fallbacks.

The contract under test: a profile served from the on-disk store must be
observationally identical to the freshly measured one — every paper
configuration evaluates to bit-identical speedup and coverage — and any
defect in the store (schema drift, corruption, version bumps) silently
degrades to re-profiling, never to wrong numbers. The profile store and
the JIT code cache share one entry format and one read path, so one
corruption contract is checked against both. A profile payload is raw
arrays behind a JSON header, so damage that only its length checks can
catch is a corrupt miss as well, and every bundled program's profile
serializes the same after the round trip.
"""

import hashlib
import json

import pytest

from repro.bench import all_programs, find_program
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
from repro.runtime.serialize import (
    profile_from_bytes,
    profile_from_dict,
    profile_to_dict,
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
        # result, dict order included.
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
    entry.write_bytes(entry.read_bytes()[: entry.stat().st_size // 2])

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
    data = path.read_bytes()
    total = b'"total_cost":%d' % cold.total_cost
    assert data.count(total) == 1
    path.write_bytes(data.replace(
        total, b'"total_cost":%d' % (cold.total_cost + 1)))  # bit rot

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
    """The checksum covers the stored payload bytes, not the decoded value:
    eight spaces before the payload's JSON header still decode to the same
    profile, yet the entry is corrupt."""
    _fresh(source, store).profile()
    [path] = store.entries()
    data = path.read_bytes()
    edited = _same_profile_edit(data)
    assert _decoded(edited) == _decoded(data)
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
    other = store._path_for(store.cache_key(source, FUEL + 1))
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


def test_default_runner_follows_the_variable(monkeypatch, tmp_path):
    """The figure functions' default runner reads ``REPRO_CACHE_DIR`` on
    every call too, and is shared per root."""
    from repro.bench.suites import default_runner

    first, second = tmp_path / "first", tmp_path / "second"
    monkeypatch.setenv("REPRO_CACHE_DIR", str(first))
    runner = default_runner()
    assert runner.store.root == first
    monkeypatch.setenv("REPRO_CACHE_DIR", str(second))
    assert default_runner().store.root == second
    monkeypatch.setenv("REPRO_CACHE_DIR", str(first))
    assert default_runner() is runner


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


def _payload(data):
    return data[data.index(b"\n") + 1:]


def _decoded(data):
    """The profile dict and metadata of a profile entry's bytes."""
    profile, meta = profile_from_bytes(_payload(data))
    return profile_to_dict(profile), meta


def _same_profile_edit(data):
    """Eight spaces before the payload's JSON header: the header parses
    the same and the arrays stay aligned."""
    head = data.index(b"\n") + 1
    return data[:head] + b" " * 8 + data[head:]


def _same_parse_edit(entries, data):
    if isinstance(entries, _ProfileEntries):
        edited = _same_profile_edit(data)
        assert _decoded(edited) == _decoded(data)
    else:
        # A trailing newline compiles to the same code.
        edited = data + b"\n"
        assert compile(_payload(edited), "<edited>", "exec").co_code == \
            compile(_payload(data), "<entry>", "exec").co_code
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


# -- the binary profile payload ----------------------------------------------------


def _small_profile_dict(store=None):
    lp = Loopapalooza(SMALL[0], name="small", fuel=FUEL, store=store)
    return lp, profile_to_dict(lp.profile())


def _arrays_start(data):
    """Where the arrays of a profile entry's payload begin."""
    head = data.index(b"\n") + 1
    return data.index(b"\n", head) + 1


def _flip_array_byte(store, data):
    at = (_arrays_start(data) + len(data)) // 2
    return data[:at] + bytes([data[at] ^ 0x01]) + data[at + 1:]


def _truncate_inside_array(store, data):
    # Half of the first element of the first array.
    return data[:_arrays_start(data) + 4]


def _overlong_header(store, data):
    """The header declares one more iteration start than the payload
    holds; the head line is rewritten with the new payload's checksum, so
    only the length check can catch it."""
    payload = _payload(data)
    end = payload.index(b"\n")
    header = json.loads(payload[:end])
    [spec] = [spec for spec in header["arrays"] if spec[0] == "starts"]
    spec[2] += 1
    text = json.dumps(header, sort_keys=True, separators=(",", ":")).encode()
    payload = text + b" " * (-(len(text) + 1) % 8) + b"\n" + payload[end + 1:]
    key = store.cache_key(SMALL[0], FUEL)
    checksum = hashlib.sha256(payload).hexdigest()
    return (f"repro-entry {store.schema} {key} {checksum}\n".encode()
            + payload)


def _old_layout_entry(store, data):
    """An intact entry of the earlier JSON layout, under the new name."""
    _, profile = _small_profile_dict()
    payload = json.dumps({"profile": profile, "static_loops": {},
                          "output": []}, sort_keys=True)
    checksum = hashlib.sha256(payload.encode()).hexdigest()
    key = store.cache_key(SMALL[0], FUEL)
    return (f'{{"schema": 1, "key": "{key}", "payload": {payload}, '
            f'"checksum": "{checksum}"}}').encode()


@pytest.mark.parametrize("damage", [
    _flip_array_byte, _truncate_inside_array, _overlong_header,
    _old_layout_entry,
], ids=["flipped-array-byte", "truncated-array", "overlong-header",
        "old-layout-entry"])
def test_damaged_profile_payload_is_a_corrupt_miss_then_reprofiled(
        tmp_path, damage):
    store = ProfileStore(tmp_path)
    _, clean = _small_profile_dict(store)
    path = store._path_for(store.cache_key(SMALL[0], FUEL))
    path.write_bytes(damage(store, path.read_bytes()))

    relearn, profile = _small_profile_dict(store)
    assert not relearn.profiled_from_cache
    assert (store.stats.corrupt, store.stats.stores) == (1, 2)
    assert profile == clean
    warm, profile = _small_profile_dict(store)
    assert warm.profiled_from_cache
    assert profile == clean


#: A profile the recorder of the bundled programs never produces: a use
#: stream with ``None`` and longer than its value stream, a float value
#: stream, and a nested invocation that did not exit.
HAND_BUILT = {
    "format": 1, "name": "hand", "total_cost": 500, "result": 3,
    "top_level": [{
        "loop_id": "main.outer", "parent_iter": -1,
        "iter_starts": [10, 60, 110], "end_ts": 160,
        "conflict_pairs": [[1, 0], [2, 0]], "max_mem_skew": 1.5,
        "conflict_count": 3,
        "lcd_values": {"main.outer:x": [1.5, -2.25]},
        "lcd_def_offsets": {"main.outer:x": [4, 5]},
        "lcd_use_offsets": {"main.outer:x": [None, 2, None, 7]},
        "exited": True,
        "children": [{
            "loop_id": "main.inner", "parent_iter": 1,
            "iter_starts": [70, 80], "end_ts": 90, "conflict_pairs": [],
            "max_mem_skew": 0.0, "conflict_count": 0,
            "lcd_values": {"main.inner:k": [7, -3]},
            "lcd_def_offsets": {"main.inner:k": [0, 1]},
            "lcd_use_offsets": {}, "exited": False, "children": [],
        }],
    }],
    "call_sites": {"main->f@1": {"calls": 2, "total_duration": 40,
                                 "total_saving": 10.5,
                                 "dependent_calls": 1}},
}


def test_hand_built_profile_round_trips_through_the_store(tmp_path):
    store = ProfileStore(tmp_path)
    profile = profile_from_dict(HAND_BUILT)
    static = type("Static", (), {"loops": {}})()
    assert store.store("hand", FUEL, profile, static, [1, 2.5])

    cached = store.load("hand", FUEL)
    assert cached.output == [1, 2.5]
    loaded = cached.profile
    assert loaded.uses.missing is not None
    assert loaded.values.is_float.tolist() == [False, True]
    assert json.dumps(profile_to_dict(loaded), sort_keys=True) == \
        json.dumps(HAND_BUILT, sort_keys=True)
    [outer] = loaded.top_level
    [inner] = outer.children
    assert inner.parent is outer and not inner.exited
    assert outer.lcd_use_offsets == {"main.outer:x": [None, 2, None, 7]}
    assert type(outer.lcd_values["main.outer:x"][0]) is float
    assert type(inner.lcd_values["main.inner:k"][0]) is int


@pytest.fixture(scope="module")
def suite_store(tmp_path_factory):
    return ProfileStore(tmp_path_factory.mktemp("suite-store"))


@pytest.mark.parametrize("program", all_programs(),
                         ids=lambda program: program.full_name)
def test_loaded_profile_serializes_like_the_recorded_one(suite_store,
                                                         program):
    def instance():
        lp = Loopapalooza(program.source, name=program.full_name,
                          fuel=50_000_000, store=suite_store)
        lp.profile()
        return lp

    recorded = instance()
    assert not recorded.profiled_from_cache
    loaded = instance()
    assert loaded.profiled_from_cache
    assert json.dumps(profile_to_dict(loaded.profile()), sort_keys=True) == \
        json.dumps(profile_to_dict(recorded.profile()), sort_keys=True)
