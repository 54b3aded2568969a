"""Persistent profile cache: round-trip fidelity and failure fallbacks.

The contract under test: a profile served from the on-disk store must be
observationally identical to the freshly measured one — every paper
configuration evaluates to bit-identical speedup and coverage — and any
defect in the store (schema drift, corruption, version bumps) silently
degrades to re-profiling, never to wrong numbers.
"""

import json

import pytest

from repro.bench import find_program
from repro.core.config import paper_configurations
from repro.core.framework import Loopapalooza
from repro.runtime.profile_store import (
    PROFILE_CACHE_SCHEMA,
    ProfileStore,
    cache_enabled,
    default_cache_root,
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


class TestCacheEnabledEnv:
    """Regression: REPRO_NO_PROFILE_CACHE=0 used to *disable* the cache
    because any non-empty value was treated as truthy."""

    def test_unset_means_enabled(self, monkeypatch):
        monkeypatch.delenv("REPRO_NO_PROFILE_CACHE", raising=False)
        assert cache_enabled()

    @pytest.mark.parametrize("value", ["", "0", "false", "False", "no", "off", " 0 ", "OFF"])
    def test_falsy_values_keep_cache_enabled(self, monkeypatch, value):
        monkeypatch.setenv("REPRO_NO_PROFILE_CACHE", value)
        assert cache_enabled()

    @pytest.mark.parametrize("value", ["1", "true", "TRUE", "yes", "on", "anything"])
    def test_truthy_values_disable_cache(self, monkeypatch, value):
        monkeypatch.setenv("REPRO_NO_PROFILE_CACHE", value)
        assert not cache_enabled()
