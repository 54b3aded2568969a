"""Persistent profile cache — profile once, evaluate everywhere.

Profiling is the expensive stage of the pipeline (an instrumented
interpreter run over millions of dynamic IR instructions); evaluation is
cheap and purely analytical. This module gives the expensive stage a
versioned, content-addressed on-disk home so warm starts of the suite
runner, the figure harnesses, and pytest skip re-profiling entirely.

Cache key
---------

``sha256(cache_schema | profile_format | instrumentation_version |
fuel | inline | source)`` — any change to the benchmark source, the fuel
budget, the inlining mode, the serialized profile layout, or the
instrumentation planner invalidates the entry. Bump
:data:`PROFILE_CACHE_SCHEMA` whenever the *payload* layout changes (the
other two versions live with the code they describe:
``repro.runtime.serialize.FORMAT_VERSION`` and
``repro.core.instrument.INSTRUMENTATION_VERSION``).

Entries are single JSON files named ``<key>.json`` holding the serialized
:class:`~repro.runtime.profile.ProgramProfile`, the static loop
classification, the program output, and a sha256 checksum of the stored
payload bytes. Corruption (truncated writes, bit rot, undecodable bytes,
schema drift, an entry under another key's name) is detected on load,
before the payload is parsed, and the entry is discarded — the caller
falls back to re-profiling and the entry is rewritten.

The default location is ``~/.cache/repro/profiles`` (override with the
``REPRO_CACHE_DIR`` environment variable; set ``REPRO_NO_PROFILE_CACHE=1``
to disable the default store entirely, e.g. for cold-start timing runs).
"""

from __future__ import annotations

import hashlib
import json
import os
import pathlib
import tempfile

from .serialize import FORMAT_VERSION, profile_from_dict, profile_to_dict

#: Version of the on-disk cache payload layout (not of the profile format
#: itself — that is ``serialize.FORMAT_VERSION``). Bumping this invalidates
#: every existing cache entry.
PROFILE_CACHE_SCHEMA = 1


def _instrumentation_version():
    from ..core.instrument import INSTRUMENTATION_VERSION

    return INSTRUMENTATION_VERSION


def default_cache_root():
    """The store directory used when none is given explicitly."""
    override = os.environ.get("REPRO_CACHE_DIR")
    if override:
        return pathlib.Path(override)
    return pathlib.Path.home() / ".cache" / "repro" / "profiles"


#: Environment values that do NOT disable the cache. Historically any
#: non-empty value (including "0" and "false") turned caching off.
_FALSY_ENV = frozenset({"", "0", "false", "no", "off"})


def cache_enabled():
    """False when the user disabled the default cache via the environment.

    ``REPRO_NO_PROFILE_CACHE`` follows the usual boolean-env contract:
    ``1``/``true``/``yes`` (any casing) disable the cache; unset, empty,
    ``0``, ``false``, ``no``, and ``off`` leave it enabled.
    """
    value = os.environ.get("REPRO_NO_PROFILE_CACHE")
    if value is None:
        return True
    return value.strip().lower() in _FALSY_ENV


class ProfileStoreStats:
    """Hit/miss/corruption counters for one :class:`ProfileStore`."""

    __slots__ = ("hits", "misses", "stores", "corrupt", "errors")

    def __init__(self):
        self.hits = 0
        self.misses = 0
        self.stores = 0
        self.corrupt = 0
        self.errors = 0

    def as_dict(self):
        return {
            "hits": self.hits,
            "misses": self.misses,
            "stores": self.stores,
            "corrupt": self.corrupt,
            "errors": self.errors,
        }

    def describe(self):
        """One-line human-readable summary for run footers."""
        parts = [f"{self.hits} hits", f"{self.misses} misses"]
        if self.stores:
            parts.append(f"{self.stores} stored")
        if self.corrupt:
            parts.append(f"{self.corrupt} corrupt")
        if self.errors:
            parts.append(f"{self.errors} errors")
        return ", ".join(parts)

    def __repr__(self):
        return (
            f"<ProfileStoreStats hits={self.hits} misses={self.misses} "
            f"stores={self.stores} corrupt={self.corrupt}>"
        )


class CachedRun:
    """What a warm start gets back: the profile plus everything else the
    framework would have learned by running the program."""

    __slots__ = ("profile", "static_loops", "output")

    def __init__(self, profile, static_loops, output):
        self.profile = profile
        self.static_loops = static_loops
        self.output = output


class ProfileStore:
    """Content-addressed on-disk store for execution profiles.

    All methods degrade gracefully: IO or serialization failures count as
    misses/errors and never propagate — a broken cache must never break a
    profiling run.
    """

    def __init__(self, root=None, schema=None):
        self.root = pathlib.Path(root) if root is not None else default_cache_root()
        self.schema = PROFILE_CACHE_SCHEMA if schema is None else schema
        self.stats = ProfileStoreStats()

    # -- keys -----------------------------------------------------------------

    def cache_key(self, source, fuel, inline=False, transform=False):
        """Content hash identifying one (program, profiling setup) pair.

        ``transform`` is the structural-transform pipeline flag: the same
        source profiled with and without fission/peel/fusion yields
        different loop populations, so the entries must never collide.
        """
        tag = (
            f"{self.schema}|{FORMAT_VERSION}|{_instrumentation_version()}"
            f"|{fuel}|{int(bool(inline))}|{int(bool(transform))}|"
        )
        digest = hashlib.sha256()
        digest.update(tag.encode("utf-8"))
        digest.update(source.encode("utf-8"))
        return digest.hexdigest()

    def _path_for(self, key):
        return self.root / f"{key}.json"

    # -- load -----------------------------------------------------------------

    def load(self, source, fuel, inline=False, transform=False):
        """Return a :class:`CachedRun` on a hit, else ``None``.

        The entry must have the exact layout :meth:`store` writes, for this
        path's key, and its checksum must match the payload bytes; only
        then is the payload parsed. A corrupt entry (any layout deviation,
        undecodable byte, checksum mismatch or bad field) is deleted and
        reported as a miss so the caller re-profiles and overwrites it.
        """
        key = self.cache_key(source, fuel, inline, transform)
        path = self._path_for(key)
        try:
            data = path.read_bytes()
        except OSError:
            self.stats.misses += 1
            return None
        try:
            payload = _entry_payload(data, self.schema, key)
            profile = profile_from_dict(payload["profile"])
            static_loops = _static_loops_from_dict(payload["static_loops"])
            output = list(payload["output"])
        except Exception:
            # Anything unreadable is treated as corruption: drop the entry
            # and fall back to re-profiling.
            self.stats.corrupt += 1
            self.stats.misses += 1
            try:
                path.unlink()
            except OSError:
                pass
            return None
        self.stats.hits += 1
        return CachedRun(profile, static_loops, output)

    # -- store ----------------------------------------------------------------

    def store(self, source, fuel, profile, static_info, output, inline=False,
              transform=False):
        """Persist one profiling run. Failures are swallowed (and counted):
        caching is an optimization, never a correctness dependency."""
        key = self.cache_key(source, fuel, inline, transform)
        payload = {
            "profile": profile_to_dict(profile),
            "static_loops": _static_loops_to_dict(static_info.loops),
            "output": list(output),
        }
        # Serialize the (large) payload exactly once, in canonical form, and
        # reuse the text for both the checksum and the entry body.  json.dump
        # would stream through the pure-Python encoder; json.dumps uses the C
        # one, which is the difference between seconds and milliseconds on a
        # multi-megabyte profile.
        payload_json = json.dumps(payload, sort_keys=True, separators=(",", ":"))
        checksum = hashlib.sha256(payload_json.encode("utf-8")).hexdigest()
        entry_text = (
            _entry_head(self.schema, key) + payload_json + _entry_tail(checksum)
        )
        try:
            self.root.mkdir(parents=True, exist_ok=True)
            # Atomic publish: processes sharing a cache may store the same
            # entry; the rename makes readers see old-or-new, never partial.
            fd, tmp_name = tempfile.mkstemp(
                dir=self.root, prefix=".tmp-", suffix=".json"
            )
            try:
                with os.fdopen(fd, "w") as handle:
                    handle.write(entry_text)
                os.replace(tmp_name, self._path_for(key))
            except BaseException:
                try:
                    os.unlink(tmp_name)
                except OSError:
                    pass
                raise
        except Exception:
            self.stats.errors += 1
            return False
        self.stats.stores += 1
        return True

    # -- maintenance -----------------------------------------------------------

    def entries(self):
        """Paths of all cache entries currently on disk."""
        try:
            return sorted(self.root.glob("*.json"))
        except OSError:
            return []

    def size_bytes(self):
        total = 0
        for path in self.entries():
            try:
                total += path.stat().st_size
            except OSError:
                pass
        return total

    def clear(self):
        """Delete every entry; returns the number removed."""
        removed = 0
        for path in self.entries():
            try:
                path.unlink()
                removed += 1
            except OSError:
                pass
        return removed

    def info(self):
        """Human-oriented summary used by ``repro cache info``."""
        entries = self.entries()
        return {
            "root": str(self.root),
            "entries": len(entries),
            "size_bytes": self.size_bytes(),
            "schema": self.schema,
            **self.stats.as_dict(),
        }

    def __repr__(self):
        return f"<ProfileStore {self.root} ({len(self.entries())} entries)>"


_DEFAULT_STORE = None


def default_store():
    """Process-wide shared store at the default location, or ``None`` when
    disabled via ``REPRO_NO_PROFILE_CACHE``."""
    global _DEFAULT_STORE
    if not cache_enabled():
        return None
    if _DEFAULT_STORE is None:
        _DEFAULT_STORE = ProfileStore()
    return _DEFAULT_STORE


# -- code cache ----------------------------------------------------------------

#: Version of the on-disk code-cache entry layout. The *content* of cached
#: sources is versioned separately by ``repro.interp.codegen.CODEGEN_VERSION``
#: (part of the entry key).
CODE_CACHE_SCHEMA = 1


def default_code_cache_root():
    """Where cached JIT sources live: ``<REPRO_CACHE_DIR>/code`` when the
    override is set, else ``~/.cache/repro/code`` (a sibling of the
    profile store)."""
    override = os.environ.get("REPRO_CACHE_DIR")
    if override:
        return pathlib.Path(override) / "code"
    return pathlib.Path.home() / ".cache" / "repro" / "code"


#: Default entry cap for the on-disk code cache (oldest-access eviction).
#: Sized so a full bundled-suite sweep (48 programs x 2 variants x a few
#: tiers) fits with headroom; long-lived fuzzing hosts stay bounded.
CODE_CACHE_CAP_DEFAULT = 1024


class CodeCache:
    """Content-addressed on-disk store for JIT-generated Python sources.

    Keys come from :func:`repro.interp.codegen.jit_cache_key` (IR text +
    plan + codegen version), so a warm sweep skips source generation
    entirely and goes straight to ``compile()``. Same degradation contract
    as :class:`ProfileStore`: IO failures count as misses/errors and never
    propagate.
    """

    def __init__(self, root=None, schema=None, cap=None):
        self.root = (
            pathlib.Path(root) if root is not None else default_code_cache_root()
        )
        self.schema = CODE_CACHE_SCHEMA if schema is None else schema
        self.stats = ProfileStoreStats()
        #: Entry cap (LRU by file mtime).
        self.cap = CODE_CACHE_CAP_DEFAULT if cap is None else cap
        self.evictions = 0

    def _path_for(self, key):
        return self.root / f"{key}.json"

    def load(self, key):
        """The cached source for ``key``, or ``None``. Corrupt entries are
        deleted and counted, then reported as a miss."""
        path = self._path_for(key)
        try:
            data = path.read_bytes()
        except OSError:
            self.stats.misses += 1
            return None
        try:
            entry = json.loads(data.decode("utf-8"))
            if entry.get("schema") != self.schema:
                raise ValueError("schema mismatch")
            source = entry["source"]
            if not isinstance(source, str):
                raise ValueError("bad source payload")
            checksum = hashlib.sha256(source.encode("utf-8")).hexdigest()
            if entry.get("checksum") != checksum:
                raise ValueError("checksum mismatch")
        except Exception:
            self.stats.corrupt += 1
            self.stats.misses += 1
            try:
                path.unlink()
            except OSError:
                pass
            return None
        self.stats.hits += 1
        try:
            os.utime(path)  # LRU touch: eviction is oldest-mtime-first
        except OSError:
            pass
        return source

    def store(self, key, source, meta=None):
        """Persist one generated source; failures are swallowed and
        counted (caching is never a correctness dependency)."""
        entry = {
            "schema": self.schema,
            "key": key,
            "source": source,
            "checksum": hashlib.sha256(source.encode("utf-8")).hexdigest(),
            "meta": dict(meta) if meta else {},
        }
        try:
            self.root.mkdir(parents=True, exist_ok=True)
            fd, tmp_name = tempfile.mkstemp(
                dir=self.root, prefix=".tmp-", suffix=".json"
            )
            try:
                with os.fdopen(fd, "w") as handle:
                    handle.write(json.dumps(entry))
                os.replace(tmp_name, self._path_for(key))
            except BaseException:
                try:
                    os.unlink(tmp_name)
                except OSError:
                    pass
                raise
        except Exception:
            self.stats.errors += 1
            return False
        self.stats.stores += 1
        self._evict_to_cap()
        return True

    def _evict_to_cap(self):
        """Drop least-recently-used entries until the cap holds. Races
        with concurrent processes are benign: eviction of an entry another
        process is about to read just costs that process a miss."""
        entries = self.entries()
        if len(entries) <= self.cap:
            return
        by_age = []
        for path in entries:
            try:
                by_age.append((path.stat().st_mtime, str(path), path))
            except OSError:
                pass
        by_age.sort()
        for _, _, path in by_age[: max(0, len(by_age) - self.cap)]:
            try:
                path.unlink()
                self.evictions += 1
            except OSError:
                pass

    def entries(self):
        try:
            return sorted(self.root.glob("*.json"))
        except OSError:
            return []

    def size_bytes(self):
        total = 0
        for path in self.entries():
            try:
                total += path.stat().st_size
            except OSError:
                pass
        return total

    def clear(self):
        removed = 0
        for path in self.entries():
            try:
                path.unlink()
                removed += 1
            except OSError:
                pass
        return removed

    def info(self):
        """Human-oriented summary used by ``repro cache info``/``stats``."""
        entries = self.entries()
        return {
            "root": str(self.root),
            "entries": len(entries),
            "size_bytes": self.size_bytes(),
            "schema": self.schema,
            "cap": self.cap,
            "evictions": self.evictions,
            **self.stats.as_dict(),
        }

    def __repr__(self):
        return f"<CodeCache {self.root} ({len(self.entries())} entries)>"


_DEFAULT_CODE_CACHE = None


def default_code_cache():
    """Process-wide shared code cache, or ``None`` when caching is
    disabled via ``REPRO_NO_PROFILE_CACHE`` (one switch governs both the
    profile store and the code cache, so cold-start timing runs stay
    cold)."""
    global _DEFAULT_CODE_CACHE
    if not cache_enabled():
        return None
    if _DEFAULT_CODE_CACHE is None:
        _DEFAULT_CODE_CACHE = CodeCache()
    return _DEFAULT_CODE_CACHE


# -- payload helpers -----------------------------------------------------------


# A profile entry is ``_entry_head(schema, key)``, the payload's canonical
# JSON, then ``_entry_tail(sha256 of the payload bytes)``: one JSON object,
# written as ASCII, whose checksum covers exactly the bytes between the two.


def _entry_head(schema, key):
    return '{"schema": %s, "key": %s, "payload": ' % (
        json.dumps(schema), json.dumps(key)
    )


def _entry_tail(checksum):
    return ', "checksum": %s}' % json.dumps(checksum)


_TAIL_BYTES = len(_entry_tail("0" * 64))


def _entry_payload(data, schema, key):
    """The parsed payload of entry bytes ``data`` for ``key``; raises
    ``ValueError`` unless ``data`` has the exact layout, with a checksum
    that matches the payload bytes."""
    head = _entry_head(schema, key).encode("ascii")
    body_end = len(data) - _TAIL_BYTES
    if body_end < len(head) or not data.startswith(head):
        raise ValueError("not an entry for this key and schema")
    body = data[len(head):body_end]
    checksum = hashlib.sha256(body).hexdigest()
    if data[body_end:] != _entry_tail(checksum).encode("ascii"):
        raise ValueError("checksum mismatch")
    return json.loads(body.decode("utf-8"))


def _static_loops_to_dict(loops):
    from ..core.static_info import loop_static_to_dict

    return {loop_id: loop_static_to_dict(s) for loop_id, s in loops.items()}


def _static_loops_from_dict(data):
    from ..core.static_info import loop_static_from_dict

    return {loop_id: loop_static_from_dict(entry) for loop_id, entry in data.items()}
