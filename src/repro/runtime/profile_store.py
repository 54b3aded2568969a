"""Persistent caches — profile once, evaluate everywhere.

Profiling is the expensive stage of the pipeline (an instrumented
interpreter run over millions of dynamic IR instructions); evaluation is
cheap and purely analytical. :class:`ProfileStore` gives the expensive
stage a versioned, content-addressed on-disk home, so warm starts of the
suite runner, ``repro figures`` and pytest skip re-profiling entirely;
:class:`CodeCache` does the same for the JIT's generated sources. Both
share one entry format, one read path, one atomic :func:`publish`, one
set of maintenance calls and one counter type (:class:`StoreStats`).

An entry is one file ``<key>.entry``, where every key is a sha256 digest
(64 lowercase hex digits), holding exactly one ASCII head line,
``repro-entry <schema> <key> <sha256 of the payload>\n``, followed by the
payload bytes. A load checks the head line for its own schema and key and
verifies the checksum before it decodes anything. Anything else
(truncation, any edit of the payload, an entry copied under another
key's name, schema drift, a payload that does not decode) is corruption:
the entry is counted, deleted and reported as a miss, and the caller's
recompute rewrites it.

A profile entry's payload is the binary form of
:func:`~repro.runtime.serialize.profile_to_bytes` — a JSON header line,
which also carries the program's static loop records and output, then
the profile's columns as raw little-endian arrays — so a load rebuilds
the columnar profile without creating a Python object per invocation.
Its lengths and offsets are checked when it loads, so a damaged payload
that slips past the checksum is a corrupt miss too, never an error deep
in the evaluator. A code-cache entry's payload is the UTF-8 source.

A profile entry is keyed by ``sha256(cache_schema | profile_format |
instrumentation_version | fuel | inline | transform | source)``. Bump
:data:`PROFILE_CACHE_SCHEMA` whenever the payload layout changes; the
other two versions live with the code they describe
(``serialize.FORMAT_VERSION``, ``core.instrument.INSTRUMENTATION_VERSION``).
Code-cache keys come from :func:`repro.interp.codegen.jit_cache_key`.

``REPRO_CACHE_DIR`` places both stores: profiles directly under it, code
under ``<REPRO_CACHE_DIR>/code``. Unset, they live in
``~/.cache/repro/profiles`` and ``~/.cache/repro/code``. A store counts,
clears and evicts only files named like entries, so other files in the
directory are left alone; ``info`` also counts, and ``clear`` also
removes, the entries of the earlier JSON layout (``<key>.json``).
:func:`default_store` and :func:`default_code_cache` read the variable on
every call.
"""

from __future__ import annotations

import hashlib
import os
import pathlib
import re
import tempfile

from .serialize import FORMAT_VERSION, profile_from_bytes, profile_to_bytes

#: Version of the on-disk profile payload layout (not of the profile format
#: itself — that is ``serialize.FORMAT_VERSION``). It is part of the key, so
#: bumping it makes every existing entry a plain miss.
PROFILE_CACHE_SCHEMA = 2

#: Version of the code-cache entry layout. The *content* of cached sources
#: is versioned by ``repro.interp.codegen.CODEGEN_VERSION`` (part of the
#: key); a schema change therefore reads as corruption, once per entry.
CODE_CACHE_SCHEMA = 3

#: Default entry cap for the on-disk code cache (oldest-access eviction).
#: Sized so a full bundled-suite sweep (48 programs x 2 variants x a few
#: tiers) fits with headroom; long-lived fuzzing hosts stay bounded.
CODE_CACHE_CAP_DEFAULT = 1024


def default_cache_root():
    """The profile-store directory: ``REPRO_CACHE_DIR`` when set, else
    ``~/.cache/repro/profiles``."""
    override = os.environ.get("REPRO_CACHE_DIR")
    if override:
        return pathlib.Path(override)
    return pathlib.Path.home() / ".cache" / "repro" / "profiles"


def default_code_cache_root():
    """The code-cache directory: ``<REPRO_CACHE_DIR>/code`` when set, else
    ``~/.cache/repro/code`` (a sibling of the profile store)."""
    override = os.environ.get("REPRO_CACHE_DIR")
    if override:
        return pathlib.Path(override) / "code"
    return pathlib.Path.home() / ".cache" / "repro" / "code"


def publish(path, data):
    """Atomically replace ``path`` with ``data`` (bytes, or text written
    as UTF-8).

    The data goes to a temporary file in the same directory, which is then
    renamed over ``path``: processes sharing a directory see the old file
    or the new one, never a partial one. The temporary file is removed if
    anything fails. Its name ends in ``.tmp``, so it never matches the
    entry names of the stores or the ``*.json`` glob of the fuzz corpus.
    """
    if isinstance(data, str):
        data = data.encode("utf-8")
    path = pathlib.Path(path)
    path.parent.mkdir(parents=True, exist_ok=True)
    fd, tmp_name = tempfile.mkstemp(
        dir=path.parent, prefix=f".{path.name}.", suffix=".tmp"
    )
    try:
        with os.fdopen(fd, "wb") as handle:
            handle.write(data)
        os.replace(tmp_name, path)
    except BaseException:
        try:
            os.unlink(tmp_name)
        except OSError:
            pass
        raise


class StoreStats:
    """Hit/miss/corruption counters for one store."""

    __slots__ = ("hits", "misses", "stores", "corrupt", "errors")

    def __init__(self):
        self.hits = 0
        self.misses = 0
        self.stores = 0
        self.corrupt = 0
        self.errors = 0

    def as_dict(self):
        return {name: getattr(self, name) for name in self.__slots__}

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


#: The file name of an entry: its key, a sha256 hex digest, plus ``.entry``.
_ENTRY_NAME = re.compile(r"[0-9a-f]{64}\.entry")

#: The file name of an entry in the earlier JSON layout.
_LEGACY_NAME = re.compile(r"[0-9a-f]{64}\.json")


class _Store:
    """A directory of ``<key>.entry`` entries in the shared format.

    IO failures count as misses/errors and never propagate: a broken cache
    must never break a run.
    """

    def __init__(self, root, schema):
        self.root = pathlib.Path(root)
        self.schema = schema
        self.stats = StoreStats()

    def _path_for(self, key):
        """The entry path of ``key``; raises ``ValueError`` unless the key
        is a sha256 hex digest, so every entry is one :meth:`entries`
        sees."""
        name = f"{key}.entry"
        if not _ENTRY_NAME.fullmatch(name):
            raise ValueError(f"not a store key: {key!r}")
        return self.root / name

    def _read(self, key, decode):
        """``decode(payload)`` of ``key``'s entry, or ``None`` on a miss.

        A missing file is a plain miss. Any layout, checksum, decode or
        payload-field failure counts as corrupt (and as a miss), and the
        entry is deleted so the caller's recompute rewrites it.
        """
        path = self._path_for(key)
        try:
            data = path.read_bytes()
        except OSError:
            self.stats.misses += 1
            return None
        try:
            value = decode(_entry_payload(data, self.schema, key))
        except Exception:
            self.stats.corrupt += 1
            self.stats.misses += 1
            try:
                path.unlink()
            except OSError:
                pass
            return None
        self.stats.hits += 1
        return value

    def _write(self, key, payload):
        """Publish the ``payload`` bytes as ``key``'s entry; returns False,
        counting an error, if the write fails."""
        path = self._path_for(key)
        checksum = hashlib.sha256(payload).hexdigest()
        try:
            publish(path, _entry_head(self.schema, key, checksum) + payload)
        except Exception:
            self.stats.errors += 1
            return False
        self.stats.stores += 1
        return True

    # -- maintenance -----------------------------------------------------------

    def entries(self):
        """Paths of all entries currently on disk: the files named
        ``<64 lowercase hex digits>.entry``, and nothing else."""
        return self._named(_ENTRY_NAME)

    def _named(self, pattern):
        try:
            return sorted(path for path in self.root.iterdir()
                          if pattern.fullmatch(path.name))
        except OSError:
            return []

    def earlier_entries(self):
        """Paths of the entries the earlier JSON layout left, the files
        named ``<64 lowercase hex digits>.json``: never read, but counted
        by :meth:`info` and deleted by :meth:`clear`."""
        return self._named(_LEGACY_NAME)

    def clear(self):
        """Delete every entry, and every entry of the earlier JSON layout;
        returns the number removed."""
        removed = 0
        for path in self.entries() + self.earlier_entries():
            try:
                path.unlink()
                removed += 1
            except OSError:
                pass
        return removed

    def info(self):
        """On-disk state plus this process's counters, for ``repro cache``
        and run manifests. ``entries`` plus ``earlier_entries`` is what
        :meth:`clear` would remove, and ``size_bytes`` their size."""
        entries = self.entries()
        earlier = self.earlier_entries()
        size = 0
        for path in entries + earlier:
            try:
                size += path.stat().st_size
            except OSError:
                pass
        return {
            "root": str(self.root),
            "entries": len(entries),
            "earlier_entries": len(earlier),
            "size_bytes": size,
            "schema": self.schema,
            **self.stats.as_dict(),
        }

    def __repr__(self):
        return f"<{type(self).__name__} {self.root} ({len(self.entries())} entries)>"


class CachedRun:
    """What a warm start gets back: the profile plus everything else the
    framework would have learned by running the program."""

    __slots__ = ("profile", "static_loops", "output")

    def __init__(self, profile, static_loops, output):
        self.profile = profile
        self.static_loops = static_loops
        self.output = output


def _cached_run(payload):
    from ..core.static_info import loop_static_from_dict

    profile, meta = profile_from_bytes(payload)
    static_loops = {loop_id: loop_static_from_dict(entry)
                    for loop_id, entry in meta["static_loops"].items()}
    return CachedRun(profile, static_loops, list(meta["output"]))


class ProfileStore(_Store):
    """Content-addressed on-disk store for execution profiles."""

    def __init__(self, root=None, schema=None):
        super().__init__(
            root if root is not None else default_cache_root(),
            PROFILE_CACHE_SCHEMA if schema is None else schema,
        )

    def cache_key(self, source, fuel, inline=False, transform=False):
        """Content hash identifying one (program, profiling setup) pair.

        ``transform`` is the structural-transform pipeline flag: the same
        source profiled with and without fission/peel/fusion yields
        different loop populations, so the entries must never collide.
        """
        from ..core.instrument import INSTRUMENTATION_VERSION

        tag = (
            f"{self.schema}|{FORMAT_VERSION}|{INSTRUMENTATION_VERSION}"
            f"|{fuel}|{int(bool(inline))}|{int(bool(transform))}|"
        )
        digest = hashlib.sha256()
        digest.update(tag.encode("utf-8"))
        digest.update(source.encode("utf-8"))
        return digest.hexdigest()

    def load(self, source, fuel, inline=False, transform=False):
        """Return a :class:`CachedRun` on a hit, else ``None``."""
        return self._read(self.cache_key(source, fuel, inline, transform),
                          _cached_run)

    def store(self, source, fuel, profile, static_info, output, inline=False,
              transform=False):
        """Persist one profiling run. Write failures are swallowed (and
        counted): caching is an optimization, never a correctness
        dependency."""
        from ..core.static_info import loop_static_to_dict

        payload = profile_to_bytes(profile, meta={
            "static_loops": {loop_id: loop_static_to_dict(s)
                             for loop_id, s in static_info.loops.items()},
            "output": list(output),
        })
        return self._write(self.cache_key(source, fuel, inline, transform),
                           payload)


def _source(payload):
    return payload.decode("utf-8")


class CodeCache(_Store):
    """Content-addressed on-disk store for JIT-generated Python sources.

    Keys come from :func:`repro.interp.codegen.jit_cache_key` (IR text +
    plan + codegen version), so a warm sweep skips source generation
    entirely and goes straight to ``compile()``. The payload is the source
    in UTF-8. The store holds at most ``cap`` entries, evicting the
    least recently used (by file mtime, refreshed on every hit).
    """

    def __init__(self, root=None, schema=None, cap=None):
        super().__init__(
            root if root is not None else default_code_cache_root(),
            CODE_CACHE_SCHEMA if schema is None else schema,
        )
        self.cap = CODE_CACHE_CAP_DEFAULT if cap is None else cap
        self.evictions = 0

    def load(self, key):
        """The cached source for ``key``, or ``None``."""
        source = self._read(key, _source)
        if source is not None:
            try:
                os.utime(self._path_for(key))  # LRU touch
            except OSError:
                pass
        return source

    def store(self, key, source):
        """Persist one generated source, then evict down to the cap."""
        stored = self._write(key, source.encode("utf-8"))
        if stored:
            self._evict_to_cap()
        return stored

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

    def info(self):
        return {**super().info(), "cap": self.cap, "evictions": self.evictions}


#: One store per (class, root), so every caller that asks for the default
#: store of the current ``REPRO_CACHE_DIR`` shares its counters.
_DEFAULTS = {}


def _default(cls, root):
    store = _DEFAULTS.get((cls, root))
    if store is None:
        store = _DEFAULTS[(cls, root)] = cls(root)
    return store


def default_store():
    """The shared profile store at :func:`default_cache_root`, as the
    environment reads now."""
    return _default(ProfileStore, default_cache_root())


def default_code_cache():
    """The shared code cache at :func:`default_code_cache_root`, as the
    environment reads now."""
    return _default(CodeCache, default_code_cache_root())


# -- entry layout: one ASCII head line, then the payload bytes --------------------


def _entry_head(schema, key, checksum):
    return f"repro-entry {schema} {key} {checksum}\n".encode("ascii")


def _entry_payload(data, schema, key):
    """The payload of entry bytes ``data`` for ``key``; raises
    ``ValueError`` unless ``data`` has the exact layout, with a checksum
    that matches the payload bytes."""
    end = data.find(b"\n", 0, len(_entry_head(schema, key, "0" * 64)))
    if end < 0:
        raise ValueError("no entry head line")
    # A fresh bytes object: the payload's padded arrays stay aligned.
    payload = data[end + 1:]
    checksum = hashlib.sha256(payload).hexdigest()
    if data[:end + 1] != _entry_head(schema, key, checksum):
        raise ValueError("not an intact entry for this key and schema")
    return payload
