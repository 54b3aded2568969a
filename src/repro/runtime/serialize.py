"""Profile serialization: the JSON form and the binary store payload.

Profiling is the expensive step (an instrumented interpreter run); the
evaluation of Table-II configurations is cheap. Serializing profiles lets a
study run once and be re-analyzed offline — the same reason the paper
separates its compile-time and run-time components.

Two forms, both exact:

* :func:`profile_to_dict` / :func:`profile_from_dict` — the versioned JSON
  form (``FORMAT_VERSION``): a nested tree of invocations, the form
  :func:`save_profile` writes and profiles are compared in.
* :func:`profile_to_bytes` / :func:`profile_from_bytes` — the binary
  payload of a profile-store entry: one JSON header line (names, tables,
  call sites, caller metadata, and each array's name, dtype and length)
  padded to a multiple of 8 bytes, then the profile's columns as raw
  little-endian arrays, each padded to a multiple of 8 bytes. Loading
  checks every length and offset against the payload and the columns
  against each other, and raises ``ValueError`` on any mismatch. Nothing
  but JSON and plain numeric arrays is decoded: loading runs no code. The
  layout is versioned by ``profile_store.PROFILE_CACHE_SCHEMA``.
"""

from __future__ import annotations

import json
import operator

import numpy as np

from ..errors import FrameworkError
from .call_records import CallSiteSummary
from .profile import (
    FAMILIES,
    FIELDS,
    RECORD_COLUMNS,
    ProgramProfile,
    Streams,
)

FORMAT_VERSION = 1


def _invocation_to_dict(invocation):
    return {
        "loop_id": invocation.loop_id,
        "parent_iter": invocation.parent_iter,
        "iter_starts": invocation.iter_starts,
        "end_ts": invocation.end_ts,
        "conflict_pairs": sorted(invocation.conflict_pairs.items()),
        "max_mem_skew": invocation.max_mem_skew,
        "conflict_count": invocation.conflict_count,
        "lcd_values": invocation.lcd_values,
        "lcd_def_offsets": invocation.lcd_def_offsets,
        "lcd_use_offsets": invocation.lcd_use_offsets,
        "exited": invocation.exited,
        "children": [
            _invocation_to_dict(child) for child in invocation.children
        ],
    }


def _call_sites_to_dict(call_sites):
    return {
        site_id: {
            "calls": summary.calls,
            "total_duration": summary.total_duration,
            "total_saving": summary.total_saving,
            "dependent_calls": summary.dependent_calls,
        }
        for site_id, summary in call_sites.items()
    }


def _call_sites_from_dict(data):
    call_sites = {}
    for site_id, entry in data.items():
        summary = CallSiteSummary(site_id)
        summary.calls = entry["calls"]
        summary.total_duration = entry["total_duration"]
        summary.total_saving = entry["total_saving"]
        summary.dependent_calls = entry["dependent_calls"]
        call_sites[site_id] = summary
    return call_sites


def profile_to_dict(profile):
    """Convert a :class:`ProgramProfile` to a JSON-safe dictionary."""
    return {
        "format": FORMAT_VERSION,
        "name": profile.name,
        "total_cost": profile.total_cost,
        "result": profile.result,
        "top_level": [
            _invocation_to_dict(invocation)
            for invocation in profile.top_level
        ],
        "call_sites": _call_sites_to_dict(profile.call_sites),
    }


def _preorder(top_level):
    """``(entries, parents)``: every invocation dict of the JSON form in
    entry order (parents before children), and each one's parent entry
    or -1."""
    entries, parents = [], []
    worklist = [(entry, -1) for entry in reversed(top_level)]
    while worklist:
        entry, parent = worklist.pop()
        index = len(entries)
        entries.append(entry)
        parents.append(parent)
        worklist.extend((child, index)
                        for child in reversed(entry["children"]))
    return entries, parents


def profile_from_dict(data):
    """Rebuild a :class:`ProgramProfile` from :func:`profile_to_dict`
    output."""
    version = data.get("format")
    if version != FORMAT_VERSION:
        raise FrameworkError(
            f"unsupported profile format {version!r} "
            f"(this build reads version {FORMAT_VERSION})"
        )
    entries, parents = _preorder(data["top_level"])
    fields = {field: list(map(operator.itemgetter(field), entries))
              for field in FIELDS}
    fields["conflict_pairs"] = [
        {int(consumer): int(producer) for consumer, producer in pairs}
        for pairs in fields["conflict_pairs"]
    ]
    return ProgramProfile.from_fields(
        data["name"], fields, parents, data["total_cost"], data["result"],
        _call_sites_from_dict(data.get("call_sites", {})),
    )


def save_profile(profile, path):
    """Write a profile to ``path`` as JSON."""
    with open(path, "w") as handle:
        handle.write(json.dumps(profile_to_dict(profile)))


def load_profile(path):
    """Read a profile previously written by :func:`save_profile`."""
    with open(path) as handle:
        return profile_from_dict(json.load(handle))


# -- the binary payload ----------------------------------------------------------

_ALIGN = 8

_STREAM_PARTS = ("rec", "phi", "length", "data")
_STREAM_MASKS = ("is_float", "missing")

#: Payload array name -> little-endian dtype, for the arrays every payload
#: holds. A family's optional masks are stored only when a bit is set.
_REQUIRED = {
    **{column: np.dtype(dtype).newbyteorder("<")
       for column, dtype in RECORD_COLUMNS},
    "starts": np.dtype("<i8"),
    "pair_consumer": np.dtype("<i8"),
    "pair_producer": np.dtype("<i8"),
    **{f"{family}.{part}": np.dtype("<i8")
       for family, _, _ in FAMILIES for part in _STREAM_PARTS},
}
_DTYPES = {
    **_REQUIRED,
    **{f"{family}.{mask}": np.dtype("|b1")
       for family, _, masks in FAMILIES for mask in masks},
}


def _arrays(profile):
    """``(name, array)`` for every payload array of ``profile``."""
    arrays = [(column, getattr(profile, column))
              for column, _ in RECORD_COLUMNS]
    arrays += [("starts", profile.starts),
               ("pair_consumer", profile.pair_consumer),
               ("pair_producer", profile.pair_producer)]
    for family, _, _ in FAMILIES:
        streams = getattr(profile, family)
        for part in _STREAM_PARTS + _STREAM_MASKS:
            array = getattr(streams, part)
            if array is not None:
                arrays.append((f"{family}.{part}", array))
    return arrays


def _padding(size):
    return -size % _ALIGN


def profile_to_bytes(profile, meta=None):
    """The binary payload of ``profile``; ``meta`` (JSON-safe) rides along
    in the header and comes back from :func:`profile_from_bytes`."""
    arrays = [(name, np.ascontiguousarray(array, dtype=_DTYPES[name]))
              for name, array in _arrays(profile)]
    header = json.dumps({
        "name": profile.name,
        "total_cost": profile.total_cost,
        "result": profile.result,
        "call_sites": _call_sites_to_dict(profile.call_sites),
        "loop_table": profile.loop_table,
        "phi_table": profile.phi_table,
        "arrays": [[name, array.dtype.str, len(array)]
                   for name, array in arrays],
        "meta": meta,
    }, sort_keys=True, separators=(",", ":")).encode("utf-8")
    parts = [header, b" " * _padding(len(header) + 1), b"\n"]
    for _, array in arrays:
        data = array.tobytes()
        parts += [data, bytes(_padding(len(data)))]
    return b"".join(parts)


def profile_from_bytes(payload):
    """``(profile, meta)`` from :func:`profile_to_bytes` output; raises
    ``ValueError`` unless every length, offset and index is consistent."""
    end = payload.index(b"\n")
    header = json.loads(payload[:end].decode("utf-8"))
    if not isinstance(header, dict):
        raise ValueError("payload header is not an object")
    offset = end + 1
    if offset % _ALIGN:
        raise ValueError("payload header is not padded")
    arrays = {}
    for name, dtype, length in header["arrays"]:
        expected = _DTYPES.get(name)
        if expected is None or dtype != expected.str or name in arrays:
            raise ValueError(f"unexpected payload array {name!r} {dtype!r}")
        if type(length) is not int or length < 0:
            raise ValueError(f"bad length for payload array {name!r}")
        size = length * expected.itemsize
        if offset + size > len(payload):
            raise ValueError(f"payload array {name!r} overruns the payload")
        array = np.frombuffer(payload, dtype=expected, count=length,
                              offset=offset)
        if expected.kind == "b" and array.view(np.uint8).max(initial=0) > 1:
            raise ValueError(f"payload array {name!r} is not boolean")
        arrays[name] = array
        offset += size + _padding(size)
    if offset != len(payload):
        raise ValueError("payload length does not match its arrays")
    if not _REQUIRED.keys() <= arrays.keys():
        raise ValueError("payload arrays are missing")

    profile = ProgramProfile(header["name"])
    profile.total_cost = header["total_cost"]
    profile.result = header["result"]
    profile.call_sites = _call_sites_from_dict(header["call_sites"])
    profile.loop_table = list(header["loop_table"])
    profile.phi_table = list(header["phi_table"])
    for name in [column for column, _ in RECORD_COLUMNS] + [
            "starts", "pair_consumer", "pair_producer"]:
        setattr(profile, name, arrays[name])
    for family, _, _ in FAMILIES:
        setattr(profile, family, Streams(*(
            arrays.get(f"{family}.{part}")
            for part in _STREAM_PARTS + _STREAM_MASKS)))
    _check(profile)
    return profile, header["meta"]


def _check(profile):
    """Raise ``ValueError`` unless the columns fit each other: the
    evaluator indexes with them and must never see a damaged profile."""
    count = len(profile.loop_of)
    if any(len(getattr(profile, column)) != count
           for column, _ in RECORD_COLUMNS):
        raise ValueError("record columns differ in length")
    records = np.arange(count)
    if not (_within(profile.loop_of, len(profile.loop_table))
            and np.all(profile.n >= 1)
            and np.all(profile.pair_count >= 0)
            and np.all((profile.parent == -1)
                       | ((profile.parent > records)
                          & (profile.parent < count)))):
        raise ValueError("record columns out of range")
    if (int(np.sum(profile.n)) != len(profile.starts)
            or int(np.sum(profile.pair_count)) != len(profile.pair_consumer)
            or len(profile.pair_consumer) != len(profile.pair_producer)):
        raise ValueError("record counts do not match the flat arrays")
    for family, _, _ in FAMILIES:
        streams = getattr(profile, family)
        size = len(streams.rec)
        if (len(streams.phi) != size or len(streams.length) != size
                or not _within(streams.rec, count)
                or not _within(streams.phi, len(profile.phi_table))
                or np.any(streams.length < 0)
                or int(np.sum(streams.length)) != len(streams.data)
                or (streams.is_float is not None
                    and len(streams.is_float) != size)
                or (streams.missing is not None
                    and len(streams.missing) != len(streams.data))
                or len(np.unique(streams.rec * len(profile.phi_table)
                                 + streams.phi)) != size):
            raise ValueError(f"inconsistent {family} streams")


def _within(array, bound):
    return bool(np.all((array >= 0) & (array < bound)))
