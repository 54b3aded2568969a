"""Execution profiles: one program's loop invocations, held as columns.

One profiling run per benchmark records *raw facts*; every Table-II
configuration is then evaluated analytically from the recorded profile (see
DESIGN.md for why this is observationally equivalent to the paper's
per-configuration instrumented runs).

A :class:`ProgramProfile` holds one *record* per dynamic loop invocation,
in record order: the reverse of the order in which the invocations were
entered, so every child precedes its parent. Per record it keeps the loop
(an index into ``loop_table``), the parent record (``-1`` at top level),
the parent iteration, the iteration count ``n``, ``end_ts``, the conflict
count, the largest producer->consumer memory skew and ``exited``. Flat
arrays hold the rest:

* iteration start timestamps (dynamic IR instruction counts), ``n[r]`` per
  record;
* memory-RAW conflict pairs, ``pair_count[r]`` per record, sorted by
  consumer iteration: each consumer iteration with its latest producer
  iteration (for the Partial-DOALL phase simulation and the 80 % rule);
* three :class:`Streams` families per tracked register LCD: the latch
  values (for value-predictor simulation), and per-iteration
  producer-definition and first-use offsets (for HELIX ``dep1``
  lowering).

The recorder keeps one record per invocation while the program runs, and
:meth:`ProgramProfile.from_invocations` flattens them once, when the run
finishes. :attr:`ProgramProfile.top_level` and
:meth:`ProgramProfile.all_invocations` rebuild a tree of
:class:`LoopInvocation` nodes from the columns on every call, as a
read-only view for tests and tools: changing it changes nothing in the
profile, and no evaluation reads it.
"""

from __future__ import annotations

import functools
import itertools
import operator

import numpy as np

from ..errors import FrameworkError


class LoopInvocation:
    """One dynamic execution of a loop (entry to exit): a node of the
    read-only tree view, built by :meth:`ProgramProfile._tree`.

    Iteration boundaries are the header-entry edges, so a loop whose body
    runs N times records N+1 iteration starts: the final header execution
    (the failing exit test) forms a cheap trailing pseudo-iteration. All
    derived quantities (costs, conflicts, LCD indices) use this numbering
    consistently.
    """

    __slots__ = (
        "loop_id", "parent", "parent_iter", "iter_starts", "end_ts",
        "conflict_pairs", "max_mem_skew", "conflict_count",
        "lcd_values", "lcd_def_offsets", "lcd_use_offsets",
        "children", "exited",
    )

    # -- derived quantities -------------------------------------------------------

    @property
    def num_iterations(self):
        return len(self.iter_starts)

    @property
    def serial_cost(self):
        return self.end_ts - self.iter_starts[0]

    def iteration_costs(self):
        """Raw span of each iteration in IR instructions."""
        starts = self.iter_starts
        costs = [
            starts[index + 1] - starts[index]
            for index in range(len(starts) - 1)
        ]
        costs.append(self.end_ts - starts[-1])
        return costs

    def __repr__(self):
        return (
            f"<LoopInvocation {self.loop_id} iters={self.num_iterations} "
            f"conflicts={self.conflict_count}>"
        )


def _int64(values):
    return np.array(values, dtype=np.int64) if len(values) else _EMPTY


def _frozen(array):
    array.flags.writeable = False
    return array


_EMPTY = _frozen(np.zeros(0, dtype=np.int64))


class Streams:
    """One family of register-LCD streams, keyed by (record, phi).

    Stream ``s`` belongs to record ``rec[s]`` and phi ``phi[s]`` (an
    index into the profile's ``phi_table``) and holds ``length[s]``
    elements of ``data``, from ``offsets[s]`` on, in int64. Two optional
    masks keep the Python types: a stream with ``is_float[s]`` set holds
    float64 bit patterns, and an element with ``missing`` set stands for
    ``None``. Either mask is ``None`` when no bit of it is set.
    """

    __slots__ = ("rec", "phi", "length", "data", "is_float", "missing",
                 "offsets")

    def __init__(self, rec, phi, length, data, is_float=None, missing=None):
        self.rec = rec
        self.phi = phi
        self.length = length
        self.data = data
        self.is_float = is_float
        self.missing = missing
        self.offsets = np.cumsum(length) - length

    @classmethod
    def build(cls, rec, phi, streams):
        """The family of the Python lists ``streams``, stream ``s`` keyed
        by ``(rec[s], phi[s])``. Raises :class:`FrameworkError` for a
        value that is not an int, a float or ``None``, or a stream that
        mixes ints and floats."""
        if not streams:
            return _NO_STREAMS
        length = np.fromiter(map(len, streams), dtype=np.int64,
                             count=len(streams))
        flat = list(itertools.chain.from_iterable(streams))
        types = set(map(type, flat))
        if types <= {int}:
            return cls(_int64(rec), _int64(phi), length, _int64(flat))
        if not types <= {int, float, type(None)}:
            raise FrameworkError(
                f"register-LCD values of types {sorted(map(str, types))}")
        count = len(flat)
        missing = np.fromiter(map(operator.is_, flat, itertools.repeat(None)),
                              dtype=bool, count=count)
        floats = np.fromiter(map(isinstance, flat, itertools.repeat(float)),
                             dtype=bool, count=count)
        ends = np.cumsum(length)
        float_count = _segment_sums(floats, ends)
        is_float = float_count > 0
        present = length - _segment_sums(missing, ends)
        if np.any(is_float & (float_count != present)):
            raise FrameworkError(
                "a register-LCD stream mixes int and float values")
        ints = ~(floats | missing)
        data = np.zeros(count, dtype=np.int64)
        data[ints] = _int64(list(itertools.compress(flat, ints.tolist())))
        data[floats] = np.array(
            list(itertools.compress(flat, floats.tolist())),
            dtype=np.float64).view(np.int64)
        return cls(_int64(rec), _int64(phi), length, data,
                   is_float if is_float.any() else None,
                   missing if missing.any() else None)

    def __len__(self):
        return len(self.rec)

    def lists(self):
        """Every stream as a Python list, in stream order."""
        ints = self.data.tolist()
        floats = (self.data.view(np.float64).tolist()
                  if self.is_float is not None else None)
        if self.missing is not None:
            for index in np.flatnonzero(self.missing).tolist():
                ints[index] = None
                if floats is not None:
                    floats[index] = None
        kinds = (self.is_float.tolist() if self.is_float is not None
                 else itertools.repeat(False))
        return [
            (floats if is_float else ints)[low:low + length]
            for low, length, is_float in zip(
                self.offsets.tolist(), self.length.tolist(), kinds)
        ]


#: A family without streams, shared by every profile that has none.
_NO_STREAMS = Streams(_EMPTY, _EMPTY, _EMPTY, _EMPTY)


def _segment_sums(mask, ends):
    """Per-segment counts of a flat mask, segment ``s`` ending at
    ``ends[s]`` (segments may be empty)."""
    total = np.concatenate(([0], np.cumsum(mask, dtype=np.int64)))
    return total[ends] - total[ends - np.diff(ends, prepend=0)]


def _in_order(order, streams):
    """``streams`` (a phi key -> list dict) with its keys in the order of
    ``order``'s, then any others sorted."""
    keys = [key for key in order if key in streams]
    if len(keys) < len(streams):
        keys += sorted(streams.keys() - order.keys())
    if keys == list(streams):
        return streams
    return {key: streams[key] for key in keys}


#: The per-record columns, in payload order, and their dtypes.
RECORD_COLUMNS = (
    ("loop_of", np.int64), ("parent", np.int64), ("parent_iter", np.int64),
    ("n", np.int64), ("end_ts", np.int64), ("conflict_count", np.int64),
    ("max_mem_skew", np.float64), ("exited", np.bool_),
    ("pair_count", np.int64),
)

#: An empty column of each dtype, shared by every profile without records.
_EMPTY_COLUMNS = {dtype: _frozen(np.zeros(0, dtype=dtype))
                  for dtype in (np.int64, np.float64, np.bool_)}

#: The per-invocation fields of a recorder record, a tree node or the JSON
#: form, from which :meth:`ProgramProfile.from_fields` builds the columns.
FIELDS = (
    "loop_id", "parent_iter", "iter_starts", "end_ts", "conflict_pairs",
    "max_mem_skew", "conflict_count", "exited", "lcd_values",
    "lcd_def_offsets", "lcd_use_offsets",
)

#: The register-LCD stream families: attribute name, node field, and the
#: masks the family may carry. Latch values keep their int or float type;
#: a use offset is ``None`` in an iteration without a use; def offsets
#: are plain integer instruction counts.
FAMILIES = (
    ("values", "lcd_values", ("is_float",)),
    ("defs", "lcd_def_offsets", ()),
    ("uses", "lcd_use_offsets", ("missing",)),
)


class ProgramProfile:
    """One program's profile: per-record columns, flat iteration starts
    and conflict pairs, the register-LCD stream families, plus whole-run
    metadata (see the module docstring)."""

    def __init__(self, name="program"):
        self.name = name
        self.total_cost = 0       # dynamic IR instructions of the whole run
        self.result = None        # program exit value
        self.call_sites = {}      # site_id -> CallSiteSummary (call TLS)
        self.loop_table = []      # loop index -> loop id
        self.phi_table = []       # phi index -> phi key
        for column, dtype in RECORD_COLUMNS:
            setattr(self, column, _EMPTY_COLUMNS[dtype])
        self.starts = _EMPTY
        self.pair_consumer = _EMPTY
        self.pair_producer = _EMPTY
        self.values = self.defs = self.uses = _NO_STREAMS

    # -- construction -------------------------------------------------------------

    @classmethod
    def from_invocations(cls, name, invocations, parents, total_cost, result,
                         call_sites):
        """Flatten a recorder's invocation records, each carrying the
        attributes of :data:`FIELDS`, given in entry order with each one's
        parent entry (or -1)."""
        fields = {field: list(map(operator.attrgetter(field), invocations))
                  for field in FIELDS}
        return cls.from_fields(name, fields, parents, total_cost, result,
                               call_sites)

    @classmethod
    def from_fields(cls, name, fields, parents, total_cost, result,
                    call_sites):
        """Build the columns from per-invocation fields in entry order:
        ``fields`` maps each name of :data:`FIELDS` to one value per
        invocation (``conflict_pairs`` as a ``{consumer: producer}`` dict,
        the register-LCD fields as ``{phi key: list}`` dicts), and
        ``parents`` holds each invocation's parent entry, or -1."""
        profile = cls(name)
        profile.total_cost = total_cost
        profile.result = result
        profile.call_sites = call_sites
        # Record order is the reverse of entry order.
        fields = {field: values[::-1] for field, values in fields.items()}
        count = len(parents)
        loop_ids = fields["loop_id"]
        profile.loop_table = list(dict.fromkeys(loop_ids))
        loop_index = {loop_id: index
                      for index, loop_id in enumerate(profile.loop_table)}
        iter_starts = fields["iter_starts"]
        pairs = fields["conflict_pairs"]
        parent = np.array(parents[::-1], dtype=np.int64)
        columns = {
            "loop_of": list(map(loop_index.__getitem__, loop_ids)),
            "parent": np.where(parent >= 0, count - 1 - parent, -1),
            "parent_iter": fields["parent_iter"],
            "n": list(map(len, iter_starts)),
            "end_ts": fields["end_ts"],
            "conflict_count": fields["conflict_count"],
            "max_mem_skew": fields["max_mem_skew"],
            "exited": fields["exited"],
            "pair_count": list(map(len, pairs)),
        }
        for column, dtype in RECORD_COLUMNS:
            setattr(profile, column, np.array(columns[column], dtype=dtype))
        profile.starts = np.fromiter(
            itertools.chain.from_iterable(iter_starts), dtype=np.int64,
            count=int(profile.n.sum()))
        ordered = list(itertools.chain.from_iterable(
            sorted(record_pairs.items()) for record_pairs in pairs
            if record_pairs))
        profile.pair_consumer = _int64([pair[0] for pair in ordered])
        profile.pair_producer = _int64([pair[1] for pair in ordered])
        # Each record's streams in one canonical order, whatever order the
        # recorder first saw each phi in: the order of its value streams
        # (the plan's), then any other phi key sorted.
        for _, field, _ in FAMILIES[1:]:
            fields[field] = list(map(_in_order, fields["lcd_values"],
                                     fields[field]))
        keys = {field: list(itertools.chain.from_iterable(fields[field]))
                for _, field, _ in FAMILIES}
        profile.phi_table = list(dict.fromkeys(
            itertools.chain.from_iterable(keys.values())))
        phi_index = profile.phi_index
        records = np.arange(count)
        for family, field, masks in FAMILIES:
            by_phi = fields[field]
            streams = Streams.build(
                np.repeat(records, list(map(len, by_phi))),
                list(map(phi_index.__getitem__, keys[field])),
                list(itertools.chain.from_iterable(map(dict.values, by_phi))))
            for mask in ("is_float", "missing"):
                if mask not in masks and getattr(streams, mask) is not None:
                    raise FrameworkError(
                        f"unexpected {mask} values in {field}")
            setattr(profile, family, streams)
        return profile

    # -- derived columns ----------------------------------------------------------

    # The columns never change once built, so derived ones are computed
    # once, on first use.

    @functools.cached_property
    def start_offsets(self):
        """Where each record's iteration starts begin in ``starts``."""
        return np.cumsum(self.n) - self.n

    @functools.cached_property
    def pair_offsets(self):
        """Where each record's conflict pairs begin."""
        return np.cumsum(self.pair_count) - self.pair_count

    @functools.cached_property
    def phi_index(self):
        """``{phi key: index into phi_table}``."""
        return {phi_key: index for index, phi_key in enumerate(self.phi_table)}

    def pairs_of(self, record):
        """Record ``record``'s conflict pairs as ``{consumer: producer}``,
        in consumer order."""
        low = int(self.pair_offsets[record])
        high = low + int(self.pair_count[record])
        return dict(zip(self.pair_consumer[low:high].tolist(),
                        self.pair_producer[low:high].tolist()))

    def stream_index(self, family, records, phi_keys):
        """For each ``(record, phi key)`` pair, the index of its stream in
        ``family`` (``values``, ``defs`` or ``uses``), or -1."""
        streams = getattr(self, family)
        if not len(streams):
            return np.full(len(records), -1, dtype=np.int64)
        # Key (record, phi) as one integer; an unknown phi key gets the
        # phi index len(phi_table), which no stream has.
        width = len(self.phi_table) + 1
        keys = streams.rec * width + streams.phi
        order = np.argsort(keys, kind="stable")
        sorted_keys = keys[order]
        wanted = (np.array(records, dtype=np.int64) * width + np.array(
            [self.phi_index.get(phi_key, width - 1) for phi_key in phi_keys],
            dtype=np.int64))
        at = np.minimum(np.searchsorted(sorted_keys, wanted), len(keys) - 1)
        return np.where(sorted_keys[at] == wanted, order[at], -1)

    def lcd_streams(self, family, records, phi_keys):
        """The streams of :meth:`stream_index`, as Python lists; a pair
        without a recorded stream gets an empty list."""
        lists = getattr(self, family).lists()
        return [lists[stream] if stream >= 0 else []
                for stream in self.stream_index(
                    family, records, phi_keys).tolist()]

    def loop_totals(self, weights=None):
        """``{loop_id: total}`` over the records of each loop: the number
        of records, or the sum of the per-record ``weights``."""
        totals = np.bincount(self.loop_of, weights=weights,
                             minlength=len(self.loop_table))
        return dict(zip(self.loop_table, totals.astype(np.int64).tolist()))

    def loop_ids(self):
        """Sorted ids of the loops that were invoked."""
        return sorted(self.loop_table[index]
                      for index in np.unique(self.loop_of).tolist())

    # -- the read-only tree view -----------------------------------------------------

    @property
    def top_level(self):
        """Top-level invocations, in entry order, as a fresh tree of
        :class:`LoopInvocation` nodes built from the columns."""
        return self._tree()

    def all_invocations(self):
        """Every invocation of a fresh tree view, parents before
        children."""
        result = []
        worklist = list(reversed(self._tree()))
        while worklist:
            invocation = worklist.pop()
            result.append(invocation)
            worklist.extend(reversed(invocation.children))
        return result

    def _tree(self):
        starts = self.starts.tolist()
        consumers = self.pair_consumer.tolist()
        producers = self.pair_producer.tolist()
        nodes = []
        columns = zip(
            self.loop_of.tolist(), self.parent_iter.tolist(),
            self.start_offsets.tolist(), self.n.tolist(),
            self.end_ts.tolist(), self.pair_offsets.tolist(),
            self.pair_count.tolist(), self.max_mem_skew.tolist(),
            self.conflict_count.tolist(), self.exited.tolist(),
        )
        for (loop, parent_iter, low, n, end_ts, pair_low, pair_count, skew,
             conflicts, exited) in columns:
            node = LoopInvocation()
            node.loop_id = self.loop_table[loop]
            node.parent = None
            node.parent_iter = parent_iter
            node.iter_starts = starts[low:low + n]
            node.end_ts = end_ts
            node.conflict_pairs = dict(zip(
                consumers[pair_low:pair_low + pair_count],
                producers[pair_low:pair_low + pair_count]))
            node.max_mem_skew = skew
            node.conflict_count = conflicts
            node.lcd_values = {}
            node.lcd_def_offsets = {}
            node.lcd_use_offsets = {}
            node.children = []
            node.exited = exited
            nodes.append(node)
        for family, attribute, _ in FAMILIES:
            streams = getattr(self, family)
            for record, phi, values in zip(streams.rec.tolist(),
                                           streams.phi.tolist(),
                                           streams.lists()):
                getattr(nodes[record], attribute)[self.phi_table[phi]] = values
        top = []
        for record in reversed(range(len(nodes))):
            node = nodes[record]
            parent = int(self.parent[record])
            if parent < 0:
                top.append(node)
            else:
                node.parent = nodes[parent]
                nodes[parent].children.append(node)
        return top

    def __repr__(self):
        return (
            f"<ProgramProfile {self.name}: cost={self.total_cost}, "
            f"{len(self.loop_of)} invocations>"
        )
