"""Seeded synthetic trace generators.

Three access patterns cover the behaviors worth leveling:

* ``churn``   - steady allocation and freeing with uniform reads and
  writes over whatever is live.
* ``hotspot`` - a fixed object population where a small hot subset
  receives 90% of all reads and writes.
* ``loop``    - a small fixed set of objects written over and over in a
  cycle, the classic repeated-working-set worst case.

Generation is a pure function of the spec: the same WorkloadSpec always
yields an identical trace (Python's Mersenne Twister seeded from
spec.seed; determinism is promised within this implementation, not
across languages).  Each pattern draws its body, the trace without its
collections, and returns it with its object sizes and its peak live
cells.  generate then places a G after every gc_every-th body event and
derives the ``#mem`` header from the peak and the largest object: a
memory size the trace can replay in without ever running out, auto-GC
included.  Every generated trace passes validate_trace.

The stream is read through random() and getrandbits() alone.  A draw
below n is getrandbits(n.bit_length()), drawn again while it is n or
more: the rule by which CPython 3.10 to 3.13 serve randrange(n),
randint(a, b) (a plus a draw below b - a + 1) and choice(seq) (the
item at a draw below len(seq)).  A draw below 1 still reads the stream
until it yields 0.  So a trace is byte-identical on each of those
versions, as tests/test_workload.py pins.
"""

from __future__ import annotations

import math
import random
from dataclasses import dataclass
from fractions import Fraction
from itertools import cycle, islice

from wearsim.trace import GC, Trace, TraceEvent, TraceHeader

PATTERNS = ("churn", "hotspot", "loop")

#: Share of hotspot reads/writes aimed at the hot object set.
HOT_ACCESS_SHARE = 0.9


@dataclass(frozen=True)
class WorkloadSpec:
    pattern: str
    object_count: int
    op_count: int
    mean_object_size: int = 8
    hot_fraction: float = 0.1  # hotspot only
    gc_every: int = 100
    seed: int = 0

    def __post_init__(self):
        if self.pattern not in PATTERNS:
            raise ValueError(f"pattern must be one of {PATTERNS}, got '{self.pattern}'")
        for name in ("object_count", "op_count", "mean_object_size", "gc_every"):
            value = getattr(self, name)
            if type(value) is not int:  # a bool or a float is refused too
                raise ValueError(f"{name} must be an int, got {value!r}")
        for name in ("op_count", "mean_object_size", "object_count", "gc_every"):
            value = getattr(self, name)
            if value < 1:
                raise ValueError(f"{name} must be >= 1, got {value}")
        if self.pattern == "hotspot" and not 0.0 < self.hot_fraction <= 1.0:
            raise ValueError(f"hot_fraction must be in (0, 1], got {self.hot_fraction}")


def hot_object_ids(spec: WorkloadSpec) -> frozenset[int]:
    """Ids of the objects that receive the bulk of hotspot accesses.

    Objects are numbered in allocation order, and hotspot allocates the
    first min(object_count, op_count) of them.  The hot set is the
    lowest-numbered ceil(hot_fraction * object_count) of those, at least
    one and at most all.  The product is a float's, as long as a float
    holds object_count.
    """
    try:
        count = math.ceil(spec.hot_fraction * spec.object_count)
    except OverflowError:  # more objects than a float holds
        count = math.ceil(Fraction(spec.hot_fraction) * spec.object_count)
    count = min(spec.object_count, spec.op_count, max(1, count))
    return frozenset(range(1, count + 1))


def _sizes(getrandbits, count: int, mean: int) -> list[int]:
    """Sizes of objects 1 to `count`, each 1 plus a draw below 2 * mean - 1,
    indexed by object id: a 0 in front."""
    n = 2 * mean - 1
    k = n.bit_length()
    sizes = [0]
    for _ in range(count):
        size = getrandbits(k)
        while size >= n:
            size = getrandbits(k)
        sizes.append(size + 1)
    return sizes


def _churn(spec: WorkloadSpec, random, getrandbits):
    body: list[TraceEvent] = []
    append, sizes = body.append, [0]
    ids: list[int] = []  # the live ids in allocation order, which is ascending
    grow_below = 2 * spec.object_count
    shrink_above = max(1, spec.object_count // 2)
    size_n = 2 * spec.mean_object_size - 1
    size_k = size_n.bit_length()
    live_cells = peak = 0
    for _ in range(spec.op_count):
        roll = random()
        live = len(ids)
        if not live or (roll < 0.15 and live < grow_below):
            size = getrandbits(size_k)
            while size >= size_n:
                size = getrandbits(size_k)
            size += 1
            object_id = len(sizes)
            sizes.append(size)
            ids.append(object_id)
            live_cells += size
            if live_cells > peak:
                peak = live_cells
            append(("A", object_id, size))
        else:
            k = live.bit_length()
            i = getrandbits(k)
            while i >= live:
                i = getrandbits(k)
            object_id = ids[i]
            if roll < 0.30 and live > shrink_above:
                del ids[i]
                live_cells -= sizes[object_id]
                append(("F", object_id))
            else:
                size = sizes[object_id]
                k = size.bit_length()
                offset = getrandbits(k)
                while offset >= size:
                    offset = getrandbits(k)
                n = size - offset
                k = n.bit_length()
                length = getrandbits(k)
                while length >= n:
                    length = getrandbits(k)
                append(("W" if random() < 0.5 else "R", object_id, offset, length + 1))
    return body, sizes, peak


def _hotspot(spec: WorkloadSpec, random, getrandbits):
    allocated = min(spec.object_count, spec.op_count)
    sizes = _sizes(getrandbits, allocated, spec.mean_object_size)
    body: list[TraceEvent] = [("A", object_id, size)
                              for object_id, size in enumerate(sizes[1:], 1)]
    hot = sorted(hot_object_ids(spec))
    cold = list(range(len(hot) + 1, allocated + 1))  # hot holds the lowest ids
    hot_pick = (hot, len(hot), len(hot).bit_length())
    cold_pick = (cold, len(cold), len(cold).bit_length())
    append = body.append
    for _ in range(spec.op_count - allocated):
        pool, n, k = cold_pick if cold and random() >= HOT_ACCESS_SHARE else hot_pick
        i = getrandbits(k)
        while i >= n:
            i = getrandbits(k)
        object_id = pool[i]
        size = sizes[object_id]
        k = size.bit_length()
        offset = getrandbits(k)
        while offset >= size:
            offset = getrandbits(k)
        n = size - offset
        k = n.bit_length()
        length = getrandbits(k)
        while length >= n:
            length = getrandbits(k)
        append(("W" if random() < 0.5 else "R", object_id, offset, length + 1))
    return body, sizes, sum(sizes)


def _loop(spec: WorkloadSpec, random, getrandbits):
    allocated = min(spec.object_count, spec.op_count)
    sizes = _sizes(getrandbits, allocated, spec.mean_object_size)
    body: list[TraceEvent] = [("A", object_id, size)
                              for object_id, size in enumerate(sizes[1:], 1)]
    writes = [("W", object_id, 0, size) for object_id, size in enumerate(sizes[1:], 1)]
    body += islice(cycle(writes), spec.op_count - allocated)
    return body, sizes, sum(sizes)


def generate(spec: WorkloadSpec) -> Trace:
    """Produce the deterministic trace described by `spec`."""
    rng = random.Random(spec.seed)
    pattern = {"churn": _churn, "hotspot": _hotspot, "loop": _loop}[spec.pattern]
    body, sizes, peak = pattern(spec, rng.random, rng.getrandbits)
    every = spec.gc_every
    events: list[TraceEvent] = []
    end = 0
    for end in range(every, len(body) + 1, every):
        events += body[end - every:end]
        events.append(GC)
    events += body[end:]
    # A ring of twice the peak footprint can never run out: after a
    # collection at most `peak` cells stay live, leaving room for any
    # single allocation this trace makes.  #mem holds two such rings.
    header = TraceHeader(suggested_mem_size_cells=max(4, 4 * (peak + max(sizes))))
    return Trace(events, header)
