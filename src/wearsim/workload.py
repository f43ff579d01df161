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
across languages).  Every generated trace passes validate_trace, and
the emitted ``#mem`` header suggests a memory size the trace can replay
in without ever running out, auto-GC included.

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

from wearsim.trace import Trace, TraceEvent, TraceHeader

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
        if self.op_count < 1:
            raise ValueError(f"op_count must be >= 1, got {self.op_count}")
        if self.mean_object_size < 1:
            raise ValueError(
                f"mean_object_size must be >= 1, got {self.mean_object_size}")
        if self.object_count < 1:
            raise ValueError(f"object_count must be >= 1, got {self.object_count}")
        if self.gc_every < 1:
            raise ValueError(f"gc_every must be >= 1, got {self.gc_every}")
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


#: The collection marker; one tuple serves every G of a trace.
GC = ("G",)


class _Generator:
    """One trace's events and footprint, drawn from the spec's seeded stream.

    Each pattern's loop draws inline (see the module docstring) and
    counts the body events left until the next G.
    """

    def __init__(self, spec: WorkloadSpec):
        self.spec = spec
        rng = random.Random(spec.seed)
        self.random = rng.random
        self.getrandbits = rng.getrandbits
        self.events: list[TraceEvent] = []
        self.sizes = [0]  # object id -> size; ids count up from 1
        self.peak_live_cells = 0
        self.max_object_cells = 1

    def allocate(self, count: int) -> int:
        """Allocate objects 1 to `count`, none ever freed; the body events left until a G."""
        getrandbits, append, sizes = self.getrandbits, self.events.append, self.sizes
        gc_every = left = self.spec.gc_every
        n = 2 * self.spec.mean_object_size - 1  # a size is 1 + a draw below n
        k = n.bit_length()
        for object_id in range(1, count + 1):
            size = getrandbits(k)
            while size >= n:
                size = getrandbits(k)
            size += 1
            sizes.append(size)
            append(("A", object_id, size))
            left -= 1
            if not left:
                append(GC)
                left = gc_every
        self.peak_live_cells = sum(sizes)
        self.max_object_cells = max(sizes)
        return left

    def churn(self) -> None:
        spec = self.spec
        random, getrandbits = self.random, self.getrandbits
        append, sizes = self.events.append, self.sizes
        ids: list[int] = []  # the live ids in allocation order, which is ascending
        grow_below = 2 * spec.object_count
        shrink_above = max(1, spec.object_count // 2)
        size_n = 2 * spec.mean_object_size - 1
        size_k = size_n.bit_length()
        live_cells = peak = 0
        max_size = 1
        gc_every = left = spec.gc_every
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
                if size > max_size:
                    max_size = size
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
            left -= 1
            if not left:
                append(GC)
                left = gc_every
        self.peak_live_cells, self.max_object_cells = peak, max_size

    def hotspot(self) -> None:
        spec = self.spec
        allocated = min(spec.object_count, spec.op_count)
        left = self.allocate(allocated)
        hot = sorted(hot_object_ids(spec))
        cold = list(range(len(hot) + 1, allocated + 1))  # hot holds the lowest ids
        hot_pick = (hot, len(hot), len(hot).bit_length())
        cold_pick = (cold, len(cold), len(cold).bit_length())
        random, getrandbits = self.random, self.getrandbits
        append, sizes, gc_every = self.events.append, self.sizes, spec.gc_every
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
            left -= 1
            if not left:
                append(GC)
                left = gc_every

    def loop(self) -> None:
        spec = self.spec
        allocated = min(spec.object_count, spec.op_count)
        left = self.allocate(allocated)
        writes = [("W", object_id, 0, self.sizes[object_id])
                  for object_id in range(1, allocated + 1)]
        append, gc_every = self.events.append, spec.gc_every
        for position in range(spec.op_count - allocated):
            append(writes[position % allocated])
            left -= 1
            if not left:
                append(GC)
                left = gc_every

    def suggested_mem(self) -> int:
        # A ring of twice the peak footprint can never run out: after a
        # collection at most peak_live_cells stay live, leaving room for
        # any single allocation this trace makes.
        ring = 2 * (self.peak_live_cells + self.max_object_cells)
        return max(4, 2 * ring)


def generate(spec: WorkloadSpec) -> Trace:
    """Produce the deterministic trace described by `spec`."""
    gen = _Generator(spec)
    if spec.pattern == "churn":
        gen.churn()
    elif spec.pattern == "hotspot":
        gen.hotspot()
    else:
        gen.loop()
    header = TraceHeader(suggested_mem_size_cells=gen.suggested_mem())
    return Trace(gen.events, header)
