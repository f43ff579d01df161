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


class _Generator:
    def __init__(self, spec: WorkloadSpec):
        self.spec = spec
        self.rng = random.Random(spec.seed)
        self.events: list[TraceEvent] = []
        self.live: dict[int, int] = {}
        self.live_cells = 0
        self.peak_live_cells = 0
        self.max_object_cells = 1
        self.next_id = 1
        self.body_count = 0

    def emit(self, event: TraceEvent) -> None:
        self.events.append(event)
        self.body_count += 1
        if self.body_count % self.spec.gc_every == 0:
            self.events.append(("G",))

    def alloc(self) -> int:
        object_id = self.next_id
        self.next_id += 1
        size = self.rng.randint(1, 2 * self.spec.mean_object_size - 1)
        self.live[object_id] = size
        self.live_cells += size
        self.peak_live_cells = max(self.peak_live_cells, self.live_cells)
        self.max_object_cells = max(self.max_object_cells, size)
        self.emit(("A", object_id, size))
        return object_id

    def free(self, object_id: int) -> None:
        self.live_cells -= self.live.pop(object_id)
        self.emit(("F", object_id))

    def access(self, object_id: int) -> None:
        size = self.live[object_id]
        offset = self.rng.randrange(size)
        length = self.rng.randint(1, size - offset)
        opcode = "W" if self.rng.random() < 0.5 else "R"
        self.emit((opcode, object_id, offset, length))

    def pick_live(self) -> int:
        return self.rng.choice(list(self.live))

    def churn(self) -> None:
        target = self.spec.object_count
        while self.body_count < self.spec.op_count:
            roll = self.rng.random()
            if not self.live or (roll < 0.15 and len(self.live) < 2 * target):
                self.alloc()
            elif roll < 0.30 and len(self.live) > max(1, target // 2):
                self.free(self.pick_live())
            else:
                self.access(self.pick_live())

    def hotspot(self) -> None:
        for _ in range(min(self.spec.object_count, self.spec.op_count)):
            self.alloc()
        hot = sorted(hot_object_ids(self.spec))
        cold = sorted(self.live.keys() - set(hot))
        while self.body_count < self.spec.op_count:
            if cold and self.rng.random() >= HOT_ACCESS_SHARE:
                self.access(self.rng.choice(cold))
            else:
                self.access(self.rng.choice(hot))

    def loop(self) -> None:
        ids = [self.alloc()
               for _ in range(min(self.spec.object_count, self.spec.op_count))]
        position = 0
        while self.body_count < self.spec.op_count:
            object_id = ids[position % len(ids)]
            self.emit(("W", object_id, 0, self.live[object_id]))
            position += 1

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
