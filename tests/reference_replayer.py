"""Naive reference replayer used as the oracle for engine tests.

Same contracts as wearsim.engine.replay, written the slow way on
purpose: free space and allocation positions are recomputed from
scratch at every event instead of being tracked with cursors, counters
live in plain dicts, and the deterministic policies derive each start
location in closed form (k * shift mod N) rather than by stateful
accumulation, and the golden shift is found by integer bisection where
the engine uses isqrt.  The two implementations share nothing but the
trace format (an event is the tuple of its line's fields), so
cell-for-cell agreement is meaningful evidence.
"""

from __future__ import annotations

import random
from dataclasses import dataclass, field

from wearsim.trace import Trace


@dataclass
class ReferenceResult:
    reads: list[int]
    writes: list[int]
    gc_count: int
    gc_live_sizes: list[int] = field(default_factory=list)
    gc_moved_cells: list[int] = field(default_factory=list)


def app_rw_cells(trace: Trace) -> int:
    """Total cells named by the trace's read and write events."""
    return sum(e[3] for e in trace.events if e[0] in ("R", "W"))


def bisected_golden_shift(capacity: int) -> int:
    """floor(capacity * (3 - sqrt(5)) / 2), found by integer bisection.

    That floor is the largest s in [0, capacity) with
    (3 * capacity - 2 * s) ** 2 > 5 * capacity ** 2; the test holds at
    s = 0, fails at s = capacity, and turns false only once.
    """
    low, high = 0, capacity
    while high - low > 1:
        mid = (low + high) // 2
        if (3 * capacity - 2 * mid) ** 2 > 5 * capacity * capacity:
            low = mid
        else:
            high = mid
    return low


def reference_replay(trace: Trace, mem_size: int, policy_spec: str,
                     count_gc_traffic: bool = True) -> ReferenceResult:
    kind, _, arg = policy_spec.partition(":")
    single = kind == "single"
    capacity = mem_size if single else mem_size // 2
    spaces = 1 if single else 2

    reads = [{} for _ in range(spaces)]
    writes = [{} for _ in range(spaces)]
    objects: dict[int, dict] = {}
    work = 0
    anchor_start = 0
    anchor_live = 0
    allocs_since_gc: list[int] = []
    space_gc_counts = [0, 0]
    next_random = [0, 0]
    rng = random.Random(int(arg)) if kind == "random" else None

    gc_count = 0
    gc_live_sizes: list[int] = []
    gc_moved: list[int] = []

    def shift() -> int:
        if kind == "golden":
            return bisected_golden_shift(capacity)
        if kind == "quarter":
            return capacity // 4
        if kind == "fraction":
            return int(capacity * float(arg))
        return 0  # none

    def start_for(space: int) -> int:
        if kind == "random":
            location = next_random[space]
            next_random[space] = rng.randrange(capacity)
            return location
        return (space_gc_counts[space] * shift()) % capacity

    def record(table, space: int, base: int, length: int) -> None:
        counters = table[space]
        for i in range(length):
            cell = (base + i) % capacity
            counters[cell] = counters.get(cell, 0) + 1

    def run_gc() -> None:
        nonlocal work, anchor_start, anchor_live, gc_count, allocs_since_gc
        live = sorted((rec for rec in objects.values() if rec["live"]),
                      key=lambda rec: rec["base"])
        target = 0 if single else 1 - work
        start = 0 if single else start_for(target)
        dest = start
        moved = 0
        for rec in live:
            if not (single and rec["base"] == dest):
                moved += rec["size"]
                if count_gc_traffic:
                    record(reads, rec["ring"], rec["base"], rec["size"])
                    record(writes, target, dest, rec["size"])
            rec["ring"] = target
            rec["base"] = dest
            dest = (dest + rec["size"]) % capacity
        for object_id in [k for k, rec in objects.items() if not rec["live"]]:
            del objects[object_id]
        anchor_start = start
        anchor_live = sum(rec["size"] for rec in live)
        allocs_since_gc = []
        if not single:
            space_gc_counts[target] += 1
            work = target
        gc_count += 1
        gc_live_sizes.append(anchor_live)
        gc_moved.append(moved)

    def free_now() -> int:
        return capacity - anchor_live - sum(allocs_since_gc)

    for event in trace.events:
        opcode = event[0]
        if opcode == "A":
            _, object_id, size = event
            if size > capacity:
                raise ValueError("object too large")
            if size > free_now():
                run_gc()
                if size > free_now():
                    raise ValueError("out of memory")
            base = (anchor_start + anchor_live + sum(allocs_since_gc)) % capacity
            objects[object_id] = {
                "size": size, "ring": work, "base": base, "live": True}
            allocs_since_gc.append(size)
        elif opcode == "F":
            objects[event[1]]["live"] = False
        elif opcode in ("R", "W"):
            _, object_id, offset, length = event
            rec = objects[object_id]
            table = reads if opcode == "R" else writes
            record(table, rec["ring"], (rec["base"] + offset) % capacity, length)
        elif opcode == "G":
            run_gc()

    def as_list(table) -> list[int]:
        out: list[int] = []
        for space in range(spaces):
            out.extend(table[space].get(cell, 0) for cell in range(capacity))
        return out

    return ReferenceResult(as_list(reads), as_list(writes), gc_count,
                           gc_live_sizes, gc_moved)
