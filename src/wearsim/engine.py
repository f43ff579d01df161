"""Trace replay against wear-counted memory with compacting collection.

Memory is split into equal spaces of wear-counted cells: two rings for
the dual-ring policies, one space of the full memory size for the
single-space baseline.  The work space serves bump allocation and all
reads and writes; a collection copies every object still live, in
ascending order of its current base cell, to consecutive addresses of
the target space starting at the policy's next start location, and the
target becomes the work space.  The target is the next space in turn:
the idle ring with two rings, the work space itself with one, where the
start is always 0.  A single space with no free since its last
collection has no gap, its live objects filling its block from 0 in base
order, so its collection moves and reads nothing and ends its epoch
without a walk of the live set.  The object table holds only the live
set, each object a size and a base cell in the work space: a freed
object leaves the table at once and simply stops being copied, and its
cells are reclaimed at the next collection, not reused before it.

Free space is `start`, the base of the block compacted at the last
collection, and `used`, its cells plus all allocated since.  Events must
pass `validate_trace`, which alone states the rules of the live set.  A
SimulationError names what only replay finds, that the memory cannot hold
the trace: an object larger than a space, or no room after a collection;
`replay` prefixes the failing event's index.

Wear accounting: application reads and writes touch exactly the cells
they name.  A collection moves an object unless it already sits at its
destination in its own space, so with two rings every object moves, and
in a single space the objects before the first gap stay and all after
it slide.  When GC traffic is counted, every moved cell costs one read
at its source and one write at its destination: a collection records one
read range per run of adjacent movers, and one write range, the movers'
cells at the end of the compacted block.  Allocation, freeing, and the
post-collection clean of the old work space touch no cells at all.

An epoch is the run of events between two collections.  Its accesses,
and the reads of the collection that ends it, lie in the `used` cells
from its `start` on its work space, and that collection's writes lie in
the next epoch's.  So the engine keeps each ended epoch's (space, start,
used), and a report reads the counters only in the cells that the epochs
of each space cover: its cost grows with the cells the epochs spanned,
not with the memory.
"""

from __future__ import annotations

from dataclasses import dataclass
from itertools import chain
from operator import attrgetter
from typing import Iterable

from wearsim.memory import CellCounters
from wearsim.metrics import CountingMode, WearReport, summarize
from wearsim.policy import Policy, PolicyState
from wearsim.trace import Trace, TraceEvent


class SimulationError(Exception):
    """The memory cannot hold an event: an object larger than a space, or no
    room after a collection.  `apply` also raises it for an unknown event."""


@dataclass(slots=True)
class ObjectRecord:
    """An object of the live set: its size and its base cell in the work space."""

    size_cells: int
    base_cell: int


#: Largest memory an engine accepts.  Its counters take one 8-byte list
#: slot per cell, so 0.5 GiB at this limit.
MAX_MEM_CELLS = 2 ** 26


@dataclass(frozen=True)
class EngineConfig:
    mem_size_cells: int
    policy: Policy
    count_gc_traffic: bool = True

    def __post_init__(self):
        if type(self.mem_size_cells) is not int:  # a bool or a float is refused too
            raise ValueError(
                f"mem_size_cells must be an int, got {self.mem_size_cells!r}")
        if type(self.policy) is not Policy:
            raise ValueError(f"policy must be a Policy, got {self.policy!r}")
        if type(self.count_gc_traffic) is not bool:
            raise ValueError(
                f"count_gc_traffic must be a bool, got {self.count_gc_traffic!r}")
        if self.mem_size_cells < 4 or self.mem_size_cells % 2:
            raise ValueError(
                f"mem_size_cells must be even and >= 4, got {self.mem_size_cells}")
        if self.mem_size_cells > MAX_MEM_CELLS:
            try:
                need = f"{self.mem_size_cells * 8 / 2 ** 30:.1f}"
            except OverflowError:  # more GiB than a float holds
                need = f"at least {self.mem_size_cells * 8 // 2 ** 30}"
            raise ValueError(
                f"mem_size_cells {self.mem_size_cells} exceeds the limit of "
                f"{MAX_MEM_CELLS} cells: its counters would need {need} GiB")


class Engine:
    """Replays one trace; confine each instance to a single run.

    The counters in `spaces` are written only through the handlers below:
    `build_report` reads them only where the epochs lay.  Each collection
    is kept once, as the `epochs` entry of the epoch it ends.
    """

    def __init__(self, config: EngineConfig):
        self.config = config
        space_count = 2 if config.policy.is_dual_ring else 1
        self.capacity = config.mem_size_cells // space_count
        self.spaces = [CellCounters(self.capacity) for _ in range(space_count)]
        self.policy_state = PolicyState(config.policy, self.capacity)
        self.work_ring = 0
        self.work_space = self.spaces[0]  # the counters of `work_ring`
        self.objects: dict[int, ObjectRecord] = {}
        self.start = 0  # base of the block compacted at the last collection
        self.used = 0   # that block's cells plus every cell allocated since
        self.epochs: list[tuple[int, int, int]] = []  # each ended: (space, start, used)
        self.gapless = True  # no free since the last collection
        self.event_count = 0

    def handle_alloc(self, object_id: int, size_cells: int) -> None:
        if size_cells > self.capacity:
            raise SimulationError(
                f"object {object_id} of {size_cells} cells exceeds capacity "
                f"{self.capacity}")
        if self.used + size_cells > self.capacity:
            self.handle_gc()
            if self.used + size_cells > self.capacity:
                # right after a collection, every used cell is live
                raise SimulationError(
                    f"cannot allocate {size_cells} cells for object {object_id}: "
                    f"{self.used} cells live, {self.capacity - self.used} free")
        self.objects[object_id] = ObjectRecord(
            size_cells, (self.start + self.used) % self.capacity)
        self.used += size_cells

    def handle_free(self, object_id: int) -> None:
        del self.objects[object_id]
        self.gapless = False

    def handle_access(self, object_id: int, offset: int, length: int,
                      kind: str) -> None:
        """Record a read ("R") or write ("W") of part of an object."""
        record = self.objects[object_id]
        self.work_space.record_range(
            (record.base_cell + offset) % self.capacity, length, kind)

    def handle_gc(self) -> None:
        """Compact the live set into the next space from the policy's start,
        recording one write range and one read range per run of adjacent
        source objects that move (see "Wear accounting" above)."""
        source = self.work_ring
        target = (source + 1) % len(self.spaces)
        self.epochs.append((source, self.start, self.used))
        self.start = dest = self.policy_state.take(target)
        if source == target and self.gapless:
            return  # every object already sits at its destination
        live = sorted(self.objects.values(), key=attrgetter("base_cell"))
        capacity = self.capacity
        moving = source != target  # with two rings every object moves
        moved = used = 0
        runs: list[tuple[int, int]] = []  # (base, cells) of each run of adjacent movers
        run_base = run_cells = 0  # the run being extended; no run yet if 0 cells
        end = None  # just past the last run, unwrapped: no later base is past the seam
        for record in live:
            base, size = record.base_cell, record.size_cells
            if moving or base != dest:
                if base == end:
                    run_cells += size
                else:
                    if run_cells:
                        runs.append((run_base, run_cells))
                    run_base, run_cells = base, size
                end = base + size
                moved += size
                record.base_cell = dest
            dest = (dest + size) % capacity
            used += size
        if self.config.count_gc_traffic and moved:
            runs.append((run_base, run_cells))
            for base, cells in runs:
                self.spaces[source].record_range(base, cells, "R")
            # the movers' cells end the compacted block
            self.spaces[target].record_range((dest - moved) % capacity, moved, "W")
        # "clean" the old work space: metadata only, no cell traffic
        self.work_ring = target
        self.work_space = self.spaces[target]
        self.used = used
        self.gapless = True

    def apply(self, events: Iterable[TraceEvent]) -> None:
        """Apply the events, in order, of a trace that passes `validate_trace`.

        Neither an event's shape nor the rules of the live set are checked
        here: a malformed tuple, or an event that breaks one of those rules,
        may raise any exception or be applied as given.  The call counts
        the events it applies and adds that count to `event_count` when it
        returns or raises, so after an exception `event_count` indexes the
        failing event.
        """
        # handlers are bound once per call, so wrappers set on the class
        # before the call see every event
        access, alloc, free, gc = (self.handle_access, self.handle_alloc,
                                   self.handle_free, self.handle_gc)
        count = 0
        try:
            for event in events:
                opcode = event[0]
                if opcode == "R" or opcode == "W":  # most events of most traces
                    access(event[1], event[2], event[3], opcode)
                elif opcode == "A":
                    alloc(event[1], event[2])
                elif opcode == "F":
                    free(event[1])
                elif opcode == "G":
                    gc()
                else:
                    raise SimulationError(f"unknown event {event!r}")
                count += 1
        finally:
            self.event_count += count

    def process(self, event: TraceEvent) -> None:
        """Apply one event, as `apply` does."""
        self.apply((event,))

    def build_report(self, mode: CountingMode = CountingMode.ACCESSES) -> WearReport:
        spans: list[list[tuple[int, int]]] = [[] for _ in self.spaces]
        for space, start, used in [*self.epochs, (self.work_ring, self.start, self.used)]:
            spans[space].append((start, used))
        # space r's cell c is at address r * capacity + c, so the report's
        # runs are each space's runs in turn
        lengths, reads, writes = (list(chain.from_iterable(column)) for column
                                  in zip(*(space.runs(arcs) for space, arcs
                                           in zip(self.spaces, spans))))
        return WearReport(
            policy=self.config.policy.spec_string(),
            mem_size_cells=self.config.mem_size_cells,
            counting_mode=mode,
            count_gc_traffic=self.config.count_gc_traffic,
            gc_count=len(self.epochs),
            event_count=self.event_count,
            run_lengths=lengths,
            run_reads=reads,
            run_writes=writes,
            summary=summarize(lengths, reads, writes, mode),
        )


def replay(trace: Trace, config: EngineConfig,
           mode: CountingMode = CountingMode.ACCESSES) -> WearReport:
    """Replay a full trace and return its wear report.

    Deterministic: the same trace and config always produce an
    identical report.  The trace must pass `validate_trace`, the one
    gate on hand-built traces, as `Engine.apply` requires; a
    SimulationError then means the memory cannot hold the trace.
    """
    engine = Engine(config)
    try:
        engine.apply(trace.events)
    except SimulationError as err:
        # event_count counts the events applied, so it indexes the failing one
        raise SimulationError(f"event {engine.event_count}: {err}") from err
    return engine.build_report(mode)
