"""Per-cell wear counters over one memory space.

A space is a ring of cells: the cell after the last one is cell 0, and
object bodies may span the seam.  The engine keeps one such space per
semispace (two rings for the dual-ring policies, one space for the
single-space baseline).  Counters only ever increase; nothing here
models data contents, timing, or device internals, because wear is
decided purely by how often each cell is touched.

Both access kinds share one difference array (Blelloch 1990, "Prefix
Sums and Their Applications"): a read range adds 1 at its first cell and
subtracts 1 just past its end, and a write range does the same with
2^64, the unit of the trace opcode "W".  The prefix sum up to a cell is
then its reads plus 2^64 times its writes.  That packing is exact, since
no cell takes 2^64 read ranges, so the reads never carry into the
writes; for the same reason a packed delta is 0 only where both kinds'
deltas are 0.  Recording a range costs two O(1) updates, four when it
wraps the seam, whatever its length.  The counts are read only as runs
of equal (reads, writes): a run starts wherever the packed delta is
nonzero.  Finding the runs scans each cell of the given spans, and the
cell just past each, once and in C; everything after that grows with the
number of runs, not of cells.
"""

from __future__ import annotations

from itertools import accumulate, compress, islice, repeat
from operator import and_, rshift, sub

_UNITS = {"R": 1, "W": 1 << 64}  # what a range of each kind adds to its cells
_READS = (1 << 64) - 1  # the bits of a packed count that hold the reads


class CellCounters:
    """Read and write counters for one space of cells.

    One difference array of `size_cells + 1` entries holds both kinds: a
    range adds its kind's unit, 1 for a read and 2^64 for a write, at its
    first cell and subtracts it just past its last, so the running sum up
    to cell c is c's reads plus 2^64 times its writes.  Reads stay below
    2^64 on any trace, so the sum never carries from one kind into the
    other, and a delta is 0 only where neither kind's count changes.  The
    extra entry takes the unit of a range that ends at the last cell.
    `runs` builds fresh lists on each call and leaves the counters as
    they are.
    """

    def __init__(self, size_cells: int):
        if size_cells < 1:
            raise ValueError(f"size_cells must be >= 1, got {size_cells}")
        self.size_cells = size_cells
        self._deltas = [0] * (size_cells + 1)

    def record_range(self, base_cell: int, len_cells: int, kind: str) -> None:
        """Add one access of `kind` to each of `len_cells` cells from `base_cell`.

        `kind` is the access's opcode, "R" or "W".  A range longer than the
        ring would overlap itself, so it is rejected.
        """
        size = self.size_cells
        if not (0 <= base_cell < size and 1 <= len_cells <= size):
            if not 0 <= base_cell < size:
                raise ValueError(f"base_cell {base_cell} outside ring of {size} cells")
            if len_cells < 1:
                raise ValueError(f"len_cells must be >= 1, got {len_cells}")
            raise ValueError(f"range of {len_cells} cells exceeds ring size {size}")
        try:
            unit = _UNITS[kind]
        except KeyError:
            raise ValueError(f"access kind must be 'R' or 'W', got {kind!r}") from None
        deltas = self._deltas
        end = base_cell + len_cells
        deltas[base_cell] += unit
        if end <= size:
            deltas[end] -= unit
        else:  # two pieces: [base_cell, size) and [0, end - size)
            deltas[size] -= unit
            deltas[0] += unit
            deltas[end - size] -= unit

    def runs(self, spans: list[tuple[int, int]]
             ) -> tuple[list[int], list[int], list[int]]:
        """The counts as runs of cells with equal (reads, writes), cell 0 first.

        Returns the runs' lengths, and the reads and the writes of each of
        their cells.  A run starts at cell 0 and wherever the packed delta
        is nonzero, which is where the pair changes, so adjacent runs
        differ; its counts are the running sum of the deltas at the starts,
        split into its low 64 bits and the rest.

        `spans` lists (start, cells) arcs of the ring, in any order, which
        may overlap or wrap the seam, such that every range recorded lies
        inside one of them.  Only the cells of the arcs and the cell just
        past each are read, each once: first those past the seam, where
        every wrapped piece starts, then the rest in address order.
        `[(0, size_cells)]` reads every cell.
        """
        size = self.size_cells
        deltas = self._deltas
        # each arc ends with the cell just past it; of the arcs from one
        # start, which many epochs share, only the farthest end matters
        ends = {}
        for start, cells in spans:
            end = start + cells + 1
            if end > ends.get(start, 0):
                ends[start] = end
        # the cells before `done` are scanned: first those past the seam
        done = max(0, max(ends.values(), default=0) - size)
        starts = list(compress(range(done), deltas[:done]))
        for start in sorted(ends):
            hi = min(ends[start], size)
            if hi > done:  # and hi > start, so the stretch is not empty
                lo = max(start, done)
                starts.extend(compress(range(lo, hi), deltas[lo:hi]))
                done = hi
        if not starts or starts[0]:
            starts.insert(0, 0)
        lengths = list(map(sub, [*islice(starts, 1, None), size], starts))
        counts = list(accumulate(map(deltas.__getitem__, starts)))
        return (lengths,
                list(map(and_, counts, repeat(_READS))),
                list(map(rshift, counts, repeat(64))))
