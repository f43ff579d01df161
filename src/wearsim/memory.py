"""Per-cell wear counters over one memory space.

A space is a ring of cells: the cell after the last one is cell 0, and
object bodies may span the seam.  The engine keeps one such space per
semispace (two rings for the dual-ring policies, one space for the
single-space baseline).  Counters only ever increase; nothing here
models data contents, timing, or device internals, because wear is
decided purely by how often each cell is touched.

Each access kind is kept as a difference array (Blelloch 1990, "Prefix
Sums and Their Applications"): recording a range costs two O(1) updates,
four when it wraps the seam, whatever its length.  The per-cell counts
are the prefix sum of that array, built afresh each time they are read.
"""

from __future__ import annotations

from enum import Enum
from itertools import accumulate, islice
from typing import Iterator


class AccessKind(str, Enum):
    READ = "read"
    WRITE = "write"


class CellCounters:
    """Read and write counters for one space of cells.

    Each kind is a difference array of `size_cells + 1` entries: a range
    adds 1 at its first cell and subtracts 1 just past its last, so the
    running sum up to cell c is c's count.  The extra entry takes the -1
    of a range that ends at the last cell.  `reads` and `writes` build a
    fresh prefix-sum list on each read and leave the counters as they are.
    """

    def __init__(self, size_cells: int):
        if size_cells < 1:
            raise ValueError(f"size_cells must be >= 1, got {size_cells}")
        self.size_cells = size_cells
        self._read_deltas = [0] * (size_cells + 1)
        self._write_deltas = [0] * (size_cells + 1)

    def record_range(self, base_cell: int, len_cells: int, kind: AccessKind) -> None:
        """Add one access of `kind` to each of `len_cells` cells from `base_cell`.

        A range longer than the ring would overlap itself, so it is rejected.
        """
        size = self.size_cells
        if not 0 <= base_cell < size:
            raise ValueError(f"base_cell {base_cell} outside ring of {size} cells")
        if len_cells < 1:
            raise ValueError(f"len_cells must be >= 1, got {len_cells}")
        if len_cells > size:
            raise ValueError(f"range of {len_cells} cells exceeds ring size {size}")
        deltas = self._write_deltas if kind is AccessKind.WRITE else self._read_deltas
        end = base_cell + len_cells
        deltas[base_cell] += 1
        if end <= size:
            deltas[end] -= 1
        else:  # two pieces: [base_cell, size) and [0, end - size)
            deltas[size] -= 1
            deltas[0] += 1
            deltas[end - size] -= 1

    def iter_counts(self, kind: AccessKind) -> Iterator[int]:
        """The per-cell counts of `kind`, cell 0 first, as a prefix-sum iterator."""
        deltas = self._write_deltas if kind is AccessKind.WRITE else self._read_deltas
        return accumulate(islice(deltas, self.size_cells))

    @property
    def reads(self) -> list[int]:
        return list(self.iter_counts(AccessKind.READ))

    @property
    def writes(self) -> list[int]:
        return list(self.iter_counts(AccessKind.WRITE))
