"""Per-cell wear counters over one memory space.

A space is a ring of cells: the cell after the last one is cell 0, and
object bodies may span the seam.  The engine keeps one such space per
semispace (two rings for the dual-ring policies, one space for the
single-space baseline).  Counters only ever increase; nothing here
models data contents, timing, or device internals, because wear is
decided purely by how often each cell is touched.
"""

from __future__ import annotations

from enum import Enum


class AccessKind(str, Enum):
    READ = "read"
    WRITE = "write"


class CellCounters:
    """Read and write counters for one space of cells."""

    def __init__(self, size_cells: int):
        if size_cells < 1:
            raise ValueError(f"size_cells must be >= 1, got {size_cells}")
        self.size_cells = size_cells
        self.reads = [0] * size_cells
        self.writes = [0] * size_cells

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
        counters = self.writes if kind is AccessKind.WRITE else self.reads
        end = base_cell + len_cells
        for cell in range(base_cell, min(end, size)):
            counters[cell] += 1
        for cell in range(0, end - size):
            counters[cell] += 1
