"""Wear statistics and report serialization.

Summary statistics are the usual evaluation quantities for leveling
studies: mean accesses per cell, the busiest cell, and how many cells
were touched at all.  The mean is reported over all cells and over
touched cells separately, since either denominator is defensible.
Lifespan extension is the ratio of a baseline's statistic to a
candidate's: a cell dies when its access count reaches the endurance
limit, so halving the peak count doubles the time to first cell death.

A report holds its counts as runs of cells with equal reads and writes.
Wear at the memory sizes a leveling study needs is a step function, so a
report of millions of cells has a few hundred runs, and the statistics
cost per run, not per cell; per-cell counts are runs of length 1.  Its
per-cell reads and writes are CellRuns, read-only views that iterate the
runs cell by cell and hold no per-cell list.  The top-N table is
heapq.nlargest over the (count, length) runs of two such views, a report's
or a loaded percell-csv's: it costs O(runs), however many cells they span.
The percell-csv export writes one row per cell all the same, but builds
them per block of 1000 addresses, whose rows differ only in their last
three digits (in block 0, in the whole address) and in their runs' counts.
A block past block 0 that one run fills has rows of one width that differ
only in the digits of its prefix: it is a bytearray of rows built once per
run text and prefix width, whose prefix digits are set by a strided slice
assignment each.  Any other block is a join of cached strings, a fixed
number of C calls however many runs it holds, not a str() per cell;
load_percell_csv folds adjacent rows of like counts back into runs.

Report formats, each written to a text sink:

    summary-json   config echo, gc/event counts, summary statistics
    percell-csv    address,reads,writes over the full memory
    topn-csv       rank,count for the n busiest cells, at most one per cell
    compare-csv    trace,policy,avg_all,avg_touched,max,touched,gc_count
    extension-csv  policy,avg_extension,max_extension against compare's first
    report-csv     baseline,candidate,avg_extension,max_extension per pair

write_table writes every CSV table but percell-csv.  Of a text stream,
load_summary reads back a summary-json's SummaryStats and what they count,
and load_percell_csv a percell-csv's (reads, writes) as CellRuns;
lifespan_extension returns a pair.
"""

from __future__ import annotations

import csv
import json
import sys
from bisect import bisect_right
from dataclasses import asdict, dataclass, fields
from enum import Enum
from heapq import nlargest
from itertools import accumulate, chain, compress, islice, repeat
from operator import add, eq, mul
from typing import Iterable, Iterator, Sequence, TextIO

from wearsim.trace import parse_uint


class CountingMode(str, Enum):
    ACCESSES = "accesses"  # reads + writes
    WRITES = "writes"      # writes only; wear in PCM-like cells is write-driven


@dataclass(frozen=True)
class SummaryStats:
    avg_all_cells: float
    avg_touched_cells: float
    max_cell: int
    max_cell_address: int
    touched_cell_count: int


@dataclass
class WearReport:
    """Everything one simulation run produced, ready for export.

    The counts are runs: `run_lengths[i]` cells that each saw
    `run_reads[i]` reads and `run_writes[i]` writes, address 0 first.
    """

    policy: str
    mem_size_cells: int
    counting_mode: CountingMode
    count_gc_traffic: bool
    gc_count: int
    event_count: int
    run_lengths: list[int]
    run_reads: list[int]
    run_writes: list[int]
    summary: SummaryStats

    # Views over the runs, sharing run_lengths, so a report holds only its
    # runs and top_n_distribution reads them as runs.
    @property
    def per_cell_reads(self) -> CellRuns:
        return CellRuns(self.run_lengths, self.run_reads)

    @property
    def per_cell_writes(self) -> CellRuns:
        return CellRuns(self.run_lengths, self.run_writes)


class CellRuns:
    """Per-cell counts held as runs: `lengths[i]` cells of count `values[i]`.

    A read-only sequence of len() cells that iterates them in address
    order without building a list, and equals any sequence of the same
    counts, a plain list included.
    """

    __slots__ = ("lengths", "values")

    def __init__(self, lengths: Sequence[int], values: Sequence[int]):
        self.lengths = lengths
        self.values = values

    def __len__(self) -> int:
        return sum(self.lengths)

    def __iter__(self) -> Iterator[int]:
        return chain.from_iterable(map(repeat, self.values, self.lengths))

    def __eq__(self, other):
        if not isinstance(other, (Sequence, CellRuns)):
            return NotImplemented
        return len(self) == len(other) and all(map(eq, self, other))

    def __repr__(self) -> str:
        return f"CellRuns({self.lengths!r}, {self.values!r})"


def summarize(lengths: Sequence[int], reads: Sequence[int], writes: Sequence[int],
              mode: CountingMode = CountingMode.ACCESSES) -> SummaryStats:
    """Summary statistics over runs of `lengths[i]` cells with equal counts.

    Every length must be >= 1; per-cell counts are runs of length 1.
    maxCellAddress breaks ties toward the lowest address so output is
    deterministic.
    """
    counts = list(writes if mode is CountingMode.WRITES else map(add, reads, writes))
    if not counts:
        raise ValueError("summarize requires at least one cell")
    cells = sum(lengths)
    total = sum(map(mul, lengths, counts))
    touched = sum(compress(lengths, counts))  # counts are >= 0
    max_cell = max(counts)
    return SummaryStats(
        avg_all_cells=total / cells,
        avg_touched_cells=total / touched if touched else 0.0,
        max_cell=max_cell,
        max_cell_address=sum(islice(lengths, counts.index(max_cell))),
        touched_cell_count=touched,
    )


def top_n_distribution(reads: CellRuns, writes: CellRuns,
                       mode: CountingMode, n: int) -> list[int]:
    """The n largest per-cell counts, descending; one per cell, so fewer
    than n when the memory has fewer cells.

    reads and writes are two CellRuns over one lengths list, as a
    WearReport and load_percell_csv give; anything else is a ValueError.
    heapq.nlargest picks the n largest (count, length) runs, which cover at
    least n cells, and each count is emitted once per cell of its run until
    n are out, so the cost is O(runs).
    """
    if n < 1:
        raise ValueError(f"n must be >= 1, got {n}")
    lengths = getattr(writes, "lengths", None)
    if lengths is None or getattr(reads, "lengths", None) is not lengths:
        raise ValueError("top-N reads two CellRuns over one lengths list")
    counts = (writes.values if mode is CountingMode.WRITES
              else map(add, reads.values, writes.values))
    top: list[int] = []
    for count, length in nlargest(n, zip(counts, lengths)):
        top += repeat(count, min(length, n - len(top)))
    return top


def lifespan_extension(baseline: SummaryStats,
                       candidate: SummaryStats) -> tuple[float, float]:
    """How many times longer memory lasts under `candidate` than `baseline`,
    as (avg_extension, max_extension)."""
    if candidate.avg_all_cells == 0 or candidate.max_cell == 0:
        raise ValueError(
            "candidate statistic is zero; lifespan extension is undefined")
    return (baseline.avg_all_cells / candidate.avg_all_cells,
            baseline.max_cell / candidate.max_cell)


# --- serialization ---------------------------------------------------------
#
# Integers are written exactly; floats rely on repr, which round-trips
# doubles exactly and always carries enough significant digits.

def write_summary_json(report: WearReport, sink) -> None:
    json.dump({
        "policy": report.policy,
        "mem_size_cells": report.mem_size_cells,
        "counting_mode": report.counting_mode.value,
        "count_gc_traffic": report.count_gc_traffic,
        "gc_count": report.gc_count,
        "event_count": report.event_count,
        "summary": asdict(report.summary),
    }, sink, indent=2)
    sink.write("\n")


def load_summary(source: TextIO) -> tuple[SummaryStats, dict]:
    """Read back a summary-json text stream: its summary statistics, and
    what they count, a dict of its counting_mode (a CountingMode),
    mem_size_cells and count_gc_traffic.

    Raises ValueError unless each is there as write_summary_json writes it:
    a CountingMode value, an int that is not a bool and a bool, and a
    ``summary`` object holding each SummaryStats field, an int, not a bool,
    for an int field and an int or a float for a float field, in either
    case finite and within float range so that extension ratios are floats.
    """
    try:
        data = json.load(source)
    except RecursionError as err:
        raise ValueError("not a summary-json file: nested too deeply") from err
    summary = data.get("summary") if type(data) is dict else None
    if type(summary) is not dict:
        raise ValueError("not a summary-json file: no summary object")
    mode, mem, gc_traffic = map(data.get, ("counting_mode", "mem_size_cells",
                                           "count_gc_traffic"))
    if mode not in [m.value for m in CountingMode]:
        raise ValueError("field 'counting_mode' is missing or not one of "
                         + ", ".join(m.value for m in CountingMode))
    if type(mem) is not int:
        raise ValueError("field 'mem_size_cells' is missing or not an integer")
    if type(gc_traffic) is not bool:
        raise ValueError("field 'count_gc_traffic' is missing or not a boolean")
    stats = {}
    for f in fields(SummaryStats):
        value = summary.get(f.name)
        is_float = f.type == "float"  # annotations are strings in this module
        if (type(value) not in ((int, float) if is_float else (int,))
                or not -sys.float_info.max <= value <= sys.float_info.max):
            raise ValueError(f"summary field {f.name!r} is missing or not "
                             f"{'a finite number' if is_float else 'an integer'}")
        stats[f.name] = float(value) if is_float else value
    return SummaryStats(**stats), {"counting_mode": CountingMode(mode),
                                   "mem_size_cells": mem,
                                   "count_gc_traffic": gc_traffic}


#: Cells per percell-csv block: block q > 0 holds addresses 1000q to
#: 1000q + 999, each spelt str(q) and then a remainder of three digits.
PERCELL_BLOCK_CELLS = 1000
_BLOCK_0 = [str(r) for r in range(PERCELL_BLOCK_CELLS)]
_REMAINDERS = [f"{r:03}" for r in range(PERCELL_BLOCK_CELLS)]
#: Each ASCII digit, once for every row of a block.
_DIGITS = {d: d.encode() * PERCELL_BLOCK_CELLS for d in "0123456789"}


class _RunTexts(dict):
    """One export's row texts: a (reads, writes) pair missing from the table
    is formatted once as ",reads,writes\n"."""

    def __missing__(self, counts: tuple[int, int]) -> str:
        reads, writes = counts
        text = self[counts] = f",{reads},{writes}\n"
        return text


def write_percell_csv(report: WearReport, sink) -> None:
    # Each block is one write.  Its rows differ only in their remainders and
    # in their runs' text ",reads,writes\n": each run's text is looked up
    # once, in one pass before the blocks, and formatted once per distinct
    # pair.  A block's runs are found by bisecting the run ends.  A full
    # block past block 0 that one run fills is its text's rows under a blank
    # prefix, built again only when the text or the prefix width changes,
    # with each prefix digit set by one slice assignment of every width-th
    # byte.  Any other block is a list of three strings a row, prefix,
    # remainder and text, filled by slice assignment: a fixed number of C
    # calls, however many runs it holds.
    sink.write("address,reads,writes\n")
    lengths, reads, writes = report.run_lengths, report.run_reads, report.run_writes
    run_texts = list(map(_RunTexts().__getitem__, zip(reads, writes)))
    ends = list(accumulate(lengths))
    cells = ends[-1] if ends else 0
    filled_key = None  # (text, prefix width) of `rows`
    i = 0  # the run that holds the block's first cell
    for start in range(0, cells, PERCELL_BLOCK_CELLS):
        stop = min(start + PERCELL_BLOCK_CELLS, cells)
        n = stop - start
        prefix = str(start // PERCELL_BLOCK_CELLS)
        j = bisect_right(ends, stop - 1, i)  # the run that holds its last cell
        if i == j and start and n == PERCELL_BLOCK_CELLS:
            text = run_texts[i]
            key = (text, len(prefix))
            if key != filled_key:
                filled_key, pad = key, " " * len(prefix)
                rows = bytearray((pad + (text + pad).join(_REMAINDERS) + text).encode())
                width = len(rows) // PERCELL_BLOCK_CELLS
            for k, digit in enumerate(prefix):
                rows[k::width] = _DIGITS[digit]
            sink.write(rows.decode("ascii"))
        else:
            # address 1000q + r is spelt prefix + table[r]
            prefix, table = (prefix, _REMAINDERS) if start else ("", _BLOCK_0)
            counts = lengths[i:j + 1]  # each run's cells in the block
            counts[0] = ends[i] - start
            counts[-1] -= ends[j] - stop
            pieces = [prefix] * (3 * n)
            pieces[1::3] = table[:n]
            pieces[2::3] = chain.from_iterable(map(repeat, run_texts[i:j + 1], counts))
            sink.write("".join(pieces))
        i = j + (ends[j] == stop)  # the next block starts the next run


def load_percell_csv(source: TextIO) -> tuple[CellRuns, CellRuns]:
    """Read back a percell-csv text stream; returns (reads, writes), two
    CellRuns over one lengths list, in which adjacent rows whose counts are
    spelt alike share a run.

    Each field is read by parse_uint, as trace fields are, and the
    addresses run 0, 1, 2, ... in order.  A row whose counts are spelt as
    the row before reads only its address.
    """
    rows = csv.reader(source)
    if next(rows, None) != ["address", "reads", "writes"]:
        raise ValueError("not a percell-csv file: bad or missing header")
    lengths: list[int] = []
    reads: list[int] = []
    writes: list[int] = []
    last = None  # the last run's counts, as spelt
    for i, row in enumerate(rows):
        try:
            address, *counts = row
            if parse_uint(address) != i:
                raise ValueError
            if counts == last:
                lengths[-1] += 1
                continue
            read, write = map(parse_uint, counts)
        except ValueError:
            raise ValueError(f"percell-csv row {i + 1} malformed") from None
        last = counts
        lengths.append(1)
        reads.append(read)
        writes.append(write)
    return CellRuns(lengths, reads), CellRuns(lengths, writes)


def write_table(header: Sequence, rows: Iterable[Sequence], sink) -> None:
    """Header and rows as CSV; quotes a field holding a comma or a quote."""
    writer = csv.writer(sink, lineterminator="\n")
    writer.writerow(header)
    writer.writerows(rows)


def write_topn_csv(counts: Sequence[int], sink) -> None:
    write_table(("rank", "count"), enumerate(counts, start=1), sink)


COMPARE_CSV_HEADER = ("trace", "policy", "avg_all", "avg_touched",
                      "max", "touched", "gc_count")


def compare_csv_row(trace_name: str, report: WearReport) -> tuple:
    s = report.summary
    return (trace_name, report.policy, repr(s.avg_all_cells),
            repr(s.avg_touched_cells), s.max_cell, s.touched_cell_count,
            report.gc_count)


def write_compare_csv(rows: Iterable[tuple], sink) -> None:
    write_table(COMPARE_CSV_HEADER, rows, sink)
