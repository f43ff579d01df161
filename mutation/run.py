"""Mutation gate: each mutant of src/ must make the tests it names fail.

Usage, from the root of a repository checkout:

    python mutation/run.py

A mutant names a file, an exact old text, its replacement and the test
node ids that must fail.  For each mutant the runner copies src/, tests/
and pyproject.toml into a temporary directory, replaces the old text
there, and runs the named tests with `-p no:cacheprovider` and a fixed
`--hypothesis-seed`.  It prints a line per mutant and exits 1 if a mutant
survives, that is, if any of its tests passes, if a mutant is stale, its
old text not found exactly once in its file, or if a mutant's tests, or
the unmutated run of every named test, run past `TIMEOUT_S` seconds.  A
stale mutant is to be restated for the code that replaced its text, not
dropped.
"""

from __future__ import annotations

import os
import re
import shutil
import subprocess
import sys
import tempfile
from dataclasses import dataclass
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
COPIED = ("src", "tests", "pyproject.toml")
HYPOTHESIS_SEED = 1
#: Seconds that one pytest run may take: a mutant's tests, or the unmutated
#: run of every named test.  The slowest mutant took 37 s, the unmutated run
#: 14 s, on a shared 2-vCPU host.
TIMEOUT_S = 300
TIMED_OUT = f"timed out after {TIMEOUT_S} s"


@dataclass(frozen=True)
class Mutant:
    name: str
    path: str  # relative to the repository root
    old: str
    new: str
    tests: tuple[str, ...]  # node ids that must fail

    def __post_init__(self):
        if not self.tests:
            raise ValueError(f"mutant {self.name!r} names no test")


METRICS = "src/wearsim/metrics.py"
ENGINE = "src/wearsim/engine.py"
MEMORY = "src/wearsim/memory.py"
WORKLOAD = "src/wearsim/workload.py"
TRACE = "src/wearsim/trace.py"

MUTANTS = [
    # The percell writer: a block's runs, the clip of its last run's cells,
    # and the run the next block starts in.
    Mutant("percell: bisect_left for bisect_right", METRICS,
           "from bisect import bisect_right",
           "from bisect import bisect_left as bisect_right",
           ("tests/test_metrics.py::TestExport::test_percell_bytes_match_csv_writer",
            "tests/test_metrics.py::TestExport::test_percell_writes_in_bounded_blocks",
            "tests/test_metrics.py::TestExport::test_percell_dense_runs")),
    Mutant("percell: last count clipped as if the block held two runs", METRICS,
           "counts[-1] -= ends[j] - stop",
           "counts[-1] = stop - ends[j - 1]",
           ("tests/test_metrics.py::TestExport::test_percell_bytes_match_csv_writer",
            "tests/test_metrics.py::TestExport::test_percell_memories_about_a_block[False-1000]",
            "tests/test_metrics.py::TestExport::test_percell_memories_about_a_block[False-1001]")),
    Mutant("percell: a run that goes on into the next block skipped", METRICS,
           "i = j + (ends[j] == stop)",
           "i = j + 1",
           ("tests/test_metrics.py::TestExport::test_percell_bytes_match_csv_writer",
            "tests/test_metrics.py::TestExport::test_run_longer_than_a_block",
            "tests/test_metrics.py::TestExport::test_addresses_that_gain_a_digit")),
    # A block that one run fills: block 0 and a partial last block are not,
    # and its kept rows serve only the next such block of the same text and
    # prefix width.
    Mutant("percell: block 0 taken as filled", METRICS,
           "if i == j and start and n == PERCELL_BLOCK_CELLS:",
           "if i == j and n == PERCELL_BLOCK_CELLS:",
           ("tests/test_metrics.py::TestExport::test_percell_bytes_match_csv_writer",
            "tests/test_metrics.py::TestExport::test_percell_memories_about_a_block[False-1000]",
            "tests/test_metrics.py::TestExport::test_percell_memories_about_a_block[False-1001]")),
    Mutant("percell: a partial last block taken as filled", METRICS,
           "if i == j and start and n == PERCELL_BLOCK_CELLS:",
           "if i == j and start:",
           ("tests/test_metrics.py::TestExport::test_addresses_that_gain_a_digit",
            "tests/test_metrics.py::TestExport::test_addresses_of_five_digit_blocks",
            "tests/test_metrics.py::TestExport::test_percell_memories_about_a_block[False-1001]")),
    Mutant("percell: filled rows kept across a prefix-width change", METRICS,
           "key = (text, len(prefix))",
           "key = text",
           ("tests/test_metrics.py::TestExport::test_addresses_of_five_digit_blocks",)),
    Mutant("percell: filled rows kept across a change of text", METRICS,
           "key = (text, len(prefix))",
           "key = len(prefix)",
           ("tests/test_metrics.py::TestExport::test_percell_blocks_that_one_run_fills[texts-of-one-width]",)),
    Mutant("percell: a prefix digit written one byte late", METRICS,
           "rows[k::width] = _DIGITS[digit]",
           "rows[k + 1::width] = _DIGITS[digit]",
           ("tests/test_metrics.py::TestExport::test_percell_bytes_match_csv_writer",
            "tests/test_metrics.py::TestExport::test_percell_blocks_that_one_run_fills[after-a-dense-block]",
            "tests/test_metrics.py::TestExport::test_addresses_of_five_digit_blocks")),
    # Top-N over runs: at most n counts, and only two views over one lengths.
    Mutant("top-N: a run's count emitted once per cell, past n", METRICS,
           "repeat(count, min(length, n - len(top)))",
           "repeat(count, length)",
           ("tests/test_metrics.py::TestTopN::test_equals_sorted_prefix",
            "tests/test_metrics.py::TestTopN::test_runs_of_a_huge_report_stay_runs",
            "tests/test_cli.py::TestReport::test_topn_from_percell")),
    Mutant("top-N: the runs at the floor dropped", METRICS,
           "if count >= floor)",
           "if count > floor)",
           ("tests/test_metrics.py::TestTopN::test_more_runs_than_n_with_ties_at_the_floor[1-accesses]",
            "tests/test_metrics.py::TestTopN::test_more_runs_than_n_with_ties_at_the_floor[4-writes]",
            "tests/test_metrics.py::TestTopN::test_equals_sorted_prefix")),
    Mutant("top-N: no floor for a table with no runs", METRICS,
           "min(nlargest(n, counts), default=0)",
           "nlargest(n, counts)[-1]",
           ("tests/test_metrics.py::TestTopN::test_views_over_no_runs[accesses]",
            "tests/test_metrics.py::TestTopN::test_views_over_no_runs[writes]",
            "tests/test_cli.py::TestReport::test_topn_from_a_header_only_percell[accesses]")),
    Mutant("top-N: views over unlike runs read as runs", METRICS,
           'if lengths is None or getattr(reads, "lengths", None) is not lengths:',
           "if lengths is None:",
           ("tests/test_metrics.py::TestTopN::test_equals_sorted_prefix",)),
    # The percell remainders, blocks and loader.
    Mutant("percell: remainders not padded to three digits", METRICS,
           '_REMAINDERS = [f"{r:03}" for r in range(PERCELL_BLOCK_CELLS)]',
           "_REMAINDERS = [str(r) for r in range(PERCELL_BLOCK_CELLS)]",
           ("tests/test_metrics.py::TestExport::test_addresses_that_gain_a_digit",
            "tests/test_metrics.py::TestExport::test_percell_memories_about_a_block[False-1001]")),
    Mutant("percell: the last block dropped", METRICS,
           "for start in range(0, cells, PERCELL_BLOCK_CELLS):",
           "for start in range(0, cells - cells % PERCELL_BLOCK_CELLS, PERCELL_BLOCK_CELLS):",
           ("tests/test_metrics.py::TestExport::test_percell_round_trip",
            "tests/test_metrics.py::TestExport::test_percell_memories_about_a_block[False-1]")),
    Mutant("percell loader: rows never folded into runs", METRICS,
           "if counts == last:",
           "if False:",
           ("tests/test_metrics.py::TestExport::test_percell_loads_one_run_per_run_written",)),
    # GC copies as ranges: one write of the movers' cells, one read per run
    # of movers, and which objects move, a free's gap in a single space
    # included.  The live-cell total that a collection leaves in `used`.
    Mutant("apply: no event counted", ENGINE,
           "count += 1",
           "pass",
           ("tests/test_engine.py::TestReplay::test_event_count_after_an_exception[no-room-after-gc]",
            "tests/test_engine.py::TestReplay::test_event_count_after_an_exception[dead-object]",
            "tests/test_cli.py::TestRun::test_trivial_trace")),
    Mutant("engine: a free leaves its cells in the live total", ENGINE,
           "self.used = used",
           "self.used = self.used",
           ("tests/test_engine.py::TestAlloc::test_gc_makes_room_for_retry",
            "tests/test_engine.py::TestAlloc::test_exact_fit_after_gc",
            "tests/test_engine.py::TestGc::test_copy_preserves_base_order")),
    Mutant("gc ranges: the write from the space's start", ENGINE,
           "(dest - moved) % capacity",
           "self.start",
           ("tests/test_engine.py::TestGcRanges::test_ranges[tail-True]",
            "tests/test_oracle.py::test_engine_matches_reference[single-True]")),
    Mutant("gc: an object already in place is copied", ENGINE,
           "if moving or base != dest:",
           "if True:",
           ("tests/test_engine.py::TestGcRanges::test_ranges[tail-True]",
            "tests/test_engine.py::TestSingleSpace::test_unmoved_object_records_nothing",
            "tests/test_oracle.py::test_engine_matches_reference[single-True]",
            "tests/test_oracle.py::test_collections_match_reference[single]",
            "tests/test_oracle.py::test_collections_of_a_single_space_match_reference")),
    Mutant("gc: an object at its destination's cell in the other ring is not copied",
           ENGINE,
           "if moving or base != dest:",
           "if base != dest:",
           ("tests/test_engine.py::TestGcRanges::test_ranges[seam-True]",
            "tests/test_oracle.py::test_engine_matches_reference[none-True]",
            "tests/test_oracle.py::test_collections_match_reference[none]")),
    Mutant("gc: a free leaves the single space gapless", ENGINE,
           "self.gapless = False",
           "pass",
           ("tests/test_engine.py::TestSingleSpace::test_sliding_object_records_copy",
            "tests/test_oracle.py::test_collections_of_a_single_space_match_reference")),
    Mutant("gc ranges: one read merging every source", ENGINE,
           "if base == end:",
           "if run_cells:",
           ("tests/test_engine.py::TestGcRanges::test_ranges[seam-True]",
            "tests/test_engine.py::TestGcRanges::test_one_write_and_one_read_per_run")),
    # The counters: one difference array in which a write counts 2**64, so
    # a cell's sum is its reads plus 2**64 times its writes.  A range that
    # ends at or before the last cell costs two updates, any other wraps.
    Mutant("counters: a range ending one cell past the ring taken as in-ring", MEMORY,
           "end <= size and kind in _UNITS",
           "end <= size + 1 and kind in _UNITS",
           ("tests/test_memory.py::TestRecordRange::test_range_ending_at_the_last_cell_does_not_wrap",
            "tests/test_memory.py::TestRecordRange::test_every_range_of_small_rings[read]",
            "tests/test_memory.py::TestRecordRange::test_every_range_of_small_rings[write]")),
    Mutant("counters: a write unit smaller than the reads it sits above", MEMORY,
           '"W": 1 << 64',
           '"W": 1 << 4',
           ("tests/test_memory.py::TestRecordRange::test_many_reads_under_few_writes_stay_exact",
            "tests/test_memory.py::TestRecordRange::test_read_and_write_both_wrapping_the_seam",
            "tests/test_memory.py::TestRecordRange::test_every_range_of_small_rings[write]")),
    Mutant("counters: writes decoded with the wrong shift", MEMORY,
           "map(rshift, counts, repeat(64))",
           "map(rshift, counts, repeat(63))",
           ("tests/test_memory.py::TestRecordRange::test_many_reads_under_few_writes_stay_exact",
            "tests/test_memory.py::TestRecordRange::test_runs_split_where_either_kind_changes",
            "tests/test_memory.py::TestRecordRange::test_conservation_and_wrap")),
    Mutant("counters: a run starts only where the packed delta is positive", MEMORY,
           "compress(range(lo, hi), deltas[lo:hi])",
           "compress(range(lo, hi), map((0).__lt__, deltas[lo:hi]))",
           ("tests/test_memory.py::TestRecordRange::test_write_ending_where_a_read_starts",
            "tests/test_memory.py::TestRecordRange::test_read_and_write_both_wrapping_the_seam",
            "tests/test_memory.py::TestRecordRange::test_every_range_of_small_rings[read]")),
    # runs(): the cells of the arcs it sweeps, each once, in address order.
    Mutant("runs: a stretch's last cell left unscanned", MEMORY,
           "starts.extend(compress(range(lo, hi), deltas[lo:hi]))",
           "starts.extend(compress(range(lo, hi - 1), deltas[lo:hi - 1]))",
           ("tests/test_memory.py::test_runs_of_large_rings",
            "tests/test_memory.py::test_runs_read_over_the_arcs",
            "tests/test_oracle.py::test_runs_match_reference_at_the_last_block[golden]",
            "tests/test_oracle.py::test_runs_match_reference_at_the_last_block[single]")),
    Mutant("runs: the ring's last cell never scanned", MEMORY,
           "min(end, size)",
           "min(end, size - 1)",
           ("tests/test_memory.py::test_runs_of_large_rings",
            "tests/test_oracle.py::test_runs_match_reference_at_the_last_block[golden]",
            "tests/test_oracle.py::test_runs_match_reference_at_the_last_block[single]")),
    Mutant("runs: overlapping arcs scanned twice", MEMORY,
           "                done = hi\n",
           "",
           ("tests/test_memory.py::test_runs_read_over_the_arcs",
            "tests/test_memory.py::test_runs_over_a_wrapped_arc_whose_piece_past_the_seam_is_longest",
            "tests/test_oracle.py::test_report_reads_every_cell_that_changed")),
    Mutant("runs: arcs taken in the order given", MEMORY,
           "for start, end in sorted(arcs):",
           "for start, end in arcs:",
           ("tests/test_memory.py::test_runs_read_over_the_arcs",
            "tests/test_memory.py::test_runs_over_a_wrapped_arc_whose_piece_past_the_seam_is_longest",
            "tests/test_oracle.py::test_report_reads_every_cell_that_changed")),
    Mutant("runs: an arc that starts inside the scanned stretch skipped", MEMORY,
           "if hi > done:",
           "if hi > done and start >= done:",
           ("tests/test_memory.py::test_runs_over_arcs_that_share_a_start",
            "tests/test_memory.py::test_runs_read_over_the_arcs",
            "tests/test_oracle.py::test_report_reads_every_cell_that_changed")),
    # The report reads only the cells its epochs cover: each epoch's arc and
    # the cell just past it, on both sides of the seam, every epoch included.
    Mutant("report spans: an arc's stretch ends before the cell just past it",
           MEMORY,
           "(start, start + cells + 1)",
           "(start, start + cells)",
           ("tests/test_memory.py::test_runs_read_over_the_arcs",
            "tests/test_oracle.py::test_report_reads_every_cell_that_changed")),
    Mutant("report spans: the piece past the seam dropped", MEMORY,
           "starts = list(compress(range(done), deltas[:done]))",
           "starts = []",
           ("tests/test_memory.py::test_runs_read_over_the_arcs",
            "tests/test_memory.py::test_runs_over_a_wrapped_arc_whose_piece_past_the_seam_is_longest",
            "tests/test_oracle.py::test_report_reads_every_cell_that_changed")),
    Mutant("report spans: the cells past the seam not scanned first", MEMORY,
           "done = max(0, max([end for _, end in arcs], default=0) - size)",
           "done = 0",
           ("tests/test_memory.py::test_runs_read_over_the_arcs",
            "tests/test_memory.py::test_runs_over_a_wrapped_arc_whose_piece_past_the_seam_is_longest",
            "tests/test_oracle.py::test_report_reads_every_cell_that_changed")),
    Mutant("report spans: an epoch taken with the next one's start", ENGINE,
           "        self.epochs.append((source, self.start, self.used))\n"
           "        self.start = dest = self.policy_state.take(target)\n",
           "        self.start = dest = self.policy_state.take(target)\n"
           "        self.epochs.append((source, self.start, self.used))\n",
           ("tests/test_oracle.py::test_report_reads_every_cell_that_changed",
            "tests/test_oracle.py::test_runs_match_reference_in_large_memory[loop-2097152-random:1]",
            "tests/test_oracle.py::test_runs_match_reference_in_large_memory[hotspot-1048576-random:1]")),
    Mutant("report spans: the current epoch left out", ENGINE,
           "[*self.epochs, (self.work_ring, self.start, self.used)]",
           "self.epochs",
           ("tests/test_oracle.py::test_report_reads_every_cell_that_changed",
            "tests/test_engine.py::TestReportLayout::test_ring_one_cell_follows_ring_zero",
            "tests/test_engine.py::TestReportLayout::test_single_space_cell_is_its_address")),
    # The trace reader: ASCII digits only, per-opcode arity, sizes of at
    # least 1, one CR dropped from the end of each line of CRLF text, and
    # at most one #mem header.
    Mutant("parse: parse_uint takes any Unicode digit", TRACE,
           "text.isascii() and text.isdigit()",
           "text.isdigit()",
           ("tests/test_trace.py::TestParse::test_non_ascii_digits_rejected[arabic-indic-three]",
            "tests/test_trace.py::TestParse::test_non_ascii_digits_rejected[fullwidth-one]",
            "tests/test_trace.py::TestAgainstReference::test_parse_matches_reference")),
    Mutant("parse: takes A 1 0", TRACE,
           "if not event[2]:",
           "if False:",
           ("tests/test_trace.py::TestParse::test_zero_size_rejected",
            "tests/test_trace.py::TestAgainstReference::test_parse_matches_reference",
            "tests/test_cli.py::TestRun::test_parse_error_exits_3")),
    Mutant("parse: takes R 1 2 0", TRACE,
           "if not event[3]:",
           "if False:",
           ("tests/test_trace.py::TestParse::test_zero_length_rejected",
            "tests/test_trace.py::TestAgainstReference::test_parse_matches_reference")),
    Mutant("parse: no line read as an event", TRACE,
           "arity = len(fields)",
           "arity = 0",
           ("tests/test_trace.py::TestParse::test_basic",
            "tests/test_trace.py::TestParse::test_crlf_tolerated",
            "tests/test_trace.py::TestAgainstReference::test_parse_matches_reference")),
    Mutant("parse: a line's new texts read out of order", TRACE,
           "for text in texts:",
           "for text in reversed(texts):",
           ("tests/test_trace.py::TestParse::test_fields_read_in_order[A-two-bad]",
            "tests/test_trace.py::TestParse::test_fields_read_in_order[R-two-bad-after-a-known]",
            "tests/test_trace.py::TestAgainstReference::test_parse_matches_reference")),
    Mutant("parse: every trailing CR stripped", TRACE,
           '''        text = text.replace("\\r\\n", "\\n")
        if text.endswith("\\r"):
            text = text[:-1]
''',
           '''        text = "\\n".join(line.rstrip("\\r") for line in text.split("\\n"))
''',
           ("tests/test_trace.py::TestAgainstReference::test_parse_matches_reference",)),
    Mutant("parse: no CR stripped", TRACE,
           'if "\\r" in text:',
           "if False:",
           ("tests/test_trace.py::TestParse::test_crlf_tolerated",
            "tests/test_trace.py::TestParse::test_crlf_trace_parses_as_lf",
            "tests/test_trace.py::TestAgainstReference::test_parse_matches_reference")),
    Mutant("parse: a second #mem header kept", TRACE,
           "if suggested is not None:",
           "if False:",
           ("tests/test_trace.py::TestParse::test_second_mem_header_rejected",
            "tests/test_trace.py::TestAgainstReference::test_parse_matches_reference",
            "tests/test_cli.py::TestRun::test_second_mem_header_exits_3")),
    # The validator: a parsed opcode is of type str, not a subclass of it.
    Mutant("validate: a str-subclass opcode taken", TRACE,
           "and type(event[0]) is str",
           "and isinstance(event[0], str)",
           ("tests/test_trace.py::TestValidate::test_malformed_event[str-subclass]",
            "tests/test_trace.py::TestAgainstReference::test_validate_matches_reference")),
    # The generator: draws as randrange, randint and choice make them.
    Mutant("workload: a draw below n not retried", WORKLOAD,
           "while i >= n:",
           "if i >= n:",
           ("tests/test_workload.py::TestSameStream::test_pinned_bytes[hotspot-all-hot]",
            "tests/test_workload.py::TestSameStream::test_pinned_bytes[hotspot-one-object]",
            "tests/test_workload.py::TestSameStream::test_draws_as_the_library_calls")),
    Mutant("workload: churn frees the live id below the one picked", WORKLOAD,
           "del ids[i]",
           "del ids[i - 1]",
           ("tests/test_workload.py::TestSameStream::test_pinned_bytes[churn]",
            "tests/test_workload.py::TestSameStream::test_pinned_bytes[churn-2000-objects]",
            "tests/test_workload.py::TestSameStream::test_pinned_bytes[churn-one-cell-objects]",
            "tests/test_workload.py::TestSameStream::test_draws_as_the_library_calls")),
    Mutant("workload: hotspot's cold accesses go to the hot set", WORKLOAD,
           "pool, n, k = cold_pick if",
           "pool, n, k = hot_pick if",
           ("tests/test_workload.py::TestSameStream::test_pinned_bytes[hotspot-bench]",
            "tests/test_workload.py::TestSameStream::test_draws_as_the_library_calls")),
    # The generator: a G after every gc_every-th body event, and #mem.
    Mutant("workload: no G after the last full group", WORKLOAD,
           "range(every, len(body) + 1, every)",
           "range(every, len(body), every)",
           ("tests/test_workload.py::TestPatterns::test_gc_insertion_cadence",
            "tests/test_workload.py::TestSameStream::test_pinned_bytes"
            "[churn-one-object-gc-every-event]")),
    Mutant("workload: #mem from the last object, not the largest", WORKLOAD,
           "max(sizes)",
           "sizes[-1]",
           ("tests/test_workload.py::TestSameStream::test_draws_as_the_library_calls",)),
    # The golden shift: rational shifts that leave the discrepancy bound.
    Mutant("golden_shift: 3N/8", "src/wearsim/policy.py",
           "return (3 * ring_size - math.isqrt(5 * ring_size * ring_size) - 1) // 2",
           "return 3 * ring_size // 8",
           ("tests/test_leveling.py::test_only_golden_keeps_the_bound[golden-1.667]",
            "tests/test_policy.py::TestGoldenShift::test_million")),
    Mutant("golden_shift: N/4 + 1", "src/wearsim/policy.py",
           "return (3 * ring_size - math.isqrt(5 * ring_size * ring_size) - 1) // 2",
           "return ring_size // 4 + 1",
           ("tests/test_leveling.py::test_only_golden_keeps_the_bound[golden-1.667]",
            "tests/test_policy.py::TestGoldenShift::test_million")),
]

_FAILED = re.compile(r"^FAILED (\S+)", re.M)


class Stale(Exception):
    """A mutant's old text is not in its file exactly once."""


def failing(tests: tuple[str, ...], mutant: Mutant | None = None) -> set[str]:
    """Copy the tree, apply the mutant if one is given, run the tests; the
    node ids of those that failed.  Raises `subprocess.TimeoutExpired` if
    they run past `TIMEOUT_S`."""
    with tempfile.TemporaryDirectory(prefix="wearsim-mutant-") as tmp:
        for name in COPIED:
            source, target = ROOT / name, Path(tmp, name)
            if source.is_dir():
                shutil.copytree(source, target,
                                ignore=shutil.ignore_patterns("__pycache__"))
            else:
                shutil.copy2(source, target)
        if mutant is not None:
            path = Path(tmp, mutant.path)
            text = path.read_text()
            found = text.count(mutant.old)
            if found != 1:
                raise Stale(f"its old text is in {mutant.path} {found} times, not once")
            path.write_text(text.replace(mutant.old, mutant.new))
        env = {**os.environ, "PYTHONPATH": str(Path(tmp, "src")),
               "PYTHONDONTWRITEBYTECODE": "1"}
        result = subprocess.run(
            [sys.executable, "-m", "pytest", "-q", "-rf", "-p", "no:cacheprovider",
             f"--hypothesis-seed={HYPOTHESIS_SEED}", *tests],
            cwd=tmp, env=env, capture_output=True, text=True, timeout=TIMEOUT_S)
    if result.returncode not in (0, 1):  # 1: tests failed; else no tests ran
        raise RuntimeError(f"pytest exited {result.returncode}:\n"
                           f"{result.stdout}{result.stderr}")
    return set(_FAILED.findall(result.stdout))


def main() -> int:
    # Each named test must pass on the tree as it is, or its failure under a
    # mutant would show nothing.
    named = tuple(dict.fromkeys(test for m in MUTANTS for test in m.tests))
    try:
        broken = sorted(failing(named))
    except subprocess.TimeoutExpired:
        broken = [TIMED_OUT]
    for problem in broken:
        print(f"FAILED  unmutated: {problem}", flush=True)
    bad = len(broken)
    for mutant in MUTANTS:
        try:
            passed = [t for t in mutant.tests if t not in failing(mutant.tests, mutant)]
        except Stale as err:
            problem = f"stale: {err}"
        except subprocess.TimeoutExpired:
            problem = TIMED_OUT
        else:
            problem = f"survived: {', '.join(passed)} passed" if passed else None
        bad += problem is not None
        print(f"{'KILLED' if problem is None else 'FAILED'}  {mutant.name}"
              + (f": {problem}" if problem else ""), flush=True)
    print(f"{len(MUTANTS)} mutants, {bad} problems")
    return 1 if bad else 0


if __name__ == "__main__":
    sys.exit(main())
