import csv
import io
import json
import tracemalloc
from dataclasses import replace
from random import Random
from unittest import mock

import pytest
from hypothesis import example, given, strategies as st

from wearsim import metrics
from wearsim.metrics import (CellRuns, CountingMode, SummaryStats, WearReport,
                             compare_csv_row, lifespan_extension,
                             load_percell_csv, load_summary, summarize,
                             top_n_distribution, write_compare_csv,
                             write_percell_csv, write_summary_json,
                             write_topn_csv)


def stats_from(counts, mode=CountingMode.ACCESSES):
    # feed counts as writes with zero reads, one run per cell; ACCESSES and
    # WRITES then agree
    return summarize([1] * len(counts), [0] * len(counts), list(counts), mode)


class TestSummarize:
    def test_uniform(self):
        stats = stats_from([7, 7, 7])
        assert stats.avg_all_cells == 7
        assert stats.avg_touched_cells == 7
        assert stats.max_cell == 7

    def test_mixed(self):
        stats = stats_from([0, 0, 10, 30])
        assert stats.avg_all_cells == 10
        assert stats.avg_touched_cells == 20
        assert stats.max_cell == 30
        assert stats.max_cell_address == 3
        assert stats.touched_cell_count == 2

    def test_combines_reads_and_writes(self):
        stats = summarize([1, 1], [1, 0], [0, 3], CountingMode.ACCESSES)
        assert stats.avg_all_cells == 2
        assert stats.max_cell == 3

    def test_writes_only_ignores_reads(self):
        stats = summarize([1, 1], [5, 5], [1, 0], CountingMode.WRITES)
        assert stats.max_cell == 1
        assert stats.touched_cell_count == 1

    def test_zero_cells_rejected(self):
        with pytest.raises(ValueError):
            summarize([], [], [], CountingMode.ACCESSES)

    def test_all_zero_counts(self):
        stats = stats_from([0, 0])
        assert stats.avg_all_cells == 0
        assert stats.avg_touched_cells == 0
        assert stats.max_cell == 0
        assert stats.max_cell_address == 0

    def test_max_address_tie_breaks_low(self):
        assert stats_from([3, 9, 9]).max_cell_address == 1

    @given(st.lists(st.integers(0, 50), min_size=1, max_size=40),
           st.randoms(use_true_random=False))
    def test_permutation_invariant_except_address(self, counts, rng):
        shuffled = list(counts)
        rng.shuffle(shuffled)
        a, b = stats_from(counts), stats_from(shuffled)
        assert (a.avg_all_cells, a.avg_touched_cells, a.max_cell,
                a.touched_cell_count) == (b.avg_all_cells, b.avg_touched_cells,
                                          b.max_cell, b.touched_cell_count)

    @given(st.lists(st.integers(0, 50), min_size=1, max_size=40))
    def test_touched_average_at_least_overall(self, counts):
        stats = stats_from(counts)
        assert stats.avg_touched_cells >= stats.avg_all_cells
        assert stats.max_cell >= stats.avg_touched_cells


#: Runs of (length, reads, writes); small counts make zero runs and ties on
#: the max common.
runs_lists = st.lists(
    st.tuples(st.integers(1, 5), st.integers(0, 3), st.integers(0, 3)),
    min_size=1, max_size=20)


@st.composite
def top_n_cases(draw):
    """Runs, and a rank count from 1 to three past their cells."""
    runs = draw(runs_lists)
    cells = sum(length for length, _, _ in runs)
    return runs, draw(st.just(cells) | st.integers(1, cells + 3))


def cells_of(runs):
    """The runs' per-cell (reads, writes) lists."""
    reads, writes = [], []
    for length, r, w in runs:
        reads += [r] * length
        writes += [w] * length
    return reads, writes


class TestSummarizeRuns:
    @given(runs_lists, st.sampled_from(list(CountingMode)))
    @example([(2, 0, 1), (3, 0, 9), (1, 0, 0), (4, 9, 0)], CountingMode.ACCESSES)
    @example([(3, 0, 0), (2, 0, 0)], CountingMode.ACCESSES)
    @example([(2, 5, 0), (1, 0, 1)], CountingMode.WRITES)
    def test_runs_equal_their_cells(self, runs, mode):
        lengths, reads, writes = map(list, zip(*runs))
        cell_reads, cell_writes = cells_of(runs)
        assert (summarize(lengths, reads, writes, mode)
                == summarize([1] * len(cell_reads), cell_reads, cell_writes, mode))

    def test_max_tie_takes_the_lowest_address(self):
        stats = summarize([2, 3, 1, 4], [0, 0, 0, 0], [1, 9, 0, 9])
        assert (stats.max_cell, stats.max_cell_address) == (9, 2)

    def test_all_zero_runs(self):
        stats = summarize([3, 2], [0, 0], [0, 0])
        assert stats == SummaryStats(0.0, 0.0, 0, 0, 0)

    def test_writes_mode_ignores_reads(self):
        stats = summarize([2, 3], [7, 0], [0, 1], CountingMode.WRITES)
        assert (stats.max_cell, stats.max_cell_address) == (1, 2)
        assert stats.touched_cell_count == 3
        assert stats.avg_all_cells == 3 / 5


def unit_runs(reads, writes):
    """Per-cell counts as two CellRuns of one-cell runs over one lengths list."""
    lengths = [1] * len(reads)
    return CellRuns(lengths, reads), CellRuns(lengths, writes)


class TestTopN:
    def test_descending_prefix(self):
        assert top_n_distribution(*unit_runs([0] * 4, [5, 1, 9, 9]),
                                  CountingMode.ACCESSES, 3) == [9, 9, 5]

    def test_padding(self):
        # one count per cell: n past the memory's size adds no rows
        assert top_n_distribution(*unit_runs([0, 0], [4, 2]),
                                  CountingMode.ACCESSES, 5) == [4, 2]

    def test_first_is_max(self):
        writes = [3, 17, 2, 17]
        top = top_n_distribution(*unit_runs([0] * 4, writes),
                                 CountingMode.ACCESSES, 2)
        assert top[0] == stats_from(writes).max_cell

    def test_full_width_sums_to_total(self):
        writes = [3, 0, 2, 9]
        top = top_n_distribution(*unit_runs([0] * 4, writes),
                                 CountingMode.ACCESSES, 4)
        assert sum(top) == sum(writes)

    # The same cells come as a report's views, as views of a run per cell,
    # or as views over unlike runs, which top-N refuses.
    @given(top_n_cases(), st.sampled_from(list(CountingMode)),
           st.sampled_from(["report", "cells", "unlike runs"]))
    @example(([(3, 1, 0), (2, 0, 2)], 4), CountingMode.ACCESSES, "report")
    @example(([(3, 1, 0), (2, 0, 2)], 4), CountingMode.ACCESSES, "unlike runs")
    def test_equals_sorted_prefix(self, case, mode, form):
        runs, n = case
        report = report_of_runs(runs)
        cell_reads, cell_writes = cells_of(runs)
        if form == "unlike runs":
            reads, _ = unit_runs(cell_reads, cell_writes)
            with pytest.raises(ValueError, match="^top-N reads two CellRuns "
                               "over one lengths list$"):
                top_n_distribution(reads, report.per_cell_writes, mode, n)
            return
        reads, writes = {
            "report": (report.per_cell_reads, report.per_cell_writes),
            "cells": unit_runs(cell_reads, cell_writes),
        }[form]
        counts = (cell_writes if mode is CountingMode.WRITES
                  else [r + w for r, w in zip(cell_reads, cell_writes)])
        assert (top_n_distribution(reads, writes, mode, n)
                == sorted(counts, reverse=True)[:n])

    # Only the runs at or above the least of the n largest run counts are
    # ranked, and the runs tied at that floor are among them; with n at or
    # past the ten runs, the floor keeps every run.
    @pytest.mark.parametrize("mode", list(CountingMode))
    @pytest.mark.parametrize("n", [1, 2, 3, 4, 5, 6, 10, 11, 20])
    def test_more_runs_than_n_with_ties_at_the_floor(self, mode, n):
        runs = [(1, 0, 6), (2, 3, 1), (1, 9, 0), (3, 0, 4), (1, 2, 2),
                (2, 5, 4), (1, 0, 4), (1, 1, 1), (2, 0, 9), (1, 4, 0)]
        report = report_of_runs(runs)
        cell_reads, cell_writes = cells_of(runs)
        counts = (cell_writes if mode is CountingMode.WRITES
                  else [r + w for r, w in zip(cell_reads, cell_writes)])
        assert (top_n_distribution(report.per_cell_reads, report.per_cell_writes,
                                   mode, n)
                == sorted(counts, reverse=True)[:n])

    # A header-only percell-csv loads as views over no runs.
    @pytest.mark.parametrize("mode", list(CountingMode))
    def test_views_over_no_runs(self, mode):
        views = load_percell_csv(io.StringIO("address,reads,writes\n"))
        assert top_n_distribution(*views, mode, 3) == []

    def test_plain_lists_are_refused(self):
        with pytest.raises(ValueError, match="^top-N reads two CellRuns"):
            top_n_distribution([0, 0], [4, 2], CountingMode.ACCESSES, 1)

    def test_runs_of_a_huge_report_stay_runs(self):
        # 2^26 cells in three runs: a per-cell list of them would take
        # 512 MiB, and top-N and len() take none
        report = report_of_runs([(2**25, 1, 2), (2**25 - 1, 0, 0), (1, 9, 9)])
        tracemalloc.start()
        try:
            top = top_n_distribution(report.per_cell_reads,
                                     report.per_cell_writes,
                                     CountingMode.ACCESSES, 5)
            cells = len(report.per_cell_reads), len(report.per_cell_writes)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert top == [18, 3, 3, 3, 3]
        assert cells == (2**26, 2**26)
        assert peak < 2**20

    def test_n_must_be_positive(self):
        with pytest.raises(ValueError, match="^n must be >= 1, got 0$"):
            top_n_distribution(*unit_runs([0], [0]), CountingMode.ACCESSES, 0)

    def test_a_view_is_unequal_to_a_non_sequence(self):
        reads, _ = unit_runs([5], [0])
        assert reads == [5]
        assert (reads == 5) is False


class TestLifespanExtension:
    def test_identity(self):
        stats = stats_from([1, 2, 3])
        assert lifespan_extension(stats, stats) == (1.0, 1.0)

    def test_published_max_endpoint(self):
        # molecule-manipulation row: baseline max 170234 vs golden max 3494
        baseline = SummaryStats(5117.0, 5117.0, 170234, 0, 1)
        candidate = SummaryStats(2812.0, 2812.0, 3494, 0, 1)
        _, max_extension = lifespan_extension(baseline, candidate)
        assert max_extension == pytest.approx(48.72, abs=0.01)

    def test_published_avg_endpoint(self):
        # video-encoder row: baseline avg 694 vs golden avg 110
        baseline = SummaryStats(694.0, 694.0, 2657, 0, 1)
        candidate = SummaryStats(110.0, 110.0, 741, 0, 1)
        avg_extension, _ = lifespan_extension(baseline, candidate)
        assert avg_extension == pytest.approx(6.31, abs=0.01)

    def test_zero_candidate_rejected(self):
        good = stats_from([4])
        zero = stats_from([0])
        with pytest.raises(ValueError, match="^candidate statistic is zero; "
                           "lifespan extension is undefined$"):
            lifespan_extension(good, zero)


def report_of_runs(runs):
    lengths, reads, writes = map(list, zip(*runs))
    return WearReport(
        policy="golden", mem_size_cells=sum(lengths),
        counting_mode=CountingMode.ACCESSES, count_gc_traffic=True,
        gc_count=0, event_count=0,
        run_lengths=lengths, run_reads=reads, run_writes=writes,
        summary=summarize(lengths, reads, writes))


def csv_writer_percell(report):
    """The percell-csv as csv.writer wrote it one row per cell."""
    sink = io.StringIO()
    writer = csv.writer(sink, lineterminator="\n")
    writer.writerow(["address", "reads", "writes"])
    writer.writerows(zip(range(report.mem_size_cells),
                         report.per_cell_reads, report.per_cell_writes))
    return sink.getvalue()


def dense_runs(rng, cells):
    """Runs of 1-3 cells, fewer at the end, over `cells` cells; counts 0-2."""
    runs = []
    while cells:
        length = min(rng.randint(1, 3), cells)
        runs.append((length, rng.randint(0, 2), rng.randint(0, 2)))
        cells -= length
    return runs


def assert_percell_round_trip(runs):
    """The runs' percell-csv is csv.writer's, and reads back as the runs."""
    report = report_of_runs(runs)
    sink = io.StringIO()
    write_percell_csv(report, sink)
    # as lists of lines, which pytest shows by their first difference: its
    # diff of two texts that differ in many rows can run for an hour
    assert (sink.getvalue().splitlines(keepends=True)
            == csv_writer_percell(report).splitlines(keepends=True))
    reads, writes = load_percell_csv(io.StringIO(sink.getvalue()))
    assert (reads, writes) == cells_of(runs)


class RowsFrom:
    """A text sink that counts the rows written after the header and keeps
    them from row `first` on, so that a report of millions of rows is
    checked without being held."""

    def __init__(self, first):
        self.first, self.row, self.kept = first, -1, []  # the header is row -1

    def write(self, text):
        count = text.count("\n")
        if self.row + count > self.first:
            self.kept += text.splitlines()[max(self.first - self.row, 0):]
        self.row += count


def make_report(reads, writes, mode=CountingMode.ACCESSES):
    return WearReport(
        policy="golden", mem_size_cells=len(reads), counting_mode=mode,
        count_gc_traffic=True, gc_count=3, event_count=11,
        run_lengths=[1] * len(reads), run_reads=list(reads),
        run_writes=list(writes),
        summary=summarize([1] * len(reads), reads, writes, mode))


class TestExport:
    def test_percell_round_trip(self):
        report = make_report([1, 0, 2, 0], [0, 5, 1, 0])
        sink = io.StringIO()
        write_percell_csv(report, sink)
        lines = sink.getvalue().splitlines()
        assert lines[0] == "address,reads,writes"
        assert lines[1] == "0,1,0"
        reads, writes = load_percell_csv(io.StringIO(sink.getvalue()))
        assert (reads, writes) == (report.per_cell_reads, report.per_cell_writes)

    # A lead run puts the drawn runs anywhere in the first two blocks, so
    # they start mid-block and cross a block bound; one run always spans
    # more than a block.
    @given(st.data())
    def test_percell_bytes_match_csv_writer(self, data):
        block = metrics.PERCELL_BLOCK_CELLS
        runs = data.draw(runs_lists, label="runs")
        long_run = (block + data.draw(st.integers(1, block)),
                    data.draw(st.integers(0, 3)), data.draw(st.integers(0, 3)))
        runs.insert(data.draw(st.integers(0, len(runs))), long_run)
        runs.insert(0, (data.draw(st.integers(1, 2 * block)), 0, 1))
        assert_percell_round_trip(runs)

    def test_run_longer_than_a_block(self):
        long_run = metrics.PERCELL_BLOCK_CELLS + 3
        assert_percell_round_trip([(2, 0, 0), (long_run, 1, 12), (1, 0, 0)])

    def test_addresses_that_gain_a_digit(self):
        # over a million cells; each address that gains a digit sits inside
        # a run or at a run's edge
        report = report_of_runs([(998, 1, 0), (9003, 0, 2), (90000, 3, 3),
                                 (899999, 0, 0), (5, 7, 1)])
        sink = io.StringIO()
        write_percell_csv(report, sink)
        text = sink.getvalue()
        rows = text.splitlines()[1:]
        assert len(rows) == 1_000_005
        assert rows[997:1001] == ["997,1,0", "998,0,2", "999,0,2", "1000,0,2"]
        assert rows[9999:10002] == ["9999,0,2", "10000,0,2", "10001,3,3"]
        assert rows[99999:100002] == ["99999,3,3", "100000,3,3", "100001,0,0"]
        assert rows[999999:] == ["999999,0,0", "1000000,7,1", "1000001,7,1",
                                 "1000002,7,1", "1000003,7,1", "1000004,7,1"]
        # as lists of lines, which pytest shows by their first difference: its
        # diff of two million-row texts that differ in many rows takes minutes
        assert (text.splitlines(keepends=True)
                == csv_writer_percell(report).splitlines(keepends=True))

    # Blocks past block 0 that one run fills: two in turn whose texts have
    # one width, and one after a dense block that ends in its text.
    @pytest.mark.parametrize("runs", [
        [(1000, 0, 0), (1000, 1, 0), (1000, 2, 0)],
        [(1000, 0, 0), (1500, 1, 0), (1, 2, 2), (1499, 1, 0)],
    ], ids=["texts-of-one-width", "after-a-dense-block"])
    def test_percell_blocks_that_one_run_fills(self, runs):
        assert_percell_round_trip(runs)

    def test_addresses_of_five_digit_blocks(self):
        # one run fills blocks 9999 and 10000, whose prefixes differ in
        # width, and ends in a partial block
        cells = 10_001_007
        first = 9_998_500
        sink = RowsFrom(first)
        write_percell_csv(report_of_runs([(cells, 3, 1)]), sink)
        assert sink.row == cells
        assert sink.kept == [f"{a},3,1" for a in range(first, cells)]

    def test_percell_writes_in_bounded_blocks(self):
        # blocks 1 and 2 lie inside one run each, block 0 holds two runs and
        # block 3 a run per cell
        block = metrics.PERCELL_BLOCK_CELLS
        report = report_of_runs([(5, 0, 1), (2 * block - 5, 2, 0), (block, 1, 1),
                                 *[(1, cell % 3, 0) for cell in range(block)],
                                 (5, 0, 0)])
        sink = mock.Mock()
        write_percell_csv(report, sink)
        rows = [call.args[0].count("\n") for call in sink.write.call_args_list]
        assert sum(rows) == 1 + 4 * block + 5  # the header and every cell
        # the header, then a write per block, whether one run fills it or not
        assert rows == [1, block, block, block, block, 5]

    # Runs of 1-3 cells over 2-4 blocks, split at one inner block bound so
    # that a run ends there and the next starts there; others cross a bound.
    @given(st.integers(2, 4), st.data(), st.integers(0, 2 ** 32))
    def test_percell_dense_runs(self, blocks, data, seed):
        block = metrics.PERCELL_BLOCK_CELLS
        bound = block * data.draw(st.integers(1, blocks - 1), label="bound")
        rng = Random(seed)
        runs = dense_runs(rng, bound) + dense_runs(rng, blocks * block - bound)
        assert_percell_round_trip(runs)

    @pytest.mark.parametrize("cells", [1, 999, 1000, 1001])
    @pytest.mark.parametrize("dense", [False, True])
    def test_percell_memories_about_a_block(self, cells, dense):
        runs = dense_runs(Random(cells), cells) if dense else [(cells, 2, 1)]
        assert_percell_round_trip(runs)

    def test_percell_without_runs_writes_the_header(self):
        report = WearReport(
            policy="golden", mem_size_cells=0,
            counting_mode=CountingMode.ACCESSES, count_gc_traffic=True,
            gc_count=0, event_count=0, run_lengths=[], run_reads=[],
            run_writes=[], summary=SummaryStats(0.0, 0.0, 0, 0, 0))
        sink = io.StringIO()
        write_percell_csv(report, sink)
        assert sink.getvalue() == "address,reads,writes\n"

    def test_percell_loads_one_run_per_run_written(self):
        block = metrics.PERCELL_BLOCK_CELLS
        runs = [(2 * block + 5, 1, 0), (3, 0, 2), (block, 1, 0), (1, 1, 1)]
        report = report_of_runs(runs)
        sink = io.StringIO()
        write_percell_csv(report, sink)
        reads, writes = load_percell_csv(io.StringIO(sink.getvalue()))
        assert reads.lengths is writes.lengths
        assert (reads.lengths, reads.values, writes.values) == (
            report.run_lengths, report.run_reads, report.run_writes)

    def test_percell_rejects_garbage(self):
        with pytest.raises(ValueError):
            load_percell_csv(io.StringIO("rank,count\n1,2\n"))
        # every field is an unsigned decimal of ASCII digits, as in a trace
        for token in ["1_0", "+2", " 3", "\u0663", "-5"]:
            for row in [f"{token},0,0", f"0,{token},0", f"0,0,{token}"]:
                with pytest.raises(ValueError, match="row 1 malformed"):
                    load_percell_csv(
                        io.StringIO(f"address,reads,writes\n{row}\n"))
        # the addresses run 0, 1, 2, ...: none skipped, none repeated
        for rows, bad in [("1,0,0\n", 1), ("0,0,0\n0,0,0\n", 2)]:
            with pytest.raises(ValueError, match=f"^percell-csv row {bad} malformed$"):
                load_percell_csv(io.StringIO(f"address,reads,writes\n{rows}"))

    def test_summary_json_round_trip(self):
        for mode, gc_traffic in ((CountingMode.ACCESSES, True),
                                 (CountingMode.WRITES, False)):
            report = replace(make_report([0, 3], [2, 4], mode),
                             count_gc_traffic=gc_traffic)
            sink = io.StringIO()
            write_summary_json(report, sink)
            stats, basis = load_summary(io.StringIO(sink.getvalue()))
            assert stats == report.summary
            assert basis == {"counting_mode": mode, "mem_size_cells": 2,
                             "count_gc_traffic": gc_traffic}
            assert type(basis["counting_mode"]) is CountingMode
        report = make_report([0, 3], [2, 4])
        sink = io.StringIO()
        write_summary_json(report, sink)
        meta = json.loads(sink.getvalue())
        assert meta["policy"] == "golden"
        assert meta["mem_size_cells"] == 2
        assert meta["counting_mode"] == "accesses"
        assert meta["gc_count"] == 3
        assert meta["event_count"] == 11

    def test_topn_csv(self):
        sink = io.StringIO()
        write_topn_csv([9, 5, 0], sink)
        assert sink.getvalue() == "rank,count\n1,9\n2,5\n3,0\n"

    def test_compare_csv(self):
        report = make_report([0, 0], [4, 2])
        sink = io.StringIO()
        write_compare_csv([compare_csv_row("t.trace", report)], sink)
        lines = sink.getvalue().splitlines()
        assert lines[0] == "trace,policy,avg_all,avg_touched,max,touched,gc_count"
        assert lines[1] == "t.trace,golden,3.0,3.0,4,2,3"
