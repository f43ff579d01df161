import pytest
from hypothesis import given, settings, strategies as st

from wearsim.memory import CellCounters


def expand(lengths, values):
    """Per-cell values of runs, the slow way."""
    cells = []
    for length, value in zip(lengths, values):
        cells.extend([value] * length)
    return cells


def whole_runs(ring):
    """The ring's runs, read over every cell."""
    return ring.runs([(0, ring.size_cells)])


def cell_counts(ring, kind):
    """The ring's per-cell counts of `kind`, expanded from its runs."""
    lengths, reads, writes = whole_runs(ring)
    return expand(lengths, writes if kind == "W" else reads)


def assert_runs_match(ring, model):
    """The ring's runs are well formed and expand to the naive model's counts.

    `model` maps "R" and "W" to per-cell counts kept one cell at a time.
    """
    lengths, reads, writes = whole_runs(ring)
    assert len(lengths) == len(reads) == len(writes)
    assert all(length >= 1 for length in lengths)
    assert sum(lengths) == ring.size_cells
    pairs = list(zip(reads, writes))
    assert all(a != b for a, b in zip(pairs, pairs[1:])), "adjacent runs equal"
    assert expand(lengths, reads) == model["R"]
    assert expand(lengths, writes) == model["W"]


class TestRecordRange:
    def test_wrap_touches_expected_cells(self):
        ring = CellCounters(10)
        ring.record_range(8, 5, "W")
        assert cell_counts(ring, "W") == [1, 1, 1, 0, 0, 0, 0, 0, 1, 1]
        assert cell_counts(ring, "R") == [0] * 10

    def test_additivity(self):
        ring = CellCounters(10)
        ring.record_range(8, 5, "W")
        ring.record_range(8, 5, "W")
        writes = cell_counts(ring, "W")
        assert [writes[c] for c in (8, 9, 0, 1, 2)] == [2] * 5

    def test_kind_separation(self):
        ring = CellCounters(4)
        ring.record_range(0, 4, "R")
        assert sum(cell_counts(ring, "W")) == 0
        assert sum(cell_counts(ring, "R")) == 4

    def test_empty_ring_rejected(self):
        with pytest.raises(ValueError, match="size_cells must be >= 1, got 0"):
            CellCounters(0)

    def test_full_ring_range(self):
        ring = CellCounters(6)
        ring.record_range(3, 6, "R")
        assert cell_counts(ring, "R") == [1] * 6

    def test_too_long_range_rejected(self):
        ring = CellCounters(10)
        with pytest.raises(ValueError, match="exceeds ring size"):
            ring.record_range(0, 11, "R")

    def test_zero_length_rejected(self):
        with pytest.raises(ValueError):
            CellCounters(10).record_range(0, 0, "R")

    def test_base_out_of_range_rejected(self):
        with pytest.raises(ValueError):
            CellCounters(10).record_range(10, 1, "R")

    def test_unknown_kind_rejected(self):
        # a kind other than the opcodes "R" and "W" is refused, not counted
        ring = CellCounters(4)
        with pytest.raises(ValueError, match="got 'write'"):
            ring.record_range(0, 2, "write")
        assert whole_runs(ring) == ([4], [0], [0])

    @pytest.mark.parametrize("kind", ["R", "W"], ids=["read", "write"])
    def test_every_range_of_small_rings(self, kind):
        # every base and length on rings of 1-9 cells, so ranges that end
        # exactly at the seam and full-ring ranges from every base are covered
        for size in range(1, 10):
            for base in range(size):
                for length in range(1, size + 1):
                    ring = CellCounters(size)
                    ring.record_range(base, length, kind)
                    model = {"R": [0] * size, "W": [0] * size}
                    for i in range(length):
                        model[kind][(base + i) % size] += 1
                    assert_runs_match(ring, model)

    def test_runs_of_a_fresh_ring(self):
        assert whole_runs(CellCounters(7)) == ([7], [0], [0])

    def test_runs_split_where_either_kind_changes(self):
        ring = CellCounters(10)
        ring.record_range(2, 4, "R")  # cells 2-5
        ring.record_range(4, 4, "W")  # cells 4-7
        assert whole_runs(ring) == ([2, 2, 2, 2, 2], [0, 1, 1, 0, 0], [0, 0, 1, 1, 0])

    def test_ranges_that_cancel_leave_one_run(self):
        # the wrapping range starts and ends at cell 3, so its +1 and -1
        # there cancel and no run starts at cell 3
        ring = CellCounters(6)
        ring.record_range(0, 6, "W")
        ring.record_range(3, 6, "W")
        assert whole_runs(ring) == ([6], [0], [2])

    def test_reading_counts_does_not_consume_them(self):
        ring = CellCounters(5)
        ring.record_range(3, 4, "W")
        assert cell_counts(ring, "W") == [1, 1, 0, 1, 1]
        ring.record_range(1, 3, "W")
        assert cell_counts(ring, "W") == [1, 2, 1, 2, 1]
        assert cell_counts(ring, "W") == [1, 2, 1, 2, 1]

    # Both kinds share one difference array, where a write counts 2**64.
    def test_read_ending_where_a_write_starts(self):
        # the packed delta at cell 5 is 2**64 - 1: a run starts there
        ring = CellCounters(10)
        ring.record_range(2, 3, "R")  # cells 2-4
        ring.record_range(5, 3, "W")  # cells 5-7
        assert whole_runs(ring) == ([2, 3, 3, 2], [0, 1, 0, 0], [0, 0, 1, 0])

    def test_write_ending_where_a_read_starts(self):
        # the packed delta at cell 5 is 1 - 2**64: a run starts there
        ring = CellCounters(10)
        ring.record_range(2, 3, "W")  # cells 2-4
        ring.record_range(5, 3, "R")  # cells 5-7
        assert whole_runs(ring) == ([2, 3, 3, 2], [0, 0, 1, 0], [0, 1, 0, 0])

    def test_many_reads_under_few_writes_stay_exact(self):
        # 100 reads and 3 writes over overlapping ranges, some wrapping the
        # seam: no count of one kind leaks into the other
        size = 16
        ring = CellCounters(size)
        model = {"R": [0] * size, "W": [0] * size}
        calls = [((7 * i) % size, 1 + i % size, "R") for i in range(100)]
        calls += [(3, 10, "W"), (9, 12, "W"), (0, 16, "W")]
        for base, length, kind in calls:
            ring.record_range(base, length, kind)
            for i in range(length):
                model[kind][(base + i) % size] += 1
        assert max(model["R"]) > 50 and max(model["W"]) == 3
        assert_runs_match(ring, model)

    def test_read_and_write_both_wrapping_the_seam(self):
        ring = CellCounters(8)
        ring.record_range(6, 4, "R")  # cells 6, 7, 0, 1
        ring.record_range(5, 6, "W")  # cells 5-7, 0-2
        assert whole_runs(ring) == ([2, 1, 2, 1, 2],
                                    [1, 0, 0, 0, 1],
                                    [1, 1, 0, 1, 1])

    @given(st.integers(min_value=1, max_value=64).flatmap(
        lambda size: st.tuples(
            st.just(size),
            st.lists(st.tuples(st.integers(0, size - 1), st.integers(1, size),
                               st.sampled_from("RW")),
                     max_size=30))))
    def test_conservation_and_wrap(self, case):
        size, calls = case
        ring = CellCounters(size)
        model = {"R": [0] * size, "W": [0] * size}
        for base, length, kind in calls:
            before = cell_counts(ring, kind)
            ring.record_range(base, length, kind)
            after = cell_counts(ring, kind)
            touched = {i for i in range(size) if after[i] != before[i]}
            assert touched == {(base + i) % size for i in range(length)}
            assert all(after[i] == before[i] + 1 for i in touched)
            for i in range(length):
                model[kind][(base + i) % size] += 1
        assert_runs_match(ring, model)
        assert (sum(model["R"]) + sum(model["W"])
                == sum(length for _, length, _ in calls))


def record(ring, model, calls):
    """Record each (base, length, kind) call in the ring and, cell by cell, in
    `model`, which maps "R" and "W" to per-cell counts."""
    for base, length, kind in calls:
        ring.record_range(base, length, kind)
        for i in range(length):
            model[kind][(base + i) % ring.size_cells] += 1


@st.composite
def large_ring_cases(draw):
    """A ring of up to 5,120 cells and a few ranges, most cells left untouched.

    Sizes include 1,023, 1,024 and 1,025 cells and multiples of 1,024.
    Each range is drawn as its first and its last cell, either of them
    biased to the cells around each multiple of 1,024 and to the ring's
    last cell, so the deltas land on both sides of those cells and on the
    extra entry past the ring; a last cell before the first wraps the seam.
    """
    size = draw(st.one_of(st.sampled_from([1023, 1024, 1025, 2048, 3071, 5120]),
                          st.integers(1, 5120)))
    edges = {size - 1}
    for lo in range(0, size + 1, 1024):
        edges.update(c for c in range(lo - 2, lo + 2) if 0 <= c < size)
    cell = st.one_of(st.sampled_from(sorted(edges)), st.integers(0, size - 1))
    ranges = draw(st.lists(st.tuples(cell, cell, st.sampled_from("RW")), max_size=4))
    return size, [(first, (last - first) % size + 1, kind)
                  for first, last, kind in ranges]


@settings(deadline=None)
@given(large_ring_cases())
def test_runs_of_large_rings(case):
    size, calls = case
    ring = CellCounters(size)
    model = {"R": [0] * size, "W": [0] * size}
    record(ring, model, calls)
    assert_runs_match(ring, model)


@st.composite
def arc_cases(draw):
    """A ring, (start, cells) arcs of it in any order, and ranges inside them.

    An arc may be empty, wrap the seam, or end at the ring's last cell or
    one cell either side of it.  One drawn from a cell of an earlier arc
    nests in it, or shares its start, or overlaps it; others overlap at
    random.  Each range lies inside one arc.
    """
    size = draw(st.integers(1, 40))
    arcs = []
    for _ in range(draw(st.integers(0, 6))):
        if arcs and draw(st.booleans()):  # from a cell of an earlier arc
            start, cells = draw(st.sampled_from(arcs))
            offset = draw(st.integers(0, cells))
            arcs.append(((start + offset) % size,
                         draw(st.one_of(st.integers(0, cells - offset), st.integers(0, size)))))
        else:
            start = draw(st.integers(0, size - 1))
            ends = [end - start for end in (size - 1, size, size + 1)
                    if 0 <= end - start <= size]
            arcs.append((start, draw(st.one_of(st.sampled_from(ends),
                                               st.integers(0, size)))))
    filled = [arc for arc in arcs if arc[1]]
    calls = []
    if filled:
        for start, cells in draw(st.lists(st.sampled_from(filled), max_size=8)):
            offset = draw(st.integers(0, cells - 1))
            calls.append(((start + offset) % size, draw(st.integers(1, cells - offset)),
                          draw(st.sampled_from("RW"))))
    return size, arcs, calls


@given(arc_cases())
def test_runs_read_over_the_arcs(case):
    """Runs read over arcs that hold every range are those read over the
    whole ring, and expand to a per-cell model."""
    size, arcs, calls = case
    ring = CellCounters(size)
    model = {"R": [0] * size, "W": [0] * size}
    record(ring, model, calls)
    assert ring.runs(arcs) == whole_runs(ring)
    assert_runs_match(ring, model)


def test_runs_over_a_wrapped_arc_whose_piece_past_the_seam_is_longest():
    # the second arc's piece past the seam, cells 0-5 and the cell just
    # past them, is the longest, and that arc is neither the first nor the
    # last in address order; a run starts at cell 9, where two arcs overlap
    ring = CellCounters(10)
    ring.record_range(8, 8, "W")  # cells 8, 9, 0-5
    ring.record_range(4, 2, "R")
    ring.record_range(3, 1, "R")
    ring.record_range(9, 1, "R")
    assert ring.runs([(9, 2), (8, 8), (3, 1)]) == ([3, 3, 2, 1, 1], [0, 1, 0, 0, 1],
                                                   [1, 1, 0, 1, 1])


def test_runs_over_arcs_that_share_a_start():
    # the longer arc from cell 1 holds the write at cell 4
    ring = CellCounters(8)
    ring.record_range(1, 1, "R")
    ring.record_range(4, 1, "W")
    assert ring.runs([(1, 1), (1, 5), (1, 0)]) == ([1, 1, 2, 1, 3], [0, 1, 0, 0, 0],
                                                   [0, 0, 0, 1, 0])


@pytest.mark.parametrize("size", [1, 2, 7])
def test_runs_over_no_arcs_of_an_untouched_ring(size):
    assert CellCounters(size).runs([]) == ([size], [0], [0])
