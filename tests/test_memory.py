import pytest
from hypothesis import given, settings, strategies as st

from wearsim.memory import SCAN_BLOCK, CellCounters


def expand(lengths, values):
    """Per-cell values of runs, the slow way."""
    cells = []
    for length, value in zip(lengths, values):
        cells.extend([value] * length)
    return cells


def whole_runs(ring):
    """The ring's runs, read over every block."""
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


@st.composite
def block_scale_cases(draw):
    """A ring of 1-5 scan blocks and a few ranges, most blocks left untouched.

    Sizes include one block less one cell, one block, one block plus one
    cell and exact multiples.  Each range is drawn as its first and its last
    cell, either of them biased to a block's bounds and to the ring's last
    cell, so the deltas land on both sides of every block edge and on the
    extra entry past the ring; a last cell before the first wraps the seam.
    """
    size = draw(st.one_of(
        st.sampled_from([SCAN_BLOCK - 1, SCAN_BLOCK, SCAN_BLOCK + 1,
                         2 * SCAN_BLOCK, 3 * SCAN_BLOCK - 1, 5 * SCAN_BLOCK]),
        st.integers(1, 5 * SCAN_BLOCK)))
    edges = {size - 1}
    for lo in range(0, size + 1, SCAN_BLOCK):
        edges.update(c for c in range(lo - 2, lo + 2) if 0 <= c < size)
    cell = st.one_of(st.sampled_from(sorted(edges)), st.integers(0, size - 1))
    ranges = draw(st.lists(st.tuples(cell, cell, st.sampled_from("RW")), max_size=4))
    return size, [(first, (last - first) % size + 1, kind)
                  for first, last, kind in ranges]


@settings(deadline=None)
@given(block_scale_cases())
def test_runs_across_scan_blocks(case):
    size, calls = case
    ring = CellCounters(size)
    model = {"R": [0] * size, "W": [0] * size}
    for base, length, kind in calls:
        ring.record_range(base, length, kind)
        for i in range(length):
            model[kind][(base + i) % size] += 1
    assert_runs_match(ring, model)
