import pytest
from hypothesis import given, strategies as st

from wearsim.memory import AccessKind, CellCounters


def expand(lengths, values):
    """Per-cell values of runs, the slow way."""
    cells = []
    for length, value in zip(lengths, values):
        cells.extend([value] * length)
    return cells


def assert_runs_match(ring):
    """The ring's runs are well formed and expand to its per-cell counts."""
    lengths, reads, writes = ring.runs()
    assert len(lengths) == len(reads) == len(writes)
    assert all(length >= 1 for length in lengths)
    assert sum(lengths) == ring.size_cells
    pairs = list(zip(reads, writes))
    assert all(a != b for a, b in zip(pairs, pairs[1:])), "adjacent runs equal"
    assert expand(lengths, reads) == ring.reads
    assert expand(lengths, writes) == ring.writes


class TestRecordRange:
    def test_wrap_touches_expected_cells(self):
        ring = CellCounters(10)
        ring.record_range(8, 5, AccessKind.WRITE)
        assert ring.writes == [1, 1, 1, 0, 0, 0, 0, 0, 1, 1]
        assert ring.reads == [0] * 10

    def test_additivity(self):
        ring = CellCounters(10)
        ring.record_range(8, 5, AccessKind.WRITE)
        ring.record_range(8, 5, AccessKind.WRITE)
        assert [ring.writes[c] for c in (8, 9, 0, 1, 2)] == [2] * 5

    def test_kind_separation(self):
        ring = CellCounters(4)
        ring.record_range(0, 4, AccessKind.READ)
        assert sum(ring.writes) == 0
        assert sum(ring.reads) == 4

    def test_full_ring_range(self):
        ring = CellCounters(6)
        ring.record_range(3, 6, AccessKind.READ)
        assert ring.reads == [1] * 6

    def test_too_long_range_rejected(self):
        ring = CellCounters(10)
        with pytest.raises(ValueError, match="exceeds ring size"):
            ring.record_range(0, 11, AccessKind.READ)

    def test_zero_length_rejected(self):
        with pytest.raises(ValueError):
            CellCounters(10).record_range(0, 0, AccessKind.READ)

    def test_base_out_of_range_rejected(self):
        with pytest.raises(ValueError):
            CellCounters(10).record_range(10, 1, AccessKind.READ)

    @pytest.mark.parametrize("kind", list(AccessKind))
    def test_every_range_of_small_rings(self, kind):
        # every base and length on rings of 1-9 cells, so ranges that end
        # exactly at the seam and full-ring ranges from every base are covered
        for size in range(1, 10):
            for base in range(size):
                for length in range(1, size + 1):
                    ring = CellCounters(size)
                    ring.record_range(base, length, kind)
                    expected = [0] * size
                    for i in range(length):
                        expected[(base + i) % size] += 1
                    counted, other = ((ring.writes, ring.reads)
                                      if kind is AccessKind.WRITE
                                      else (ring.reads, ring.writes))
                    assert counted == expected, (size, base, length)
                    assert other == [0] * size, (size, base, length)
                    assert_runs_match(ring)

    def test_runs_of_a_fresh_ring(self):
        assert CellCounters(7).runs() == ([7], [0], [0])

    def test_runs_split_where_either_kind_changes(self):
        ring = CellCounters(10)
        ring.record_range(2, 4, AccessKind.READ)   # cells 2-5
        ring.record_range(4, 4, AccessKind.WRITE)  # cells 4-7
        assert ring.runs() == ([2, 2, 2, 2, 2], [0, 1, 1, 0, 0], [0, 0, 1, 1, 0])

    def test_ranges_that_cancel_leave_one_run(self):
        # the wrapping range starts and ends at cell 3, so its +1 and -1
        # there cancel and no run starts at cell 3
        ring = CellCounters(6)
        ring.record_range(0, 6, AccessKind.WRITE)
        ring.record_range(3, 6, AccessKind.WRITE)
        assert ring.runs() == ([6], [0], [2])

    def test_reading_counts_does_not_consume_them(self):
        ring = CellCounters(5)
        ring.record_range(3, 4, AccessKind.WRITE)
        assert ring.writes == [1, 1, 0, 1, 1]
        ring.record_range(1, 3, AccessKind.WRITE)
        assert ring.writes == [1, 2, 1, 2, 1]
        assert ring.writes == [1, 2, 1, 2, 1]

    @given(st.integers(min_value=1, max_value=64).flatmap(
        lambda size: st.tuples(
            st.just(size),
            st.lists(st.tuples(st.integers(0, size - 1), st.integers(1, size),
                               st.sampled_from(list(AccessKind))),
                     max_size=30))))
    def test_conservation_and_wrap(self, case):
        size, calls = case
        ring = CellCounters(size)
        for base, length, kind in calls:
            before = list(ring.writes if kind is AccessKind.WRITE else ring.reads)
            ring.record_range(base, length, kind)
            after = ring.writes if kind is AccessKind.WRITE else ring.reads
            touched = {i for i in range(size) if after[i] != before[i]}
            assert touched == {(base + i) % size for i in range(length)}
            assert all(after[i] == before[i] + 1 for i in touched)
        assert_runs_match(ring)
        assert (sum(ring.reads) + sum(ring.writes)
                == sum(length for _, length, _ in calls))

