"""Structural invariant checks shared by engine and acceptance tests."""

from __future__ import annotations


def assert_post_gc_invariants(engine):
    """Live data forms one gap-free block at live_start of the work space."""
    live = list(engine.objects.values())
    total = sum(r.size_cells for r in live)
    assert total == engine.live_len, "live_len out of sync with live objects"
    occupied = set()
    for record in live:
        for i in range(record.size_cells):
            cell = (record.base_cell + i) % engine.capacity
            assert cell not in occupied, "live objects overlap"
            occupied.add(cell)
    expected = {(engine.live_start + i) % engine.capacity
                for i in range(engine.live_len)}
    assert occupied == expected, "live block is not contiguous at live_start"


def assert_disjoint_live(engine):
    """Live objects never overlap, GC or not."""
    occupied = set()
    for record in engine.objects.values():
        for i in range(record.size_cells):
            cell = (record.base_cell + i) % engine.capacity
            assert cell not in occupied
            occupied.add(cell)
