"""Structural invariant checks on an engine's allocation state.

The engine holds its free space as `start` and `used`: the arc of `used`
cells from `start` around the work ring holds every live object, each
object's cells its own.  Right after a collection, the live objects tile
that arc exactly, so no cell in it is free.
"""

from __future__ import annotations


def live_cells(engine):
    """The work-ring cells of every live object; fails if two overlap."""
    occupied = set()
    for record in engine.objects.values():
        for i in range(record.size_cells):
            cell = (record.base_cell + i) % engine.capacity
            assert cell not in occupied, "live objects overlap"
            occupied.add(cell)
    return occupied


def used_arc(engine):
    return {(engine.start + i) % engine.capacity for i in range(engine.used)}


def assert_disjoint_live(engine):
    """Live objects never overlap, and they lie in the used arc, GC or not."""
    assert engine.used <= engine.capacity, "more cells used than the ring has"
    assert live_cells(engine) <= used_arc(engine), "live object outside the used arc"


def assert_post_gc_invariants(engine):
    """Live data forms one gap-free block of `used` cells at `start`."""
    total = sum(r.size_cells for r in engine.objects.values())
    assert total == engine.used, "used out of sync with live objects"
    assert live_cells(engine) == used_arc(engine), "live block is not the used arc"
