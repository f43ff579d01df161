"""Differential test: the engine against the naive reference replayer.

Generated traces are replayed under every policy kind, with and without
GC traffic, in the trace's suggested memory and in tighter memories down
to ones that run out.  Both sides must report the same per-cell counts
and collection count, or fail on the same event with the same error.
The generator never reuses an id, so a drawn flag relabels each
allocation to the smallest id not live at that point, which brings freed
ids back, often before the next collection.
A few traces with few objects also run in memories of 2^20 and 2^21
cells, where the engine's report is a handful of long runs, and one
hand-built trace changes the counts in each space's last cells.
Traces with small live sets, in spaces of 2,048 to 8,192 cells, check
that the cells a report reads, those its epochs cover, hold every change.
Traces with frees check each collection on its own: the cells it leaves
live and the cells it moves.
"""

import re
from dataclasses import replace
from functools import partial
from itertools import chain, count

import pytest
from hypothesis import example, given, reject, settings, strategies as st

from reference_replayer import bisected_golden_shift, reference_replay
from test_memory import whole_runs
from wearsim.engine import Engine, EngineConfig, SimulationError, replay
from wearsim.metrics import summarize
from wearsim.policy import golden_shift, parse_policy
from wearsim.trace import Trace
from wearsim.workload import PATTERNS, WorkloadSpec, generate

#: The engine's phrase for each memory failure, and the reference's.
REFERENCE_MESSAGES = {"cannot allocate": "out of memory",
                      "exceeds capacity": "object too large"}
MEMORY_FAILURE = re.compile(rf"event (\d+): .*({'|'.join(REFERENCE_MESSAGES)})")

specs = st.builds(
    WorkloadSpec,
    pattern=st.sampled_from(PATTERNS),
    object_count=st.integers(1, 12),
    op_count=st.integers(1, 250),
    mean_object_size=st.integers(1, 8),
    gc_every=st.integers(1, 60),
    seed=st.integers(0, 2**16),
)
#: 1 keeps the #mem header; larger divisors tighten it down to memories too
#: small for the trace.
mem_divisors = st.one_of(st.just(1), st.integers(2, 12))


def reuse_ids(trace):
    """The trace with each allocation relabelled to the smallest id not live.

    The accesses and the free of an object follow its new id, so a valid
    trace stays valid.
    """
    new_ids: dict[int, int] = {}  # for each live object, old id -> new id
    events = []
    for event in trace.events:
        opcode = event[0]
        if opcode == "A":
            live = set(new_ids.values())
            new_ids[event[1]] = next(i for i in count() if i not in live)
            events.append(("A", new_ids[event[1]], event[2]))
        elif opcode == "F":
            events.append(("F", new_ids.pop(event[1])))
        elif opcode == "G":
            events.append(event)
        else:
            events.append((opcode, new_ids[event[1]], *event[2:]))
    return Trace(events, trace.header)


def assert_same_counts(report, reference):
    assert report.per_cell_reads == reference.reads
    assert report.per_cell_writes == reference.writes
    assert report.gc_count == reference.gc_count


# Policy and GC traffic are a fixed grid, so that every pair is exercised
# in each run; Hypothesis alone draws some pairs rarely.
@pytest.mark.parametrize("count_gc_traffic", [True, False])
@pytest.mark.parametrize(
    "kind", ["golden", "quarter", "fraction:0.3", "none", "random", "single"])
@settings(max_examples=25, deadline=None)
@given(spec=specs, mem_divisor=mem_divisors, random_seed=st.integers(0, 1000),
       reuse=st.booleans())
def test_engine_matches_reference(kind, count_gc_traffic, spec, mem_divisor,
                                  random_seed, reuse):
    policy = f"random:{random_seed}" if kind == "random" else kind
    trace = reuse_ids(generate(spec)) if reuse else generate(spec)
    mem = max(4, trace.header.suggested_mem_size_cells // mem_divisor // 2 * 2)
    config = EngineConfig(mem, parse_policy(policy),
                          count_gc_traffic=count_gc_traffic)

    def reference(events):
        return reference_replay(Trace(events), mem, policy, count_gc_traffic)

    try:
        report = replay(trace, config)
    except SimulationError as err:
        failure = MEMORY_FAILURE.match(str(err))
        assert failure, f"not a memory failure: {err}"
        index = int(failure.group(1))
        prefix = trace.events[:index]
        assert_same_counts(replay(Trace(prefix), config), reference(prefix))
        with pytest.raises(ValueError, match=REFERENCE_MESSAGES[failure.group(2)]):
            reference(trace.events[:index + 1])
        return
    assert_same_counts(report, reference(trace.events))


def collections_of(trace, mem, policy):
    """The engine's (used, write lengths) just after each collection, with GC
    traffic on, and the reference's (live size, [moved cells]), up to the
    event that runs out of memory, if any."""
    engine = Engine(EngineConfig(mem, parse_policy(policy)))
    writes: list[int] = []
    collections: list[tuple[int, list[int]]] = []

    def record_range(inner, base, cells, kind):
        if kind == "W":
            writes.append(cells)
        inner(base, cells, kind)

    def handle_gc(inner=engine.handle_gc):
        writes.clear()
        inner()
        collections.append((engine.used, writes[:]))

    # instance attributes: the engine looks its handlers up per call
    for space in engine.spaces:
        space.record_range = partial(record_range, space.record_range)
    engine.handle_gc = handle_gc
    events = trace.events
    for index, event in enumerate(events):
        done = len(collections)
        try:
            engine.process(event)
        except SimulationError:
            del collections[done:]
            events = events[:index]
            break
    reference = reference_replay(Trace(events), mem, policy)
    return collections, [(live, [moved] if moved else [])
                         for live, moved in zip(reference.gc_live_sizes,
                                                reference.gc_moved_cells)]


#: The only generated traces that free objects.
churn_specs = specs.map(lambda spec: replace(spec, pattern="churn"))


@pytest.mark.parametrize(
    "kind", ["golden", "quarter", "fraction:0.3", "none", "random", "single"])
@settings(max_examples=25, deadline=None)
@given(spec=churn_specs, mem_divisor=mem_divisors, random_seed=st.integers(0, 1000))
def test_collections_match_reference(kind, spec, mem_divisor, random_seed):
    """After each collection of a trace with frees, `used` is the live size,
    and the one write range, if any, is as long as the cells that moved."""
    policy = f"random:{random_seed}" if kind == "random" else kind
    trace = generate(spec)
    mem = max(4, trace.header.suggested_mem_size_cells // mem_divisor // 2 * 2)
    engine, reference = collections_of(trace, mem, policy)
    assert engine == reference


def test_collections_of_a_single_space_match_reference():
    # 144 of the 200 collections keep some objects in place and move others
    trace = generate(WorkloadSpec("churn", 64, 20000, seed=1))
    engine, reference = collections_of(
        trace, trace.header.suggested_mem_size_cells, "single")
    assert engine == reference
    assert any(0 < sum(moved) < live for live, moved in engine)


def assert_large_memory_runs(trace, mem, policy):
    report = replay(trace, EngineConfig(mem, parse_policy(policy),
                                        count_gc_traffic=True))
    reference = reference_replay(trace, mem, policy, count_gc_traffic=True)
    assert_same_counts(report, reference)
    assert report.summary == summarize([1] * mem, reference.reads, reference.writes)
    assert len(report.run_lengths) < 1000  # the report is runs, not cells
    return reference


# golden, fraction:0.3 and single give both rings the same starts in turn;
# random:1 does not, so an epoch recorded with the wrong start shows there
@pytest.mark.parametrize("policy", ["golden", "single", "random:1", "fraction:0.3"])
@pytest.mark.parametrize("pattern, mem", [("loop", 2 ** 21), ("hotspot", 2 ** 20)])
def test_runs_match_reference_in_large_memory(pattern, mem, policy):
    trace = generate(WorkloadSpec(pattern=pattern, object_count=6, op_count=300,
                                  mean_object_size=16, gc_every=25, seed=7))
    assert_large_memory_runs(trace, mem, policy)


@pytest.mark.parametrize("policy", ["golden", "single"])
def test_runs_match_reference_at_the_last_block(policy):
    """Changes in each space's cells past its last multiple of 1,024.

    In 2^20 + 2 cells, that is the last cell of each of golden's rings and
    the last two of the single space.  A filler allocated and freed untouched
    puts a 3-cell object on the work space's last cells; a write to its
    middle cell and the collection that copies it away change the counts
    there, and a second round does the same in the next work space.
    """
    mem = 2 ** 20 + 2
    capacity = mem if policy == "single" else mem // 2
    events = []
    for filler, object_id, used in ((1, 2, 0), (3, 4, 3)):
        events += [("A", filler, capacity - used - 3), ("A", object_id, 3),
                   ("W", object_id, 1, 1), ("F", filler), ("G",)]
    reference = assert_large_memory_runs(Trace(events), mem, policy)
    counts = list(zip(reference.reads, reference.writes))
    for space in range(0, mem, capacity):
        tail = space + capacity // 1024 * 1024
        assert any(counts[cell] != counts[cell - 1]
                   for cell in range(tail, space + capacity))


#: Traces whose live sets take a small part of a space of thousands of cells.
small_live_traces = st.builds(
    WorkloadSpec,
    pattern=st.sampled_from(PATTERNS),
    object_count=st.integers(1, 12),
    op_count=st.integers(1, 200),
    mean_object_size=st.integers(1, 64),
    gc_every=st.integers(1, 40),
    seed=st.integers(0, 2**16),
).map(generate)


@settings(deadline=None)
@given(trace=small_live_traces,
       capacity=st.integers(2048, 8192),
       kind=st.sampled_from(["golden", "quarter", "fraction:0.3", "none",
                             "random", "single"]),
       random_seed=st.integers(0, 1000), count_gc_traffic=st.booleans())
# an epoch ends at cell 1,023, and so do its write and its collection's read
@example(trace=Trace([("A", 1, 1024), ("W", 1, 1000, 24), ("G",)]),
         capacity=2048, kind="golden", random_seed=0, count_gc_traffic=True)
# ring 1's third epoch starts at cell 6258 and wraps to cell 2070: its write
# at cell 1100 lies past the seam, in cells no other epoch of ring 1 covers
@example(trace=Trace([("A", 1, 4), ("G",), ("G",), ("G",), ("G",), ("G",),
                      ("A", 2, 4000), ("W", 2, 3030, 10)]),
         capacity=8192, kind="golden", random_seed=0, count_gc_traffic=False)
# random:0 gives ring 1 its second start, 6311, before ring 0's third epoch
# ends; that epoch writes cells 3,200-3,207 of ring 0, which no other epoch covers
@example(trace=Trace([("A", 1, 4), ("G",), ("G",), ("A", 2, 4000),
                      ("W", 2, 3200, 8), ("G",)]),
         capacity=8192, kind="random", random_seed=0, count_gc_traffic=False)
def test_report_reads_every_cell_that_changed(trace, capacity, kind, random_seed,
                                              count_gc_traffic):
    """The report, which reads only the cells its epochs cover, holds each
    space's runs read over the whole space, and agrees with the reference."""
    policy = f"random:{random_seed}" if kind == "random" else kind
    mem = 2 * capacity  # two rings, or one space of both
    engine = Engine(EngineConfig(mem, parse_policy(policy),
                                 count_gc_traffic=count_gc_traffic))
    try:
        for event in trace.events:
            engine.process(event)
    except SimulationError:
        reject()  # a live set too large for the space
    report = engine.build_report()
    whole = [list(chain.from_iterable(column))
             for column in zip(*map(whole_runs, engine.spaces))]
    assert [report.run_lengths, report.run_reads, report.run_writes] == whole
    assert_same_counts(report, reference_replay(trace, mem, policy, count_gc_traffic))


@given(st.integers(min_value=2, max_value=2**64))
def test_reference_golden_shift_is_exact(capacity):
    assert bisected_golden_shift(capacity) == golden_shift(capacity)
