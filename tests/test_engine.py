import re

import pytest
from hypothesis import example, given, settings, strategies as st

from invariants import assert_disjoint_live, assert_post_gc_invariants
from reference_replayer import reference_replay
from test_memory import cell_counts, whole_runs
from test_oracle import assert_same_counts, churn_specs, mem_divisors, specs
from wearsim.engine import (MAX_MEM_CELLS, Engine, EngineConfig, SimulationError,
                            replay)
from wearsim.memory import CellCounters
from wearsim.metrics import CountingMode
from wearsim.policy import Policy, parse_policy
from wearsim.trace import Trace
from wearsim.workload import WorkloadSpec, generate


def engine_for(mem=20, policy="golden"):
    return Engine(EngineConfig(mem, parse_policy(policy)))


def cell_total(engine):
    """Reads plus writes over every cell of every space."""
    return sum(length * (reads + writes) for space in engine.spaces
               for length, reads, writes in zip(*whole_runs(space)))


class TestConfig:
    def test_odd_memory_rejected(self):
        with pytest.raises(ValueError):
            EngineConfig(21, Policy("golden"))

    def test_too_small_memory_rejected(self):
        with pytest.raises(ValueError):
            EngineConfig(2, Policy("golden"))

    def test_memory_limit_is_accepted(self):
        # only the config: an engine this large would take 0.5 GiB
        assert EngineConfig(MAX_MEM_CELLS, Policy("golden")).mem_size_cells == 2 ** 26

    def test_memory_past_the_limit_rejected(self):
        with pytest.raises(ValueError, match=r"limit of 67108864 cells.* 0\.5 GiB"):
            EngineConfig(MAX_MEM_CELLS + 2, Policy("golden"))

    def test_memory_past_a_float_rejected(self):
        # 10^317 cells take more GiB than a float holds
        with pytest.raises(ValueError, match=r"limit of 67108864 cells.* need at least "
                                             r"74505805969238281250+ GiB$"):
            EngineConfig(10 ** 317, Policy("golden"))

    @pytest.mark.parametrize("value", [20.0, True, "20"])
    def test_memory_must_be_an_int(self, value):
        message = f"mem_size_cells must be an int, got {value!r}"
        with pytest.raises(ValueError, match=f"^{re.escape(message)}$"):
            EngineConfig(value, Policy("golden"))

    @pytest.mark.parametrize("value", ["golden", None, 1])
    def test_policy_must_be_a_policy(self, value):
        # a str would reach Engine, which reads policy.is_dual_ring
        message = f"policy must be a Policy, got {value!r}"
        with pytest.raises(ValueError, match=f"^{re.escape(message)}$"):
            EngineConfig(20, value)

    @pytest.mark.parametrize("value", [1, 0, None, "yes"])
    def test_gc_traffic_flag_must_be_a_bool(self, value):
        # a 1 would reach summary-json, which load_summary refuses
        message = f"count_gc_traffic must be a bool, got {value!r}"
        with pytest.raises(ValueError, match=f"^{re.escape(message)}$"):
            EngineConfig(20, Policy("golden"), count_gc_traffic=value)

    def test_ring_is_half_of_memory(self):
        assert engine_for(20).capacity == 10
        assert engine_for(20, "single").capacity == 20


class TestAlloc:
    def test_first_allocation_at_head(self):
        engine = engine_for(20)
        engine.handle_alloc(1, 3)
        assert engine.objects[1].base_cell == 0
        assert (engine.start, engine.used) == (0, 3)
        assert cell_total(engine) == 0  # allocation touches no cells

    def test_object_larger_than_ring(self):
        with pytest.raises(SimulationError,
                           match="object 1 of 11 cells exceeds capacity 10"):
            engine_for(20).handle_alloc(1, 11)

    def test_out_of_memory_after_gc(self):
        engine = engine_for(20)
        engine.handle_alloc(1, 8)
        with pytest.raises(SimulationError, match="cannot allocate 5 cells for "
                           "object 2: 8 cells live, 2 free"):
            engine.handle_alloc(2, 5)
        assert len(engine.epochs) == 1  # one collection was attempted first

    def test_gc_makes_room_for_retry(self):
        engine = engine_for(20)
        engine.handle_alloc(1, 6)
        engine.handle_free(1)
        engine.handle_alloc(2, 6)  # only fits once the dead cells are reclaimed
        assert len(engine.epochs) == 1
        assert 2 in engine.objects

    def test_exact_fit_after_gc(self):
        engine = engine_for(20)
        engine.handle_alloc(1, 4)
        engine.handle_free(1)
        engine.handle_alloc(2, 10)  # the whole ring, free only after the GC
        assert len(engine.epochs) == 1
        assert engine.used == engine.capacity

    def test_id_reuse_after_free(self):
        engine = engine_for(20)
        engine.handle_alloc(1, 2)
        engine.handle_free(1)
        engine.handle_alloc(1, 3)
        assert engine.objects[1].size_cells == 3
        engine.handle_gc()  # copies the new object once, all 3 of its cells
        assert cell_counts(engine.spaces[0], "R") == [0, 0, 1, 1, 1, 0, 0, 0, 0, 0]
        assert cell_counts(engine.spaces[1], "W") == [1, 1, 1, 0, 0, 0, 0, 0, 0, 0]
        assert cell_total(engine) == 6
        assert engine.used == 3


class TestFree:
    def test_metadata_only(self):
        engine = engine_for(20)
        engine.handle_alloc(1, 3)
        engine.handle_free(1)
        assert 1 not in engine.objects
        assert cell_total(engine) == 0

    def test_dead_objects_are_not_copied(self):
        engine = engine_for(20)
        engine.handle_alloc(1, 3)
        engine.handle_free(1)
        engine.handle_gc()
        assert cell_total(engine) == 0
        assert len(engine.epochs) == 1
        assert engine.work_ring == 1  # roles still swap on an empty collection


class TestAccess:
    def test_write_wraps_around_ring_seam(self):
        # fraction:0.8 on a 10-cell ring shifts by 8, so the ring's second
        # use as destination starts at cell 8 and a 5-cell object wraps.
        engine = engine_for(20, "fraction:0.8")
        engine.handle_alloc(1, 5)
        engine.handle_gc()  # to ring 1 at 0
        engine.handle_gc()  # to ring 0 at 0
        engine.handle_gc()  # to ring 1 at 8
        record = engine.objects[1]
        assert (engine.work_ring, record.base_cell) == (1, 8)
        before = cell_counts(engine.spaces[1], "W")
        engine.process(("W", 1, 0, 5))
        after = cell_counts(engine.spaces[1], "W")
        touched = {c for c in range(10) if after[c] != before[c]}
        assert touched == {8, 9, 0, 1, 2}

    def test_read_does_not_touch_write_counters(self):
        engine = engine_for(20)
        engine.handle_alloc(1, 4)
        engine.process(("R", 1, 0, 4))
        report = engine.build_report()
        assert sum(report.per_cell_writes) == 0
        assert sum(report.per_cell_reads) == 4


class TestGc:
    def test_first_collection_copies_to_idle_head(self):
        engine = engine_for(20)
        engine.handle_alloc(0, 4)
        engine.handle_alloc(1, 3)  # lands at base 4
        engine.handle_free(0)
        engine.handle_gc()
        record = engine.objects[1]
        assert (engine.work_ring, record.base_cell) == (1, 0)
        assert cell_counts(engine.spaces[0], "R") == [0, 0, 0, 0, 1, 1, 1, 0, 0, 0]
        assert cell_counts(engine.spaces[1], "W") == [1, 1, 1, 0, 0, 0, 0, 0, 0, 0]
        assert engine.work_ring == 1
        assert_post_gc_invariants(engine)

    def test_copy_preserves_base_order(self):
        engine = engine_for(20)
        engine.handle_alloc(1, 2)
        engine.handle_alloc(2, 3)
        engine.handle_gc()
        engine.handle_free(1)
        engine.handle_alloc(3, 1)
        engine.handle_gc()
        # survivors at bases 2 (object 2) and 5 (object 3) compact in order
        assert engine.objects[2].base_cell == 0
        assert engine.objects[3].base_cell == 3
        assert_post_gc_invariants(engine)

    def test_empty_collection(self):
        engine = engine_for(20)
        engine.handle_gc()
        assert len(engine.epochs) == 1
        assert engine.used == 0
        assert cell_total(engine) == 0
        assert engine.work_ring == 1

    def test_work_space_alternates(self):
        dual, single = engine_for(20), engine_for(20, "single")
        rings = []
        for _ in range(3):
            dual.handle_gc()
            single.handle_gc()
            rings.append((dual.work_ring, single.work_ring))
        assert rings == [(1, 0), (0, 0), (1, 0)]

    def test_second_use_of_a_ring_starts_at_shift(self):
        engine = engine_for(720)  # ring of 360, golden shift 137
        engine.handle_alloc(1, 3)
        engine.handle_gc()
        engine.handle_gc()
        engine.handle_gc()  # ring 1 again, two collections later
        assert engine.objects[1].base_cell == 137

    def test_no_gc_traffic_mode(self):
        trace = Trace([("A", 1, 3), ("W", 1, 0, 3), ("G",), ("W", 1, 0, 3)])
        config = EngineConfig(20, Policy("golden"), count_gc_traffic=False)
        report = replay(trace, config)
        assert sum(report.per_cell_writes) == 6
        assert sum(report.per_cell_reads) == 0


def watch_gc_calls(monkeypatch) -> list[list[tuple]]:
    """Each later collection's record_range calls, as (space, base, cells, kind).

    The wrappers sit on the classes, as a profiler's would.
    """
    calls: list[list[tuple]] = []
    collecting: list[Engine] = []  # the engine inside handle_gc, if any
    inner_gc, inner_record = Engine.handle_gc, CellCounters.record_range

    def handle_gc(engine):
        calls.append([])
        collecting.append(engine)
        try:
            inner_gc(engine)
        finally:
            collecting.pop()

    def record_range(space, base, cells, kind):
        if collecting:
            calls[-1].append((collecting[-1].spaces.index(space), base, cells, kind))
        inner_record(space, base, cells, kind)

    monkeypatch.setattr(Engine, "handle_gc", handle_gc)
    monkeypatch.setattr(CellCounters, "record_range", record_range)
    return calls


class TestGcRanges:
    """A collection records one write range and one read range per run of
    adjacent source objects; each trace is checked cell for cell against
    the reference replayer, which records every object on its own."""

    # golden, mem 20: rings of 10 cells, and each ring's starts go 0, 3, 6.
    # At the fifth collection ring 0 holds 1 at 3-6, 2 at 7-8 and 3 at 9-1,
    # one run across the seam, and ring 1 takes them from 6, across it too.
    # At the sixth, ring 1 holds 2 at 0-1, 3 at 2-4 and 1 at 6-9: 1 ends at
    # the seam where 2 begins, but the copy goes in ascending base order,
    # so 1 is a run of its own.
    SEAM = [("A", 1, 4), ("G",), ("G",), ("G",), ("G",), ("A", 2, 2), ("A", 3, 3),
            ("W", 3, 0, 3), ("G",), ("W", 1, 3, 1), ("G",)]
    SEAM_CALLS = [[(0, 0, 4, "R"), (1, 0, 4, "W")],
                  [(1, 0, 4, "R"), (0, 0, 4, "W")],
                  [(0, 0, 4, "R"), (1, 3, 4, "W")],
                  [(1, 3, 4, "R"), (0, 3, 4, "W")],
                  [(0, 3, 9, "R"), (1, 6, 9, "W")],
                  [(1, 0, 5, "R"), (1, 6, 4, "R"), (0, 6, 9, "W")]]
    # single, mem 20: 1 stays at 0, and 3 and 4 slide down as one run
    TAIL = [("A", 1, 3), ("A", 2, 2), ("A", 3, 3), ("A", 4, 2), ("W", 3, 0, 3),
            ("W", 4, 1, 1), ("F", 2), ("G",), ("W", 4, 0, 2)]
    TAIL_CALLS = [[(0, 5, 5, "R"), (0, 3, 5, "W")]]
    # golden, mem 20: at the fourth collection ring 1 is full (3 at 0-2,
    # 1 at 3-6, 2 at 7-9), so both ranges are the whole ring
    FULL = [("A", 1, 4), ("G",), ("G",), ("G",), ("A", 2, 3), ("A", 3, 3),
            ("W", 2, 0, 3), ("G",)]
    FULL_CALLS = [[(0, 0, 4, "R"), (1, 0, 4, "W")],
                  [(1, 0, 4, "R"), (0, 0, 4, "W")],
                  [(0, 0, 4, "R"), (1, 3, 4, "W")],
                  [(1, 0, 10, "R"), (0, 3, 10, "W")]]

    @pytest.mark.parametrize("count_gc_traffic", [True, False])
    @pytest.mark.parametrize("events, policy, expected", [
        pytest.param(SEAM, "golden", SEAM_CALLS, id="seam"),
        pytest.param(TAIL, "single", TAIL_CALLS, id="tail"),
        pytest.param(FULL, "golden", FULL_CALLS, id="full")])
    def test_ranges(self, monkeypatch, events, policy, expected, count_gc_traffic):
        calls = watch_gc_calls(monkeypatch)
        config = EngineConfig(20, parse_policy(policy), count_gc_traffic)
        report = replay(Trace(events), config)
        assert_same_counts(report, reference_replay(Trace(events), 20, policy,
                                                    count_gc_traffic))
        assert calls == (expected if count_gc_traffic else [[]] * len(expected))

    @settings(max_examples=100, deadline=None)
    @given(spec=specs, mem_divisor=mem_divisors,
           policy=st.sampled_from(["golden", "quarter", "none", "single"]))
    def test_one_write_and_one_read_per_run(self, spec, mem_divisor, policy):
        trace = generate(spec)
        mem = max(4, trace.header.suggested_mem_size_cells // mem_divisor // 2 * 2)
        engine = Engine(EngineConfig(mem, parse_policy(policy)))
        with pytest.MonkeyPatch.context() as monkeypatch:
            calls = watch_gc_calls(monkeypatch)
            for event in trace.events:
                before = {object_id: (r.base_cell, r.size_cells)
                          for object_id, r in engine.objects.items()}
                source, gc_count = engine.work_ring, len(engine.epochs)
                try:
                    engine.process(event)
                except SimulationError:
                    return
                if len(engine.epochs) == gc_count:
                    continue
                # an object moves unless it keeps its space and its base; an
                # allocation that forced the collection comes after it
                after = {object_id: engine.objects[object_id].base_cell
                         for object_id in before}
                moved = sorted(
                    (base, size, after[object_id])
                    for object_id, (base, size) in before.items()
                    if (engine.work_ring, after[object_id]) != (source, base))
                runs = []
                for base, size, _ in moved:
                    if runs and sum(runs[-1][1:]) == base:
                        runs[-1][2] += size
                    else:
                        runs.append([source, base, size])
                expected = [(*run, "R") for run in runs]
                if moved:
                    expected.append((engine.work_ring, moved[0][2],
                                     sum(size for _, size, _ in moved), "W"))
                assert calls[-1] == expected


class TestSingleSpace:
    def test_unmoved_object_records_nothing(self):
        engine = engine_for(20, "single")
        engine.handle_alloc(1, 3)
        engine.handle_alloc(2, 2)
        engine.handle_free(2)  # a free, so the collection walks the live set
        engine.handle_gc()  # 1 already at 0: no traffic
        assert cell_total(engine) == 0
        assert engine.objects[1].base_cell == 0
        assert engine.used == 3

    def test_collections_with_no_free_between_move_nothing(self, monkeypatch):
        calls = watch_gc_calls(monkeypatch)
        engine = engine_for(20, "single")
        engine.handle_alloc(1, 3)
        engine.handle_gc()
        engine.handle_alloc(2, 2)
        engine.handle_gc()
        assert calls == [[], []] and cell_total(engine) == 0
        assert {object_id: (r.size_cells, r.base_cell)
                for object_id, r in engine.objects.items()} == {1: (3, 0), 2: (2, 3)}
        assert engine.used == 5
        assert engine.epochs == [(0, 0, 3), (0, 0, 5)]
        engine.handle_free(1)
        engine.handle_gc()  # 2 slides to 0
        assert engine.objects[2].base_cell == 0 and engine.used == 2
        assert calls[2] == [(0, 3, 2, "R"), (0, 0, 2, "W")]
        engine.handle_gc()
        assert calls[3] == [] and cell_total(engine) == 4
        assert engine.epochs == [(0, 0, 3), (0, 0, 5), (0, 0, 5), (0, 0, 2)]

    def test_sliding_object_records_copy(self):
        engine = engine_for(20, "single")
        engine.handle_alloc(1, 3)
        engine.handle_alloc(2, 2)
        engine.handle_free(1)
        engine.handle_gc()
        assert engine.objects[2].base_cell == 0
        assert cell_counts(engine.spaces[0], "R")[3:5] == [1, 1]
        assert cell_counts(engine.spaces[0], "W")[0:2] == [1, 1]
        assert cell_total(engine) == 4

    def test_uses_whole_memory_as_one_space(self):
        engine = engine_for(8, "single")
        engine.handle_alloc(1, 6)  # larger than half; fine without rings
        assert engine.objects[1].base_cell == 0
        with pytest.raises(SimulationError,
                           match="object 2 of 9 cells exceeds capacity 8"):
            engine.handle_alloc(2, 9)


# Counters are written through the engine's handlers only, as build_report
# reads them only where the epochs lay.
class TestReportLayout:
    def test_ring_one_cell_follows_ring_zero(self):
        engine = engine_for(8)  # two rings of 4 cells
        for event in [("A", 1, 2), ("W", 1, 0, 2), ("G",), ("W", 1, 1, 1)]:
            engine.process(event)
        report = engine.build_report()
        # ring 0: the first write; ring 1: the copy's write, then cell 1's
        assert report.per_cell_writes == [1, 1, 0, 0, 1, 2, 0, 0]
        assert report.per_cell_reads == [1, 1, 0, 0, 0, 0, 0, 0]

    def test_single_space_cell_is_its_address(self):
        engine = engine_for(6, "single")
        for event in [("A", 1, 3), ("A", 2, 2), ("R", 2, 0, 2)]:
            engine.process(event)
        report = engine.build_report()
        assert report.per_cell_reads == [0, 0, 0, 1, 1, 0]
        assert report.per_cell_writes == [0] * 6


@pytest.mark.parametrize("policy", ["golden", "single"])
class TestBuildReport:
    def engine_with_traffic(self, policy):
        engine = engine_for(20, policy)
        engine.handle_alloc(1, 3)
        engine.handle_alloc(2, 4)
        engine.process(("W", 2, 1, 3))
        engine.handle_free(1)
        engine.handle_gc()
        engine.process(("R", 2, 0, 4))
        return engine

    def test_repeated_calls_are_equal(self, policy):
        engine = self.engine_with_traffic(policy)
        first, second = engine.build_report(), engine.build_report()
        assert first.per_cell_reads == second.per_cell_reads
        assert first.per_cell_writes == second.per_cell_writes
        assert first.summary == second.summary

    def test_access_after_a_report_is_counted(self, policy):
        engine = self.engine_with_traffic(policy)
        first = engine.build_report()
        engine.process(("W", 2, 0, 2))
        second = engine.build_report()
        assert sum(second.per_cell_writes) == sum(first.per_cell_writes) + 2
        assert second.per_cell_reads == first.per_cell_reads

    def test_lists_cover_the_whole_memory(self, policy):
        report = self.engine_with_traffic(policy).build_report()
        assert (len(report.per_cell_reads) == len(report.per_cell_writes)
                == report.mem_size_cells == 20)


class TestReplay:
    def test_empty_trace(self):
        report = replay(Trace([]), EngineConfig(20, Policy("golden")))
        assert sum(report.per_cell_reads) == sum(report.per_cell_writes) == 0
        assert report.gc_count == 0
        assert report.event_count == 0

    def test_hand_checked_totals(self):
        trace = Trace([("A", 1, 3), ("W", 1, 0, 3), ("G",), ("W", 1, 0, 3)])
        report = replay(trace, EngineConfig(20, Policy("golden")))
        assert sum(report.per_cell_writes) == 9  # 3 app + 3 GC copy + 3 app
        assert sum(report.per_cell_reads) == 3   # GC copy source
        assert report.gc_count == 1

    def test_deterministic(self):
        trace = generate(WorkloadSpec("churn", 10, 500, 3, seed=5))
        config = EngineConfig(256, Policy("random", 42))
        assert replay(trace, config) == replay(trace, config)

    # the memory failures, the only ones replay states; validate_trace
    # states the live-set rules (tests/test_trace.py::TestValidate)
    MESSAGE_CASES = [
        ([("A", 1, 11)], "event 0: object 1 of 11 cells exceeds capacity 10", 20),
        ([("A", 1, 4), ("A", 2, 4)],
         "event 1: cannot allocate 4 cells for object 2: 4 cells live, 0 free", 8),
    ]

    # ids name the trace and the message, numbered from 4: each case keeps
    # the id it had when the four live-set cases, now in TestValidate, led
    @pytest.mark.parametrize("events, message, mem", MESSAGE_CASES, ids=[
        f"events{i}-{message}"
        for i, (_, message, _) in enumerate(MESSAGE_CASES, start=4)])
    def test_messages(self, events, message, mem):
        with pytest.raises(SimulationError) as err:
            replay(Trace(events), EngineConfig(mem, Policy("golden")))
        assert str(err.value) == message

    def test_unknown_opcode_is_simulation_error(self):
        with pytest.raises(SimulationError, match="event 0: unknown event"):
            replay(Trace([("X", 1)]), EngineConfig(20, Policy("golden")))

    # an exception in the middle of an apply leaves event_count at the
    # index of the failing event, counted across calls
    @pytest.mark.parametrize("events, error, failing", [
        ([("A", 2, 4)], SimulationError, 0),
        ([("A", 2, 1), ("A", 3, 4)], SimulationError, 1),
        ([("W", 1, 0, 2), ("X", 1)], SimulationError, 1),
        ([("R", 1, 0, 1), ("G",), ("W", 9, 0, 1)], KeyError, 2),
    ], ids=["no-room", "no-room-after-gc", "unknown-event", "dead-object"])
    def test_event_count_after_an_exception(self, events, error, failing):
        engine = engine_for(mem=8)
        engine.apply([("A", 1, 2), ("W", 1, 0, 2)])
        assert engine.event_count == 2
        with pytest.raises(error):
            engine.apply(events)
        assert engine.event_count == 2 + failing

    def test_dispatch_finds_handlers_wrapped_on_the_class(self, monkeypatch):
        calls = []
        for name in ("handle_alloc", "handle_free", "handle_access", "handle_gc"):
            def wrapped(self, *args, _name=name, _inner=getattr(Engine, name)):
                calls.append(_name)
                return _inner(self, *args)
            monkeypatch.setattr(Engine, name, wrapped)
        trace = Trace([("A", 1, 2), ("W", 1, 0, 1), ("R", 1, 1, 1), ("G",), ("F", 1)])
        replay(trace, EngineConfig(20, Policy("golden")))
        assert calls == ["handle_alloc", "handle_access", "handle_access",
                         "handle_gc", "handle_free"]

    @settings(max_examples=100, deadline=None)
    @given(spec=churn_specs, mem_divisor=mem_divisors,
           kind=st.sampled_from(["golden", "quarter", "fraction:0.3", "none",
                                 "random", "single"]),
           random_seed=st.integers(0, 1000))
    def test_apply_equals_process(self, spec, mem_divisor, kind, random_seed):
        policy = f"random:{random_seed}" if kind == "random" else kind
        trace = generate(spec)
        mem = max(4, trace.header.suggested_mem_size_cells // mem_divisor // 2 * 2)
        config = EngineConfig(mem, parse_policy(policy))
        applied, processed = Engine(config), Engine(config)
        failed_at = []
        try:
            applied.apply(trace.events)
        except SimulationError:
            failed_at.append(applied.event_count)
        try:
            for event in trace.events:
                processed.process(event)
        except SimulationError:
            failed_at.append(processed.event_count)
        assert len(failed_at) != 1 and len(set(failed_at)) <= 1

        def state(engine):
            report = engine.build_report()
            return (engine.epochs, engine.event_count,
                    {object_id: (r.size_cells, r.base_cell)
                     for object_id, r in engine.objects.items()},
                    report.run_lengths, report.run_reads, report.run_writes)
        assert state(applied) == state(processed)

    def test_live_set_is_policy_independent(self):
        trace = generate(WorkloadSpec("churn", 8, 600, 3, gc_every=37, seed=9))
        mem = trace.header.suggested_mem_size_cells
        engines = [Engine(EngineConfig(mem, parse_policy(p)))
                   for p in ("golden", "none", "random:1", "single")]
        for event in trace.events:
            live_sets = []
            for engine in engines:
                engine.process(event)
                live_sets.append(sorted((object_id, r.size_cells)
                                        for object_id, r in engine.objects.items()))
            assert all(s == live_sets[0] for s in live_sets)

    # automatic collections come from the memories below the #mem header
    @settings(max_examples=150, deadline=None)
    @given(spec=specs, mem_divisor=mem_divisors,
           kind=st.sampled_from(["golden", "quarter", "fraction:0.3", "none",
                                 "random", "single"]),
           random_seed=st.integers(0, 1000))
    @example(spec=WorkloadSpec("churn", 8, 400, 3, gc_every=23, seed=3),
             mem_divisor=1, kind="golden", random_seed=0)
    def test_live_objects_stay_disjoint(self, spec, mem_divisor, kind, random_seed):
        policy = f"random:{random_seed}" if kind == "random" else kind
        trace = generate(spec)
        mem = max(4, trace.header.suggested_mem_size_cells // mem_divisor // 2 * 2)
        engine = Engine(EngineConfig(mem, parse_policy(policy)))
        for event in trace.events:
            gc_count = len(engine.epochs)
            try:
                engine.process(event)
            except SimulationError:
                return
            assert_disjoint_live(engine)
            if len(engine.epochs) > gc_count:
                assert_post_gc_invariants(engine)
