import pytest

from wearsim.engine import EngineConfig, replay
from wearsim.policy import Policy
from wearsim.trace import format_trace, validate_trace
from wearsim.workload import WorkloadSpec, generate, hot_object_ids


def spec_for(pattern, **overrides):
    base = dict(pattern=pattern, object_count=20, op_count=2000,
                mean_object_size=4, hot_fraction=0.1, gc_every=100, seed=1)
    base.update(overrides)
    return WorkloadSpec(**base)


class TestDeterminism:
    @pytest.mark.parametrize("pattern", ["churn", "hotspot", "loop"])
    def test_identical_spec_identical_bytes(self, pattern):
        spec = spec_for(pattern)
        assert format_trace(generate(spec)) == format_trace(generate(spec))

    def test_seed_changes_trace(self):
        a = format_trace(generate(spec_for("churn", seed=1)))
        b = format_trace(generate(spec_for("churn", seed=2)))
        assert a != b


class TestValidity:
    @pytest.mark.parametrize("pattern", ["churn", "hotspot", "loop"])
    def test_zero_violations(self, pattern):
        assert validate_trace(generate(spec_for(pattern))) == []

    def test_churn_large_population(self):
        spec = spec_for("churn", object_count=100, op_count=10000)
        assert validate_trace(generate(spec)) == []

    @pytest.mark.parametrize("pattern", ["churn", "hotspot", "loop"])
    def test_replays_within_suggested_memory(self, pattern):
        trace = generate(spec_for(pattern))
        mem = trace.header.suggested_mem_size_cells
        assert mem is not None and mem >= 4 and mem % 2 == 0
        report = replay(trace, EngineConfig(mem, Policy("golden")))
        assert report.event_count == len(trace.events)


class TestPatterns:
    def test_hotspot_share(self):
        spec = spec_for("hotspot", object_count=100, op_count=20000,
                        hot_fraction=0.01)
        trace = generate(spec)
        hot = hot_object_ids(spec)
        assert len(hot) == 1
        accesses = [e for e in trace.events if e[0] in ("R", "W")]
        hot_share = sum(e[1] in hot for e in accesses) / len(accesses)
        assert hot_share >= 0.85

    def test_hot_set_rounds_up(self):
        assert hot_object_ids(spec_for("hotspot", object_count=10,
                                       hot_fraction=0.25)) == {1, 2, 3}

    def test_hot_set_is_of_the_allocated_objects(self):
        # hotspot allocates only as many objects as it has operations: the
        # first 10 of 1,000, of which none is past the hot 100
        assert hot_object_ids(spec_for("hotspot", object_count=1000,
                                       op_count=10)) == set(range(1, 11))

    def test_hot_set_of_more_objects_than_a_float_holds(self):
        assert hot_object_ids(spec_for("hotspot", object_count=10 ** 399,
                                       op_count=10)) == set(range(1, 11))
        # 2^-1074 of 3 * 2^1074 objects is 3, exactly
        assert hot_object_ids(spec_for("hotspot", object_count=3 * 2 ** 1074,
                                       op_count=10, hot_fraction=2.0 ** -1074)) == {1, 2, 3}

    def test_loop_writes_fixed_set_in_cycle(self):
        spec = spec_for("loop", object_count=3, op_count=50)
        trace = generate(spec)
        body = [e for e in trace.events if e[0] != "G"]
        assert {e[0] for e in body} == {"A", "W"}
        writes = [e for e in body if e[0] == "W"]
        assert [w[1] for w in writes[:6]] == [1, 2, 3, 1, 2, 3]
        assert all(w[2] == 0 for w in writes)

    def test_churn_allocs_and_frees(self):
        trace = generate(spec_for("churn", op_count=5000))
        kinds = {e[0] for e in trace.events}
        assert {"A", "F", "G"} <= kinds

    def test_gc_insertion_cadence(self):
        spec = spec_for("loop", op_count=250, gc_every=50)
        trace = generate(spec)
        assert trace.events.count(("G",)) == 5


class TestSpecValidation:
    def test_zero_ops(self):
        with pytest.raises(ValueError, match="op_count"):
            generate(spec_for("churn", op_count=0))

    def test_zero_mean_size(self):
        with pytest.raises(ValueError, match="mean_object_size"):
            generate(spec_for("churn", mean_object_size=0))

    def test_zero_objects(self):
        with pytest.raises(ValueError, match="object_count must be >= 1, got 0"):
            generate(spec_for("churn", object_count=0))

    def test_unknown_pattern(self):
        with pytest.raises(ValueError, match="pattern"):
            generate(spec_for("waves"))

    def test_bad_hot_fraction(self):
        with pytest.raises(ValueError, match="hot_fraction"):
            generate(spec_for("hotspot", hot_fraction=0.0))

    def test_construction_checks_fields(self):
        with pytest.raises(ValueError, match="pattern"):
            WorkloadSpec("waves", 1, 1)

    def test_zero_gc_every(self):
        with pytest.raises(ValueError, match="gc_every"):
            generate(spec_for("churn", gc_every=0))
