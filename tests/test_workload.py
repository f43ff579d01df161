import hashlib
import random
import re

import pytest
from hypothesis import given, settings, strategies as st

from wearsim.engine import EngineConfig, replay
from wearsim.policy import Policy
from wearsim.trace import format_trace, validate_trace
from wearsim.workload import HOT_ACCESS_SHARE, WorkloadSpec, generate, hot_object_ids


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


#: SHA-256 of format_trace(generate(WorkloadSpec(*fields))): the same on
#: CPython 3.10, 3.11, 3.12 and 3.13.
TRACE_DIGESTS = [
    pytest.param(("hotspot", 200, 100000, 256, 0.1, 200, 1),
                 "f36c6df64d9c4b5c1bcc55579e37d69a351b704ba82fa8231760ea3e9b0e4a12",
                 id="hotspot-bench"),
    pytest.param(("loop", 64, 20000, 32, 0.1, 500, 1),
                 "0ab300cbcd157897d30ffcfb007038051cf43e6d61c17bd07d25fa72955e2445",
                 id="loop-bench"),
    pytest.param(("churn", 64, 20000, 16, 0.1, 200, 1),
                 "9f410c6eba9222dfd1ded61fdc33073dee26c6b9c43c62db7f221a070926ceec",
                 id="churn"),
    pytest.param(("churn", 2000, 20000, 8, 0.1, 100, 3),
                 "22cb963c62afc83162bbf8e3c3dc7a33778f15570a91325a4102a120cd197797",
                 id="churn-2000-objects"),
    pytest.param(("churn", 20000, 40000, 4, 0.1, 100, 8),
                 "dc06a581adc686253254d78795143502d1822a36ecfee231fc640a48baab31f2",
                 id="churn-20000-objects"),
    pytest.param(("churn", 3, 500, 1, 0.1, 7, 5),
                 "b3df78588f173c06385ebf2a1190e5159183caf116d7e6f0e0be2c162f0cddcf",
                 id="churn-one-cell-objects"),
    pytest.param(("churn", 1, 300, 1, 0.1, 1, 4),
                 "18f3bd7b1e693b59e96f7bf0ae8a31683d12c4a21290aff901ab496e79450961",
                 id="churn-one-object-gc-every-event"),
    pytest.param(("hotspot", 5, 300, 1, 1.0, 13, 2),
                 "ba848b3791a2f79e3289d5c8d6d08521d9c92d02c502f514c5cf3bb9b338e45a",
                 id="hotspot-all-hot"),
    pytest.param(("hotspot", 1, 50, 1, 0.1, 3, 6),
                 "eb557b26d9158f76993ce17349c921e4f552c0545062926727efb3f1e3f47c98",
                 id="hotspot-one-object"),
    pytest.param(("hotspot", 1000, 10, 3, 0.1, 100, 9),
                 "2c27ba76e72268e4df61555928c6ab609882bb2a56f47b31887eee7476238924",
                 id="hotspot-fewer-ops-than-objects"),
    pytest.param(("loop", 1, 30, 1, 0.1, 4, 7),
                 "f87b34937c7423fe4180c529442aed6c3abe91718eb768503718f9175158284f",
                 id="loop-one-object"),
    # draws wider than one 32-bit word of the stream
    pytest.param(("churn", 50, 3000, 2 ** 40, 0.1, 100, 11),
                 "684c3e5194260567cf13a2b9d76a39c57255b6c54a75c11cf781ac0aadc67ce3",
                 id="churn-2^40-mean"),
    pytest.param(("hotspot", 50, 3000, 2 ** 40, 0.1, 100, 12),
                 "330927b2e45a830a008a25e111a50c3862998ecc36c31d55626deb9f27b17b14",
                 id="hotspot-2^40-mean"),
    pytest.param(("loop", 50, 3000, 2 ** 40, 0.1, 100, 13),
                 "c5a9c861a8717f068d60405afc9503827a506b5d0947f5257d589dcd627b8107",
                 id="loop-2^40-mean"),
    pytest.param(("churn", 50, 3000, 2 ** 33 + 1, 0.1, 100, 14),
                 "9c8ae62f87fbb2ade727a8b4e281ae7537aab84a0e38b154002172069d1ffcbb",
                 id="churn-2^33+1-mean"),
]


class LibraryGenerator:
    """The three patterns with one randrange, randint or choice call per draw."""

    def __init__(self, spec):
        self.spec, self.rng = spec, random.Random(spec.seed)
        self.events, self.live = [], {}
        self.body = self.cells = self.peak = self.last_id = 0
        self.largest = 1

    def emit(self, event):
        self.events.append(event)
        self.body += 1
        if self.body % self.spec.gc_every == 0:
            self.events.append(("G",))

    def alloc(self):
        self.last_id += 1
        object_id = self.last_id
        size = self.rng.randint(1, 2 * self.spec.mean_object_size - 1)
        self.live[object_id] = size
        self.cells += size
        self.peak, self.largest = max(self.peak, self.cells), max(self.largest, size)
        self.emit(("A", object_id, size))
        return object_id

    def access(self, object_id):
        size = self.live[object_id]
        offset = self.rng.randrange(size)
        length = self.rng.randint(1, size - offset)
        self.emit(("W" if self.rng.random() < 0.5 else "R", object_id, offset, length))

    def run(self):
        spec, rng, live = self.spec, self.rng, self.live
        if spec.pattern == "churn":
            while self.body < spec.op_count:
                roll = rng.random()
                if not live or (roll < 0.15 and len(live) < 2 * spec.object_count):
                    self.alloc()
                elif roll < 0.30 and len(live) > max(1, spec.object_count // 2):
                    object_id = rng.choice(list(live))
                    self.cells -= live.pop(object_id)
                    self.emit(("F", object_id))
                else:
                    self.access(rng.choice(list(live)))
            return self
        ids = [self.alloc() for _ in range(min(spec.object_count, spec.op_count))]
        hot = sorted(hot_object_ids(spec))
        cold = sorted(live.keys() - set(hot))
        for position in range(spec.op_count - len(ids)):
            if spec.pattern == "loop":
                object_id = ids[position % len(ids)]
                self.emit(("W", object_id, 0, live[object_id]))
            elif cold and rng.random() >= HOT_ACCESS_SHARE:
                self.access(rng.choice(cold))
            else:
                self.access(rng.choice(hot))
        return self


class TestSameStream:
    @pytest.mark.parametrize(("fields", "digest"), TRACE_DIGESTS)
    def test_pinned_bytes(self, fields, digest):
        text = format_trace(generate(WorkloadSpec(*fields)))
        assert hashlib.sha256(text.encode()).hexdigest() == digest

    @settings(max_examples=150, deadline=None)
    @given(st.sampled_from(["churn", "hotspot", "loop"]),
           st.integers(1, 60), st.integers(1, 400),
           st.one_of(st.integers(1, 40), st.integers(1, 2 ** 80)),
           st.floats(0.0, 1.0, exclude_min=True), st.integers(1, 40),
           st.integers(0, 2 ** 64))
    def test_draws_as_the_library_calls(self, pattern, objects, ops, mean,
                                        hot_fraction, gc_every, seed):
        spec = WorkloadSpec(pattern, objects, ops, mean, hot_fraction, gc_every, seed)
        reference = LibraryGenerator(spec).run()
        trace = generate(spec)
        assert trace.events == reference.events
        assert trace.header.suggested_mem_size_cells == max(
            4, 4 * (reference.peak + reference.largest))


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

    @pytest.mark.parametrize("value", [2.5, 3.0, True, "3"])
    @pytest.mark.parametrize("field", ["object_count", "op_count",
                                       "mean_object_size", "gc_every"])
    def test_counts_must_be_ints(self, field, value):
        message = f"{field} must be an int, got {value!r}"
        with pytest.raises(ValueError, match=f"^{re.escape(message)}$"):
            spec_for("churn", **{field: value})
