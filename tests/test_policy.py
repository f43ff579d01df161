import math
import re

import pytest
from hypothesis import given, strategies as st

from wearsim.policy import (GOLDEN_FRACTION, Policy, PolicyState, golden_shift,
                            parse_fraction, parse_policy)


def start_sequence(policy, ring_size, count):
    """First `count` start locations a single ring receives under `policy`."""
    state = PolicyState(policy, ring_size)
    return [state.take(0) for _ in range(count)]


def circular_gaps(points, ring_size):
    """Distinct circular gap lengths between the given start locations."""
    pts = sorted(points)
    if len(pts) == 1:
        return {ring_size}
    gaps = {(b - a) % ring_size for a, b in zip(pts, pts[1:])}
    gaps.add((pts[0] - pts[-1]) % ring_size)
    return gaps


class TestGoldenShift:
    def test_flower_step(self):
        assert golden_shift(360) == 137

    def test_million(self):
        assert golden_shift(10**6) == 381966

    def test_degenerate_tiny_ring(self):
        assert golden_shift(2) == 0

    def test_ring_too_small(self):
        with pytest.raises(ValueError, match=r"^ring size must be >= 2, got 1$"):
            golden_shift(1)

    @given(st.integers(min_value=2, max_value=2**20))
    def test_matches_double_precision_floor(self, ring_size):
        assert golden_shift(ring_size) == math.floor(ring_size * GOLDEN_FRACTION)

    def test_fraction_constant(self):
        assert abs(GOLDEN_FRACTION - 0.3819660112501051) < 1e-15


# spec -> the message parse_policy refuses it with
REFUSED_SPECS = {
    "goldenish": "unknown policy 'goldenish'",
    "fraction": "policy 'fraction' needs an argument after a colon",
    "fraction:x": "bad fraction argument 'x'",
    "fraction:1.0": "fraction must be a float in [0, 1)",
    "fraction:-0.1": "bad fraction argument '-0.1'",
    "random": "policy 'random' needs an argument after a colon",
    "random:x": "bad random argument 'x'",
    "golden:1": "policy 'golden' takes no argument",
    "golden:": "policy 'golden' takes no argument",
    "single:x": "policy 'single' takes no argument",
    "none:": "policy 'none' takes no argument",
    "quarter:0.5": "policy 'quarter' takes no argument",
    "": "unknown policy ''",
    # arguments are unsigned ASCII decimals, as trace fields are
    "random:\u0663": "bad random argument '\u0663'",
    "random:1_000": "bad random argument '1_000'",
    "random:+5": "bad random argument '+5'",
    "random: 5": "bad random argument ' 5'",
    "fraction:\u0660.5": "bad fraction argument '\u0660.5'",
    "fraction: 0.25": "bad fraction argument ' 0.25'",
    "fraction:0.1_0": "bad fraction argument '0.1_0'",
    "fraction:-0.0": "bad fraction argument '-0.0'",
}


class TestParsePolicy:
    @pytest.mark.parametrize("spec,kind", [
        ("golden", "golden"), ("quarter", "quarter"),
        ("none", "none"), ("single", "single"),
    ])
    def test_plain_kinds(self, spec, kind):
        assert parse_policy(spec) == Policy(kind)

    def test_fraction(self):
        assert parse_policy("fraction:0.25") == Policy("fraction", 0.25)

    def test_random(self):
        assert parse_policy("random:42") == Policy("random", 42)

    @pytest.mark.parametrize("spec, fraction", [
        ("fraction:.5", 0.5), ("fraction:2.5e-1", 0.25),
    ])
    def test_fraction_spellings(self, spec, fraction):
        assert parse_policy(spec) == Policy("fraction", fraction)

    @pytest.mark.parametrize("spec", REFUSED_SPECS)
    def test_rejects(self, spec):
        with pytest.raises(ValueError, match=f"^{re.escape(REFUSED_SPECS[spec])}$"):
            parse_policy(spec)

    @pytest.mark.parametrize("spec", [
        "golden:", "golden:1", "single:x", "none:", "quarter:0.5"])
    def test_plain_kind_refuses_an_argument(self, spec):
        kind = spec.partition(":")[0]
        with pytest.raises(ValueError, match=f"^policy '{kind}' takes no argument$"):
            parse_policy(spec)

    @given(st.one_of(
        st.sampled_from(["golden", "quarter", "none", "single"]).map(Policy),
        st.floats(0.0, 1.0, exclude_max=True).map(lambda f: Policy("fraction", f)),
        st.integers(min_value=0).map(lambda seed: Policy("random", seed))))
    def test_every_spec_round_trips(self, policy):
        assert parse_policy(policy.spec_string()) == policy

    def test_spec_string_round_trips(self):
        for spec in ("golden", "quarter", "fraction:0.125", "none",
                     "random:7", "single"):
            assert parse_policy(spec).spec_string() == spec


class TestParseFraction:
    @pytest.mark.parametrize("text, value", [
        ("0.25", 0.25), (".5", 0.5), ("2.5e-1", 0.25), ("0", 0.0), ("1.", 1.0),
        ("7", 7.0),  # the range is the caller's to check
    ])
    def test_reads(self, text, value):
        assert parse_fraction(text) == value

    @pytest.mark.parametrize("text", [
        "\u0660.5", "0.1_0", " 0.25", "0.25 ", "-0.0", "+0.5", "", ".", "inf",
        "nan", "1e", "0.5e+",
    ])
    def test_refuses(self, text):
        with pytest.raises(ValueError):
            parse_fraction(text)


class TestPolicyValidation:
    def test_unknown_kind(self):
        with pytest.raises(ValueError, match="^unknown policy kind 'spiral'$"):
            Policy("spiral")

    def test_random_requires_seed(self):
        with pytest.raises(ValueError, match="^random policy needs an int seed >= 0$"):
            Policy("random")

    def test_golden_takes_no_seed(self):
        with pytest.raises(ValueError, match="^policy 'golden' takes no argument$"):
            Policy("golden", 1)

    @pytest.mark.parametrize("kind, arg", [
        ("fraction", 0), ("fraction", -0.0),
        ("fraction", float("nan")), ("random", 0.5), ("random", True),
    ])
    def test_argument_of_wrong_type_or_range(self, kind, arg):
        message = {"fraction": "fraction must be a float in [0, 1)",
                   "random": "random policy needs an int seed >= 0"}[kind]
        with pytest.raises(ValueError, match=f"^{re.escape(message)}$"):
            Policy(kind, arg)


class TestStartProgression:
    def test_golden_first_uses(self):
        assert start_sequence(Policy("golden"), 360, 4) == [0, 137, 274, 51]

    def test_quarter(self):
        assert start_sequence(Policy("quarter"), 1000, 5) == [0, 250, 500, 750, 0]

    def test_none_always_head(self):
        assert start_sequence(Policy("none"), 512, 6) == [0] * 6

    def test_deterministic(self):
        for spec in ("golden", "quarter", "fraction:0.3", "none", "random:9"):
            policy = parse_policy(spec)
            assert (start_sequence(policy, 777, 50)
                    == start_sequence(policy, 777, 50))

    def test_random_first_use_is_head_then_seeded(self):
        seq = start_sequence(Policy("random", 42), 100, 20)
        assert seq[0] == 0
        assert all(0 <= x < 100 for x in seq)
        assert seq != start_sequence(Policy("random", 43), 100, 20)

    def test_rings_progress_independently(self):
        state = PolicyState(Policy("golden"), 360)
        # interleaved ring use: each ring sees its own 0, 137, 274, ...
        assert [state.take(r) for r in (0, 1, 0, 1, 0)] == [0, 0, 137, 137, 274]

    def test_single_always_head(self):
        assert start_sequence(Policy("single"), 512, 6) == [0] * 6

    @given(st.sampled_from(["golden", "quarter", "fraction:0.37", "none"]),
           st.integers(min_value=4, max_value=5000))
    def test_step_invariance(self, spec, ring_size):
        policy = parse_policy(spec)
        shift = PolicyState(policy, ring_size).shift
        seq = start_sequence(policy, ring_size, 20)
        assert all(0 <= x < ring_size for x in seq)
        assert all((b - a) % ring_size == shift for a, b in zip(seq, seq[1:]))

    def test_golden_360_is_a_permutation(self):
        seq = start_sequence(Policy("golden"), 360, 360)
        assert sorted(seq) == list(range(360))  # gcd(137, 360) == 1

    @pytest.mark.parametrize("ring_size", [64, 97, 100, 360])
    def test_three_distance_brute_force(self, ring_size):
        shift = golden_shift(ring_size)
        period = ring_size // math.gcd(shift, ring_size)
        seq = start_sequence(Policy("golden"), ring_size, period)
        for m in range(1, period + 1):
            assert len(circular_gaps(seq[:m], ring_size)) <= 3

    @given(st.data())
    def test_golden_largest_gap(self, data):
        # Three-distance theorem (Sos; Swierczkowski, 1958): k golden
        # starts cut the ring into gaps of at most three lengths, the
        # largest under phi**2 * N / k.  The bound needs k well below the
        # period; N = 26, k = 13 reaches 3.0.
        ring_size = data.draw(st.integers(min_value=4, max_value=10**12))
        period = ring_size // math.gcd(golden_shift(ring_size), ring_size)
        count = data.draw(st.integers(
            min_value=1, max_value=min(math.isqrt(ring_size), period, 300)))
        gaps = circular_gaps(start_sequence(Policy("golden"), ring_size, count),
                             ring_size)
        assert len(gaps) <= 3
        assert max(gaps) * count < (3 + math.sqrt(5)) / 2 * ring_size

    def test_full_period_equally_spaced(self):
        ring_size = 4096
        shift = golden_shift(ring_size)
        g = math.gcd(shift, ring_size)
        period = ring_size // g
        seq = start_sequence(Policy("golden"), ring_size, period)
        assert len(set(seq)) == period
        assert sorted(seq) == list(range(0, ring_size, g))
        # the next use closes the cycle
        longer = start_sequence(Policy("golden"), ring_size, period + 1)
        assert longer[period] == longer[0]
