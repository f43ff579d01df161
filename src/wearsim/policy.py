"""Compaction start-location policies: golden-ratio rotation and baselines.

Each ring keeps its own progression of start locations.  A ring's first
use as a compaction destination is always its head (cell 0); every
later use is shifted from the previous one by a policy-defined amount,
modulo the ring size.  The golden-ratio shift spreads successive starts
as evenly as possible for any ring size, which is what levels wear;
the other kinds exist as baselines to measure that claim against.

Policy spec strings, as accepted on the command line:

    golden          shift by floor(ring_size * (3 - sqrt(5)) / 2)
    quarter         shift by a quarter of the ring
    fraction:<f>    shift by floor(ring_size * f), f in [0, 1)
    none            always compact to the ring head
    random:<seed>   seeded uniform start per use (Mersenne Twister), seed >= 0
    single          one space, compacted onto itself, always to address 0

A kind in POLICY_ARGS takes one argument after a colon, read as an
unsigned decimal: a seed by trace.parse_uint, a fraction by
parse_fraction.  parse_policy reads back what spec_string writes.
"""

from __future__ import annotations

import math
import random
from dataclasses import dataclass

from wearsim.trace import parse_uint

#: Fraction of the ring advanced between consecutive golden starts:
#: 1 - 1/phi = (3 - sqrt(5)) / 2 with phi = (1 + sqrt(5)) / 2, about 137.5
#: degrees of a full turn.
GOLDEN_FRACTION = (3 - math.sqrt(5)) / 2

POLICY_KINDS = ("golden", "quarter", "fraction", "none", "random", "single")


def parse_fraction(text: str) -> float:
    """Read an unsigned decimal such as 0.25, .5 or 2.5e-1; ValueError otherwise."""
    # float() alone would also take a sign, 'inf', 'nan', '_', spaces and other digits
    if not (text.isascii() and text[:1] and text[0] in "0123456789."
            and "_" not in text and not any(map(str.isspace, text))):
        raise ValueError(f"not an unsigned decimal: '{text}'")
    return float(text)


#: The kinds that take an argument, and the reader of its text.
POLICY_ARGS = {"fraction": parse_fraction, "random": parse_uint}


def golden_shift(ring_size: int) -> int:
    """Cells between consecutive golden start locations on a ring.

    Exact floor(ring_size * (3 - sqrt(5)) / 2) for any ring size:
    5*ring_size**2 is never a perfect square, so the floor equals
    (3*ring_size - isqrt(5*ring_size**2) - 1) // 2.  Integer arithmetic
    avoids double-rounding on huge rings.
    """
    if ring_size < 2:
        raise ValueError(f"ring size must be >= 2, got {ring_size}")
    return (3 * ring_size - math.isqrt(5 * ring_size * ring_size) - 1) // 2


@dataclass(frozen=True)
class Policy:
    """One wear-leveling policy choice."""

    kind: str
    arg: float | int | None = None  # the fraction or the seed; see POLICY_ARGS

    def __post_init__(self):
        if self.kind not in POLICY_KINDS:
            raise ValueError(f"unknown policy kind '{self.kind}'")
        if self.kind == "fraction":
            # a negative zero would be written as a signed spec
            if (type(self.arg) is not float or not 0.0 <= self.arg < 1.0
                    or math.copysign(1.0, self.arg) < 0):
                raise ValueError("fraction must be a float in [0, 1)")
        elif self.kind == "random":
            if type(self.arg) is not int or self.arg < 0:
                raise ValueError("random policy needs an int seed >= 0")
        elif self.arg is not None:
            raise ValueError(f"policy '{self.kind}' takes no argument")

    @property
    def is_dual_ring(self) -> bool:
        return self.kind != "single"

    def spec_string(self) -> str:
        return self.kind if self.arg is None else f"{self.kind}:{self.arg!r}"


def parse_policy(spec: str) -> Policy:
    """Parse a policy spec string (see module docstring for the grammar)."""
    kind, sep, text = spec.partition(":")
    if kind not in POLICY_KINDS:
        raise ValueError(f"unknown policy '{spec}'")
    read_arg = POLICY_ARGS.get(kind)
    if read_arg is None:  # Policy refuses any argument text, even ""
        return Policy(kind, text if sep else None)
    if not sep:
        raise ValueError(f"policy '{kind}' needs an argument after a colon")
    try:
        value = read_arg(text)
    except ValueError:
        raise ValueError(f"bad {kind} argument '{text}'") from None
    return Policy(kind, value)


class PolicyState:
    """Per-ring progression of compaction start locations for one run.

    The random kind draws both rings' starts from one seeded stream, in
    the order the rings are asked, so a whole run stays reproducible
    from the seed.
    """

    def __init__(self, policy: Policy, ring_size: int):
        self.ring_size = ring_size
        self.next_start = [0, 0]  # first use of either ring starts at its head
        self._rng = None
        if policy.kind == "random":
            self._rng = random.Random(policy.arg)
        elif policy.kind == "golden":
            self.shift = golden_shift(ring_size)
        elif policy.kind == "quarter":
            self.shift = ring_size // 4
        elif policy.kind == "fraction":
            self.shift = math.floor(ring_size * policy.arg)
        else:  # none and single always compact to the head
            self.shift = 0

    def take(self, ring: int) -> int:
        """Start location for this compaction; advances the ring's progression."""
        used = self.next_start[ring]
        if self._rng is not None:
            self.next_start[ring] = self._rng.randrange(self.ring_size)
        else:
            self.next_start[ring] = (used + self.shift) % self.ring_size
        return used

