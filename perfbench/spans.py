"""Spans recorded from outside the program, by wrapping its callables.

A `Tracer` replaces chosen module functions and class methods with timing
wrappers while a `with tracer.installed(targets):` block runs, then puts
the originals back.  Each call becomes a span with a name, a start, an
end, the span that called it and the job it belongs to.

Per-event calls (event handlers, counter updates) run millions of times a
job, so only coarse spans are kept as records; every span, coarse or not,
is also folded into per-job totals of calls, self time and an optional
weight, keyed by (job, name, caller name, tag).  Self time is a span's
duration minus the durations of the spans it called.
"""

from __future__ import annotations

import json
import time
from contextlib import contextmanager
from dataclasses import dataclass
from typing import Any, Callable, Optional

CALLS, SELF_S, WEIGHT = range(3)


@dataclass(frozen=True)
class Target:
    """One callable to wrap: `owner.attribute`, recorded as span `name`."""

    owner: Any
    attribute: str
    name: str
    keep: bool = False  # keep each span as a record, not only in the totals
    weigh: Optional[Callable[[tuple], int]] = None  # weight from positional args
    tag: Optional[Callable[[tuple], str]] = None    # tag for this span's subtree


class Tracer:
    def __init__(self):
        self.job: str = ""
        self.tag: str = ""
        self.spans: list[dict] = []
        self.totals: dict[tuple, list] = {}
        self._stack: list[list] = []  # open spans: [name, child seconds, kept index]

    def wrap(self, fn: Callable, target: Target) -> Callable:
        name, keep, weigh, tag_of = target.name, target.keep, target.weigh, target.tag
        stack, spans, totals = self._stack, self.spans, self.totals
        clock, tracer = time.perf_counter, self

        def traced(*args, **kwargs):
            parent = stack[-1] if stack else None
            frame = [name, 0.0, parent[2] if parent else None]
            if keep:
                frame[2] = len(spans)
                spans.append({})
            outer_tag = tracer.tag
            if tag_of is not None:
                tracer.tag = tag_of(args)
            stack.append(frame)
            start = clock()
            try:
                return fn(*args, **kwargs)
            finally:
                end = clock()
                stack.pop()
                duration = end - start
                self_s = duration - frame[1]
                if parent is not None:
                    parent[1] += duration
                key = (tracer.job, name, parent[0] if parent else None, tracer.tag)
                entry = totals.get(key)
                if entry is None:
                    entry = totals[key] = [0, 0.0, 0]
                entry[CALLS] += 1
                entry[SELF_S] += self_s
                if weigh is not None:
                    entry[WEIGHT] += weigh(args)
                if keep:
                    spans[frame[2]] = {
                        "name": name, "start": start, "end": end,
                        "parent": parent[2] if parent else None,
                        "job": tracer.job, "tag": tracer.tag, "self_s": self_s}
                tracer.tag = outer_tag

        return traced

    @contextmanager
    def installed(self, targets: list[Target]):
        """Wrap every target for the duration of the block, then restore."""
        originals = []
        try:
            for target in targets:
                original = getattr(target.owner, target.attribute)
                originals.append((target, original))
                setattr(target.owner, target.attribute, self.wrap(original, target))
            yield self
        finally:
            for target, original in reversed(originals):
                setattr(target.owner, target.attribute, original)

    def job_totals(self, job: str) -> dict[tuple, list]:
        """Totals of one job, keyed by (name, caller name, tag)."""
        return {key[1:]: entry for key, entry in self.totals.items() if key[0] == job}

    def write(self, path) -> None:
        """Write kept spans, then per-job totals, as JSON lines."""
        with open(path, "w") as sink:
            for span in self.spans:
                sink.write(json.dumps({"kind": "span", **span}) + "\n")
            for (job, name, caller, tag), entry in self.totals.items():
                sink.write(json.dumps({
                    "kind": "total", "job": job, "name": name, "caller": caller,
                    "tag": tag, "calls": entry[CALLS], "self_s": entry[SELF_S],
                    "weight": entry[WEIGHT]}) + "\n")


def total(totals: dict[tuple, list], name: str, tag: str | None = None,
          caller: str | None = None, field: int = SELF_S):
    """Sum one field over the totals of span `name`, optionally by tag and caller."""
    return sum(entry[field] for (n, c, t), entry in totals.items()
               if n == name and (tag is None or t == tag)
               and (caller is None or c == caller))
