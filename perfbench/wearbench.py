"""The wearsim benchmark: fixed-seed workloads driven through the public API.

One job does what `wearsim compare` plus `wearsim run --percell --topn 1000`
do for one trace, without the disk: parse, validate, then for each policy
replay, export the summary and per-cell reports, take the top-N cells, the
compare-csv row and the lifespan extension against the first policy.
Report sinks hash what they receive and keep nothing.

Jobs run in a closed loop with one client, in one single-threaded process.
Times are reported at a fixed host speed, measured by a probe timed
between the stages of each set-up and job (see `SpeedClock`).
A traced run wraps the program's callables from here (see spans.py) and
turns the spans into per-layer numbers.  See README.md for the workloads
and the metric each layer should move.
"""

from __future__ import annotations

import contextlib
import gc
import hashlib
import importlib
import io
import json
import os
import platform
import random
import resource
import statistics
import sys
import time
from dataclasses import dataclass, replace
from pathlib import Path
from types import SimpleNamespace
from typing import Callable

from spans import CALLS, WEIGHT, Target, Tracer, total

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
PINS_PATH = HERE / "pins.json"
OUT_DIR = HERE / "out"

DEFAULT_SEED = 1
POLICIES = ("golden", "single")
#: Policies whose GC copy time and start-location time are metrics of their
#: own.  The single-space compactor moves nothing on workloads without frees
#: and takes no start locations, so those times would read 0 there.
GC_COPY_POLICIES = ("golden",)
TOP_N = 1000
#: Set-up is repeated at least SETUP_MIN_RUNS times and until SETUP_SECONDS
#: have passed, at most SETUP_MAX_RUNS times; setup_s is the median.
SETUP_MIN_RUNS, SETUP_MAX_RUNS, SETUP_SECONDS = 3, 15, 3.0
#: The host-speed probe: PROBE_REPEATS runs of PROBE_LOOKUPS random lookups
#: in a dict of PROBE_KEYS int keys, between the stages of each set-up and
#: job.  Times are reported at the speed at which one run takes PROBE_NOMINAL_S.
PROBE_KEYS, PROBE_LOOKUPS, PROBE_REPEATS, PROBE_NOMINAL_S = 1_000, 40_000, 3, 0.0025


@dataclass(frozen=True)
class Workload:
    pattern: str
    objects: int
    ops: int
    mean_size: int
    gc_every: int
    hot_fraction: float = 0.1
    mem: int | None = None  # None: the trace's #mem header

    def spec(self, api, seed: int):
        return api.workload.WorkloadSpec(
            pattern=self.pattern, object_count=self.objects, op_count=self.ops,
            mean_object_size=self.mean_size, hot_fraction=self.hot_fraction,
            gc_every=self.gc_every, seed=seed)

    def scaled(self, factor: int) -> Workload:
        """The same pattern and ratios with `factor` times fewer ops."""
        def down(n):
            return max(1, n // factor)
        mem = None if self.mem is None else max(4, self.mem // factor // 2 * 2)
        return replace(self, objects=down(self.objects), ops=down(self.ops),
                       gc_every=down(self.gc_every), mem=mem)


WORKLOADS = {
    # Cell-bound: golden GC copies about nine times the application's cells;
    # the single-space compactor leaves objects in place.
    "hotspot-large": Workload("hotspot", 200, 100_000, 256, 200),
    # Report-bound: cheap events, two reports of 2^21 cells each.
    "loop-bigmem": Workload("loop", 64, 20_000, 32, 500, mem=2 ** 21),
}

END_TO_END_UNITS = {
    "setup_s": "s",
    "job_s": "s",
    "events_per_s": "events/s",
    "peak_rss_mb": "MiB",
}

_LAYER_UNITS = {
    "events": "count", "bytes": "bytes", "percell_bytes": "bytes",
    "gc_count": "count", "write_amp": "ratio", "app_cells": "cells",
    "gc_cells": "cells", "record_calls": "count", "cells_per_call": "cells/call",
    "take_calls": "count",
}


def layer_unit(name: str) -> str:
    base = name.split(".")[1]
    return "s" if base.endswith("_s") else _LAYER_UNITS[base]


def layer_metric_names() -> list[str]:
    names = ["workload.generate_s", "workload.events", "trace.format_s",
             "trace.parse_s", "trace.validate_s", "trace.bytes"]
    for p in POLICIES:
        names += [f"engine.{m}.{p}" for m in (
            "dispatch_s", "access_s", "gc_s", "alloc_free_s", "build_report_s",
            "replay_loop_s", "gc_count", "write_amp")]
        names += [f"memory.{m}.{p}" for m in (
            "app_record_s", "app_cells", "gc_cells", "record_calls",
            "cells_per_call")]
    for p in GC_COPY_POLICIES:
        names += [f"memory.gc_record_s.{p}", f"policy.take_s.{p}",
                  f"policy.take_calls.{p}"]
    names += ["metrics.summarize_s", "metrics.summary_json_s",
              "metrics.percell_csv_s", "metrics.top_n_s", "metrics.percell_bytes",
              "bench.untraced_job_s", "bench.traced_job_s", "bench.trace_overhead_s"]
    return names


# --- host speed -------------------------------------------------------------

def _probe_data() -> tuple[dict[int, int], list[int]]:
    rng = random.Random(0)
    keys = [rng.randrange(1 << 30) for _ in range(PROBE_KEYS)]
    return dict.fromkeys(keys, 1), [rng.choice(keys) for _ in range(PROBE_LOOKUPS)]


_PROBE_TABLE, _PROBE_ORDER = _probe_data()


def probe_seconds() -> list[float]:
    """Host seconds of PROBE_REPEATS runs of a fixed pure-Python dict walk.

    Other tenants of a shared host slow pure-Python code by up to about 2x,
    in phases of seconds to minutes.  The probe does not touch wearsim, so
    its time moves with the host's speed alone.  Dict lookups over a table
    that spills out of the first-level cache track how much the program's
    stages slow down better than a loop of integer arithmetic, which other
    load slows less.
    """
    table, order = _PROBE_TABLE, _PROBE_ORDER
    samples = []
    for _ in range(PROBE_REPEATS):
        start = time.perf_counter()
        acc = 0
        for key in order:
            acc += table[key]
        samples.append(time.perf_counter() - start)
    return samples


class SpeedClock:
    """Times work in laps, each bracketed by probes of the host's speed.

    `host` sums the laps' host seconds.  `nominal` sums each lap's seconds
    scaled by PROBE_NOMINAL_S over the median probe time on either side of
    it, so it is what the laps would take at the nominal speed.  The probes
    themselves are not timed.
    """

    def __init__(self):
        self.host = self.nominal = 0.0
        self._probe = probe_seconds()
        self._start = time.perf_counter()

    def lap(self) -> None:
        seconds = time.perf_counter() - self._start
        probe = probe_seconds()
        self.host += seconds
        self.nominal += seconds * PROBE_NOMINAL_S / statistics.median(self._probe + probe)
        self._probe = probe
        self._start = time.perf_counter()

    @property
    def factor(self) -> float:
        """Nominal seconds per host second over the laps so far."""
        return self.nominal / self.host


def _no_lap() -> None:
    pass


# --- set-up -----------------------------------------------------------------

def import_wearsim() -> SimpleNamespace:
    """Import a fresh copy of wearsim from src/ and return its modules."""
    if sys.path[:1] != [str(SRC)]:
        sys.path.insert(0, str(SRC))
    for name in [m for m in sys.modules if m == "wearsim" or m.startswith("wearsim.")]:
        del sys.modules[name]
    importlib.import_module("wearsim")
    return SimpleNamespace(**{
        name: sys.modules[f"wearsim.{name}"]
        for name in ("workload", "trace", "engine", "memory", "policy", "metrics")})


@dataclass(frozen=True)
class TraceFacts:
    """What the wire-format text says, counted without wearsim's parser."""

    events: int
    generated_events: int
    gc_events: int
    app_read_cells: int
    app_write_cells: int
    bytes: int


def trace_facts(text: str, generated_events: int) -> TraceFacts:
    events = gc_events = reads = writes = 0
    for line in text.split("\n"):
        if not line or line[0] == "#":
            continue
        op = line[0]
        events += 1
        if op == "G":
            gc_events += 1
        elif op == "R":
            reads += int(line.rsplit(" ", 1)[1])
        elif op == "W":
            writes += int(line.rsplit(" ", 1)[1])
    return TraceFacts(events, generated_events, gc_events, reads, writes,
                      len(text.encode("utf-8")))


@dataclass(frozen=True)
class Setup:
    api: SimpleNamespace
    text: str
    facts: TraceFacts


def set_up(workload: Workload, seed: int, tracer: Tracer | None = None,
           lap: Callable[[], None] = _no_lap) -> Setup:
    """The `wearsim gen` step: import wearsim, generate the trace, format it.

    `lap` is called at the end of each stage.
    """
    api = import_wearsim()
    lap()
    with _installed(tracer, setup_targets(api)):
        trace = api.workload.generate(workload.spec(api, seed))
        lap()
        text = api.trace.format_trace(trace)
        lap()
    return Setup(api, text, trace_facts(text, len(trace.events)))


# --- the job ----------------------------------------------------------------

class HashSink(io.RawIOBase):
    """Byte sink that keeps only a SHA-256 and a count of what it receives."""

    def __init__(self):
        super().__init__()
        self.sha = hashlib.sha256()
        self.size = 0

    def writable(self) -> bool:
        return True

    def write(self, data) -> int:
        self.sha.update(data)
        self.size += len(data)
        return len(data)


def hash_export(write, report) -> tuple[str, int]:
    """Run an exporter into a buffered text sink, as the CLI's files are."""
    raw = HashSink()
    with io.TextIOWrapper(io.BufferedWriter(raw), encoding="utf-8",
                          newline="") as sink:
        write(report, sink)
    return raw.sha.hexdigest(), raw.size


@dataclass
class PolicyRun:
    policy: str
    report: object
    percell_sha: str
    percell_bytes: int
    top: list
    row: tuple


@dataclass
class Job:
    events: int
    violations: list
    runs: list[PolicyRun]


def run_job(api, name: str, workload: Workload, text: str,
            lap: Callable[[], None] = _no_lap) -> Job:
    """One job; `lap` is called at the end of each stage."""
    mode = api.metrics.CountingMode.ACCESSES
    trace = api.trace.parse_trace(text)
    lap()
    violations = api.trace.validate_trace(trace)
    lap()
    mem = workload.mem or trace.header.suggested_mem_size_cells
    runs: list[PolicyRun] = []
    baseline = None
    for spec in POLICIES:
        config = api.engine.EngineConfig(mem, api.policy.parse_policy(spec),
                                         count_gc_traffic=True)
        report = api.engine.replay(trace, config, mode)
        lap()
        hash_export(api.metrics.write_summary_json, report)
        percell_sha, percell_bytes = hash_export(api.metrics.write_percell_csv, report)
        top = api.metrics.top_n_distribution(
            report.per_cell_reads, report.per_cell_writes, mode, TOP_N)
        row = api.metrics.compare_csv_row(name, report)
        baseline = baseline or report.summary
        api.metrics.lifespan_extension(baseline, report.summary)
        runs.append(PolicyRun(spec, report, percell_sha, percell_bytes, top, row))
        lap()
    return Job(len(trace.events), violations, runs)


def policy_digest(run: PolicyRun) -> str:
    """Digest of percell-csv, top-N, compare-csv row and today's summary fields."""
    report, s = run.report, run.report.summary
    fields = (run.percell_sha, ",".join(map(str, run.top)),
              "|".join(map(str, run.row)), report.gc_count, report.event_count,
              repr(s.avg_all_cells), repr(s.avg_touched_cells), s.max_cell,
              s.max_cell_address, s.touched_cell_count)
    return hashlib.sha256("\n".join(map(str, fields)).encode()).hexdigest()


def check_job(job: Job, facts: TraceFacts, pins: dict[str, str]) -> list[str]:
    """Problems with a job's output; pins map policy to digest, if pinned."""
    problems = []
    if not job.events == facts.events == facts.generated_events:
        problems.append(f"round trip: generated {facts.generated_events}, text "
                        f"{facts.events}, parsed {job.events} events")
    if job.violations:
        problems.append(f"{len(job.violations)} validation violations")
    for run in job.runs:
        report = run.report
        if report.event_count != facts.events:
            problems.append(f"{run.policy}: event_count {report.event_count}, "
                            f"trace has {facts.events}")
        gc_reads = sum(report.per_cell_reads) - facts.app_read_cells
        gc_writes = sum(report.per_cell_writes) - facts.app_write_cells
        if gc_reads != gc_writes or gc_reads < 0:
            problems.append(f"{run.policy}: GC reads {gc_reads} != GC writes "
                            f"{gc_writes}")
        if report.gc_count < facts.gc_events:
            problems.append(f"{run.policy}: gc_count {report.gc_count} below "
                            f"{facts.gc_events} G events")
        pin = pins.get(run.policy)
        if pin is not None and pin != policy_digest(run):
            problems.append(f"{run.policy}: output differs from the pinned digest")
    return problems


def load_pins(name: str, seed: int) -> dict[str, str]:
    pins = json.loads(PINS_PATH.read_text())
    return pins["digests"].get(name, {}) if pins["seed"] == seed else {}


# --- tracing ----------------------------------------------------------------

def setup_targets(api) -> list[Target]:
    return [Target(api.workload, "generate", "gen.workload.generate", keep=True),
            Target(api.trace, "format_trace", "format.trace.format_trace", keep=True)]


ACCESS = "replay.engine.handle_access"
GC = "replay.engine.handle_gc"
RECORD = "replay.memory.record_range"


def job_targets(api) -> list[Target]:
    engine, metrics = api.engine.Engine, api.metrics
    return [
        Target(api.trace, "parse_trace", "parse.trace.parse_trace", keep=True),
        Target(api.trace, "validate_trace", "validate.trace.validate_trace", keep=True),
        Target(api.engine, "replay", "replay.engine.replay", keep=True,
               tag=lambda args: args[1].policy.spec_string()),
        Target(engine, "process", "replay.engine.process"),
        Target(engine, "handle_alloc", "replay.engine.handle_alloc"),
        Target(engine, "handle_free", "replay.engine.handle_free"),
        Target(engine, "handle_access", ACCESS),
        Target(engine, "handle_gc", GC),
        Target(api.memory.CellCounters, "record_range", RECORD,
               weigh=lambda args: args[2]),
        Target(api.policy.PolicyState, "take", "replay.policy.take"),
        Target(engine, "build_report", "replay.engine.build_report", keep=True),
        Target(api.engine, "summarize", "summarize.metrics.summarize", keep=True),
        Target(metrics, "write_summary_json", "export.metrics.write_summary_json",
               keep=True),
        Target(metrics, "write_percell_csv", "export.metrics.write_percell_csv",
               keep=True),
        Target(metrics, "top_n_distribution", "export.metrics.top_n_distribution",
               keep=True),
        Target(metrics, "compare_csv_row", "export.metrics.compare_csv_row", keep=True),
        Target(metrics, "lifespan_extension", "export.metrics.lifespan_extension",
               keep=True),
    ]


def _installed(tracer: Tracer | None, targets: list[Target]):
    return tracer.installed(targets) if tracer else contextlib.nullcontext()


def layer_metrics(totals: dict, job: Job, facts: TraceFacts) -> dict[str, float]:
    """Per-layer numbers of one traced job."""
    m = {
        "trace.parse_s": total(totals, "parse.trace.parse_trace"),
        "trace.validate_s": total(totals, "validate.trace.validate_trace"),
        "metrics.summarize_s": total(totals, "summarize.metrics.summarize"),
        "metrics.summary_json_s": total(totals, "export.metrics.write_summary_json"),
        "metrics.percell_csv_s": total(totals, "export.metrics.write_percell_csv"),
        "metrics.top_n_s": total(totals, "export.metrics.top_n_distribution"),
        "metrics.percell_bytes": sum(run.percell_bytes for run in job.runs),
    }
    for run in job.runs:
        p = run.policy
        app_cells = total(totals, RECORD, p, ACCESS, WEIGHT)
        gc_cells = total(totals, RECORD, p, GC, WEIGHT)
        calls = total(totals, RECORD, p, field=CALLS)
        m.update({
            f"engine.dispatch_s.{p}": total(totals, "replay.engine.process", p),
            f"engine.access_s.{p}": total(totals, ACCESS, p),
            f"engine.gc_s.{p}": total(totals, GC, p),
            f"engine.alloc_free_s.{p}": total(totals, "replay.engine.handle_alloc", p)
            + total(totals, "replay.engine.handle_free", p),
            f"engine.build_report_s.{p}": total(totals, "replay.engine.build_report", p),
            f"engine.replay_loop_s.{p}": total(totals, "replay.engine.replay", p),
            f"engine.gc_count.{p}": run.report.gc_count,
            f"engine.write_amp.{p}":
                sum(run.report.per_cell_writes) / facts.app_write_cells,
            f"memory.app_record_s.{p}": total(totals, RECORD, p, ACCESS),
            f"memory.app_cells.{p}": app_cells,
            f"memory.gc_cells.{p}": gc_cells,
            f"memory.record_calls.{p}": calls,
            f"memory.cells_per_call.{p}": (app_cells + gc_cells) / calls,
        })
        if p in GC_COPY_POLICIES:
            m[f"memory.gc_record_s.{p}"] = total(totals, RECORD, p, GC)
            m[f"policy.take_s.{p}"] = total(totals, "replay.policy.take", p)
            m[f"policy.take_calls.{p}"] = total(totals, "replay.policy.take", p,
                                                field=CALLS)
    return m


# --- a run ------------------------------------------------------------------

def environment(seed: int) -> dict:
    src_lines = sum(len(path.read_text().splitlines())
                    for path in sorted(SRC.rglob("*.py")))
    return {"python": platform.python_version(), "nproc": os.cpu_count(),
            "platform": platform.platform(), "seed": seed, "src_lines": src_lines}


def _timed_job(setup: Setup, name: str, workload: Workload, pins: dict,
               tracer: Tracer | None):
    """One job: (its clock, job or None, problems)."""
    gc.collect()
    clock = SpeedClock()
    try:
        with _installed(tracer, job_targets(setup.api)):
            job = run_job(setup.api, name, workload, setup.text, clock.lap)
    except Exception as err:  # a failed job is counted, not fatal
        clock.lap()
        return clock, None, [f"{type(err).__name__}: {err}"]
    return clock, job, check_job(job, setup.facts, pins)


def run(name: str, seed: int, seconds: float, traced: bool, *,
        workloads: dict[str, Workload] = WORKLOADS, pins: dict | None = None,
        spans_dir: Path = OUT_DIR, out=sys.stdout) -> dict:
    """Run one workload for `seconds`; print metrics and return the result."""
    workload = workloads[name]
    if pins is None:
        pins = load_pins(name, seed)
    print("env " + json.dumps(environment(seed)), file=out)
    tracer = Tracer() if traced else None

    # Host seconds and seconds at the nominal speed of each set-up and job.
    setup_seconds, setup_nominal, generate_s, format_s = [], [], [], []
    while (len(setup_seconds) < SETUP_MIN_RUNS or sum(setup_seconds) < SETUP_SECONDS) \
            and len(setup_seconds) < SETUP_MAX_RUNS:
        setup = None  # let the previous trace go before the next is built
        gc.collect()
        if tracer:
            tracer.job = f"setup-{len(setup_seconds)}"
        clock = SpeedClock()
        setup = set_up(workload, seed, tracer, clock.lap)
        setup_seconds.append(clock.host)
        setup_nominal.append(clock.nominal)
        if tracer:
            totals = tracer.job_totals(tracer.job)
            generate_s.append(total(totals, "gen.workload.generate") * clock.factor)
            format_s.append(total(totals, "format.trace.format_trace") * clock.factor)

    job_seconds: dict[bool, list[float]] = {False: [], True: []}
    job_nominal: dict[bool, list[float]] = {False: [], True: []}
    layers: list[dict] = []
    attempted = failed = 0
    start, last_round = time.perf_counter(), 0.0
    # Start another round of jobs only if one as long as the last still fits.
    while attempted == 0 or time.perf_counter() - start + last_round <= seconds:
        round_start = time.perf_counter()
        for job_traced in ((False, True) if traced else (False,)):
            job_tracer = tracer if job_traced else None
            if job_tracer:
                job_tracer.job = f"job-{attempted}"
            clock, job, problems = _timed_job(setup, name, workload, pins, job_tracer)
            attempted += 1
            job_seconds[job_traced].append(clock.host)
            job_nominal[job_traced].append(clock.nominal)
            if problems:
                failed += 1
                for problem in problems[:5]:
                    print(f"perfbench: job {attempted}: {problem}", file=sys.stderr)
            elif job_tracer:
                layer = layer_metrics(tracer.job_totals(tracer.job), job, setup.facts)
                layers.append({key: value * clock.factor if layer_unit(key) == "s" else value
                               for key, value in layer.items()})
            job = None
        last_round = time.perf_counter() - round_start

    print(f"workload {name}: {len(setup_seconds)} set-ups, {attempted} jobs, "
          f"{failed} failed, error_rate {failed / attempted}", file=out)
    for label, host, nominal in (
            ("set-up", setup_seconds, setup_nominal),
            ("untraced job", job_seconds[False], job_nominal[False]),
            ("traced job", job_seconds[True], job_nominal[True])):
        if host:
            print(f"  {label} host seconds: " + " ".join(f"{h:.3f}" for h in host),
                  file=out)
            print(f"  {label} speed factors: "
                  + " ".join(f"{n / h:.3f}" for h, n in zip(host, nominal)), file=out)
    if traced:
        values = {key: statistics.median(layer[key] for layer in layers)
                  for key in (layers[0] if layers else {})}
        values["workload.generate_s"] = statistics.median(generate_s)
        values["trace.format_s"] = statistics.median(format_s)
        values["workload.events"] = setup.facts.events
        values["trace.bytes"] = setup.facts.bytes
        untraced = statistics.median(job_nominal[False])
        traced_s = statistics.median(job_nominal[True])
        values.update({"bench.untraced_job_s": untraced, "bench.traced_job_s": traced_s,
                       "bench.trace_overhead_s": traced_s - untraced})
        metrics = {key: {"value": values[key], "unit": layer_unit(key)}
                   for key in layer_metric_names() if key in values}
        spans_dir.mkdir(parents=True, exist_ok=True)
        tracer.write(spans_dir / f"spans-{name}-seed{seed}.jsonl")
    else:
        job_s = statistics.median(job_nominal[False])
        values = {
            "setup_s": statistics.median(setup_nominal),
            "job_s": job_s,
            "events_per_s": setup.facts.events * len(POLICIES) / job_s,
            "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024,
        }
        metrics = {key: {"value": value, "unit": END_TO_END_UNITS[key]}
                   for key, value in values.items()}
    for key, metric in metrics.items():
        print(f"  {key:32} {metric['value']:.6g} {metric['unit']}", file=out)
    result = {"correct": failed == 0, "attempted": attempted, "failed": failed,
              "metrics": metrics}
    print(json.dumps(result), file=out, flush=True)
    return result
