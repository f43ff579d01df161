"""Tests of the benchmark itself, on scaled-down copies of its workloads.

    python3 -m pytest perfbench -q
"""

import importlib
import io
import json
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE))

import wearbench  # noqa: E402

BENCHMARK = json.loads((wearbench.ROOT / "BENCHMARK.json").read_text())
SMOKE = {name: w.scaled(100) for name, w in wearbench.WORKLOADS.items()}
EXACT_COUNTS = ("workload.events", "trace.bytes", "metrics.percell_bytes",
                "memory.app_cells.", "memory.gc_cells.", "memory.record_calls.",
                "engine.gc_count.", "policy.take_calls.")


def reference_replayer():
    """The oracle from tests/, imported after wearsim so it shares its event types."""
    sys.path.insert(0, str(wearbench.ROOT / "tests"))
    sys.modules.pop("reference_replayer", None)
    return importlib.import_module("reference_replayer")


def run_smoke(name, traced, tmp_path, seed=2, pins=None):
    out = io.StringIO()
    result = wearbench.run(name, seed, 0, traced, workloads=SMOKE,
                           pins={} if pins is None else pins,
                           spans_dir=tmp_path, out=out)
    assert json.loads(out.getvalue().splitlines()[-1]) == result
    return result, out.getvalue()


def test_workloads_match_benchmark_json():
    assert [w["name"] for w in BENCHMARK["workloads"]] == list(wearbench.WORKLOADS)


@pytest.mark.parametrize("name", sorted(wearbench.WORKLOADS))
def test_job_matches_reference_replayer(name):
    workload = wearbench.WORKLOADS[name].scaled(20)
    setup = wearbench.set_up(workload, seed=3)
    job = wearbench.run_job(setup.api, name, workload, setup.text)
    assert wearbench.check_job(job, setup.facts, pins={}) == []
    oracle = reference_replayer()
    trace = setup.api.trace.parse_trace(setup.text)
    for run in job.runs:
        expected = oracle.reference_replay(trace, run.report.mem_size_cells, run.policy)
        assert run.report.per_cell_reads == expected.reads
        assert run.report.per_cell_writes == expected.writes
        assert run.report.gc_count == expected.gc_count


@pytest.mark.parametrize("traced", [False, True])
@pytest.mark.parametrize("name", sorted(wearbench.WORKLOADS))
def test_smoke_prints_every_metric(name, traced, tmp_path):
    result, text = run_smoke(name, traced, tmp_path)
    assert result["correct"] and result["failed"] == 0 and result["attempted"] >= 1
    assert f"error_rate 0.0" in text
    declared = BENCHMARK["per_layer" if traced else "end_to_end"]
    assert {m["name"]: m["unit"] for m in declared} == {
        key: metric["unit"] for key, metric in result["metrics"].items()}
    for key, metric in result["metrics"].items():
        assert metric["value"] >= 0 or key == "bench.trace_overhead_s", key
        assert f"  {key} " in text


@pytest.mark.parametrize("name", sorted(wearbench.WORKLOADS))
def test_spans_nest_and_self_times_are_not_negative(name, tmp_path):
    run_smoke(name, True, tmp_path)
    records = [json.loads(line) for line in
               (tmp_path / f"spans-{name}-seed2.jsonl").read_text().splitlines()]
    spans = [r for r in records if r["kind"] == "span"]
    totals = [r for r in records if r["kind"] == "total"]
    stages = {"gen", "format", "parse", "validate", "replay", "summarize", "export"}
    assert spans and totals
    for span in spans:
        assert span["name"].split(".")[0] in stages
        assert span["self_s"] >= 0 and span["end"] >= span["start"]
        if span["parent"] is not None:
            parent = spans[span["parent"]]
            assert parent["job"] == span["job"]
            assert parent["start"] <= span["start"] <= span["end"] <= parent["end"]
    assert all(t["self_s"] >= 0 for t in totals)


def test_counts_are_exact(tmp_path):
    name = "hotspot-large"
    first, _ = run_smoke(name, True, tmp_path)
    second, _ = run_smoke(name, True, tmp_path)
    counts = [key for key in first["metrics"] if key.startswith(EXACT_COUNTS)]
    assert len(counts) == 12
    for key in counts:
        assert first["metrics"][key] == second["metrics"][key], key

    setup = wearbench.set_up(SMOKE[name], seed=2)
    app_cells = reference_replayer().app_rw_cells(
        setup.api.trace.parse_trace(setup.text))
    for policy in wearbench.POLICIES:
        assert first["metrics"][f"memory.app_cells.{policy}"]["value"] == app_cells


def test_output_differing_from_pin_fails_the_job(tmp_path):
    result, _ = run_smoke("loop-bigmem", False, tmp_path,
                          pins={"golden": "0" * 64})
    assert not result["correct"]
    assert result["failed"] == result["attempted"] >= 1


def test_pins_cover_every_workload_and_policy():
    pins = json.loads(wearbench.PINS_PATH.read_text())
    assert pins["seed"] == wearbench.DEFAULT_SEED
    assert {name: sorted(digests) for name, digests in pins["digests"].items()} == {
        name: sorted(wearbench.POLICIES) for name in wearbench.WORKLOADS}


def test_fails_without_sources(tmp_path):
    shutil.copy(wearbench.ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(HERE, tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("out", "__pycache__"))
    done = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", "loop-bigmem",
         "--seed", "1", "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=60)
    assert done.returncode != 0
    assert '"correct"' not in done.stdout


def test_speed_clock_scales_each_lap_and_skips_the_probes():
    clock = wearbench.SpeedClock()
    clock.lap()
    clock.lap()  # two empty laps: the probes run between them are not timed
    assert 0 < clock.host < wearbench.PROBE_REPEATS * wearbench.PROBE_NOMINAL_S
    assert clock.nominal == pytest.approx(clock.host * clock.factor)
    assert clock.factor > 0


def test_summary_prints_host_seconds_and_speed_factors(tmp_path):
    _, text = run_smoke("hotspot-large", False, tmp_path)
    for label in ("set-up", "untraced job"):
        assert f"  {label} host seconds: " in text
        assert f"  {label} speed factors: " in text
