import csv
import errno
import json
import os
import stat
import subprocess
import sys
import tempfile
import threading
from pathlib import Path

import pytest
from hypothesis import given, settings, strategies as st

from wearsim.cli import build_parser, main
from wearsim.engine import MAX_MEM_CELLS
from wearsim.metrics import load_summary
from wearsim.trace import format_trace, parse_trace
from wearsim.workload import PATTERNS, WorkloadSpec, generate

TRIVIAL = "A 1 3\nW 1 0 3\nG\n"


def write_file(path, text):
    path.write_text(text)
    return str(path)


def summary_text(**fields):
    """A summary-json document of a trivial run, with `fields` as raw JSON: a
    statistic's name sets it in the summary object, any other a top-level key,
    and None leaves the key out."""
    top = {"policy": '"none"', "mem_size_cells": "20",
           "counting_mode": '"accesses"', "count_gc_traffic": "true"}
    stats = {"avg_all_cells": "0.3", "avg_touched_cells": "1.0", "max_cell": "2",
             "max_cell_address": "0", "touched_cell_count": "6"}
    for key, value in fields.items():
        (stats if key in stats else top)[key] = value

    def obj(values):
        return "{" + ", ".join(f'"{key}": {value}' for key, value in values.items()
                               if value is not None) + "}"
    return obj({**top, "summary": obj(stats)})


def exit_code(argv):
    """What main returns, or the code argparse exits with."""
    try:
        return main(argv)
    except SystemExit as err:
        return err.code


def run_summary(tmp_path, trace_path, policy, mem=20, extra=()):
    """Run one policy; return the summary-json's path, its keys and its stats."""
    out = tmp_path / f"summary_{policy.replace(':', '_')}.json"
    code = main(["run", "--trace", trace_path, "--mem-size", str(mem),
                 "--policy", policy, "--out", str(out), *extra])
    assert code == 0
    with open(out) as f:
        meta = json.load(f)
        f.seek(0)
        return out, meta, load_summary(f)[0]


class TestRun:
    def test_trivial_trace(self, tmp_path):
        trace = write_file(tmp_path / "t.trace", TRIVIAL)
        _, meta, stats = run_summary(tmp_path, trace, "none")
        assert meta["gc_count"] == 1
        assert meta["event_count"] == 3
        assert meta["policy"] == "none"
        assert stats.max_cell >= 1

    def test_identical_invocations_identical_bytes(self, tmp_path):
        trace = write_file(tmp_path / "t.trace", TRIVIAL)
        out1 = tmp_path / "a.json"
        out2 = tmp_path / "b.json"
        for out in (out1, out2):
            assert main(["run", "--trace", trace, "--mem-size", "20",
                         "--policy", "random:42", "--out", str(out)]) == 0
        assert out1.read_bytes() == out2.read_bytes()

    def test_odd_mem_size_is_usage_error(self, tmp_path):
        trace = write_file(tmp_path / "t.trace", TRIVIAL)
        assert main(["run", "--trace", trace, "--mem-size", "21",
                     "--policy", "golden"]) == 2

    # the size comes from --mem-size or from the #mem header; run and compare
    # both reject it before replaying
    @pytest.mark.parametrize("command", ["run", "compare"])
    @pytest.mark.parametrize("header, flags, needs", [
        ("", ["--mem-size", str(2 ** 26 + 2)], "0.5 GiB"),
        ("#mem 1549539408\n", [], "11.5 GiB"),
        # 318 digits: more GiB than a float holds
        ("", ["--mem-size", str(10 ** 317)], f"need at least {10 ** 317 // 2 ** 27} GiB"),
        (f"#mem {10 ** 317}\n", [], f"need at least {10 ** 317 // 2 ** 27} GiB"),
    ], ids=["mem-size-flag", "mem-header", "mem-size-flag-past-a-float",
            "mem-header-past-a-float"])
    def test_memory_past_the_limit_is_usage_error(self, tmp_path, capsys, command,
                                                  header, flags, needs):
        trace = write_file(tmp_path / "t.trace", header + TRIVIAL)
        policy = (["--policy", "golden"] if command == "run"
                  else ["--policies", "none,golden"])
        assert main([command, "--trace", trace, *flags, *policy]) == 2
        err = capsys.readouterr().err
        assert "exceeds the limit of 67108864 cells" in err
        assert needs in err

    def test_mem_size_falls_back_to_header(self, tmp_path):
        trace = write_file(tmp_path / "t.trace", "#mem 20\n" + TRIVIAL)
        out = tmp_path / "s.json"
        assert main(["run", "--trace", trace, "--policy", "golden",
                     "--out", str(out)]) == 0
        assert json.loads(out.read_text())["mem_size_cells"] == 20

    def test_no_mem_anywhere_is_usage_error(self, tmp_path):
        trace = write_file(tmp_path / "t.trace", TRIVIAL)
        assert main(["run", "--trace", trace, "--policy", "golden"]) == 2

    def test_unknown_policy_is_usage_error(self, tmp_path, capsys):
        trace = write_file(tmp_path / "t.trace", TRIVIAL)
        assert main(["run", "--trace", trace, "--mem-size", "20",
                     "--policy", "spiral"]) == 2
        assert capsys.readouterr().err == (
            "wearsim: error: unknown policy 'spiral'\n")

    @pytest.mark.parametrize("policy, message", [
        ("fraction:1.0", "fraction must be a float in [0, 1)"),
        ("golden:1", "policy 'golden' takes no argument"),
        ("random", "policy 'random' needs an argument after a colon"),
    ])
    def test_refused_policy_message(self, tmp_path, capsys, policy, message):
        trace = write_file(tmp_path / "t.trace", TRIVIAL)
        assert main(["run", "--trace", trace, "--mem-size", "20",
                     "--policy", policy]) == 2
        assert capsys.readouterr().err == f"wearsim: error: {message}\n"

    def test_error_escapes_control_characters(self, tmp_path, capsys):
        # a field ending in CRCR keeps one CR after the line's end is cut;
        # printed raw, it would move a terminal's cursor over the message
        trace = tmp_path / "t.trace"
        trace.write_bytes(b"A 1 3\nW 1 0 1\r\r\n")
        assert main(["run", "--trace", str(trace), "--mem-size", "20",
                     "--policy", "golden"]) == 3
        assert capsys.readouterr().err == (
            f"wearsim: error: {trace}: non-integer field '1\\r' at line 2\n")

    def test_error_escapes_a_byte_order_mark(self, tmp_path, capsys):
        # printed raw, the invisible mark would make the opcode read 'A'
        trace = tmp_path / "t.trace"
        trace.write_bytes(b"\xef\xbb\xbfA 1 3\n")
        assert main(["run", "--trace", str(trace), "--mem-size", "20",
                     "--policy", "golden"]) == 3
        assert capsys.readouterr().err == (
            f"wearsim: error: {trace}: unknown opcode '\\ufeffA' at line 1\n")

    def test_bad_policy_is_usage_error_before_reading_trace(self, tmp_path):
        # the trace does not exist: reading it first would exit 3
        assert main(["run", "--trace", str(tmp_path / "nope.trace"),
                     "--policy", "spiral"]) == 2

    def test_parse_error_exits_3(self, tmp_path, capsys):
        trace = write_file(tmp_path / "bad.trace", "A 1 0\n")
        assert main(["run", "--trace", trace, "--mem-size", "20",
                     "--policy", "golden"]) == 3
        assert capsys.readouterr().err == (
            f"wearsim: error: {trace}: size must be >= 1 at line 1\n")

    # one trace per live-set rule, each refused by validate_trace alone
    LIVE_SET_FAULTS = [
        ("A 1 3\nA 1 2\n", "event 1: alloc of live object 1"),
        ("A 1 3\nF 1\nF 1\n", "event 2: free of dead object 1"),
        ("A 1 2\nF 1\nW 1 0 1\n", "event 2: write of dead object 1"),
        ("A 1 3\nR 1 2 2\n",
         "event 1: read of 2 cells at offset 2 exceeds size 3 of object 1"),
        ("A 1 2\nW 1 1 2\n",
         "event 1: write of 2 cells at offset 1 exceeds size 2 of object 1"),
    ]

    def test_invalid_trace_exits_3(self, tmp_path, capsys):
        out = tmp_path / "out"
        for text, message in self.LIVE_SET_FAULTS:
            trace = write_file(tmp_path / "bad.trace", text)
            for command, *flags in (("run", "--policy", "golden"),
                                    ("compare", "--policies", "none,golden")):
                argv = [command, "--trace", trace, "--mem-size", "20", *flags,
                        "--out", str(out)]
                assert main(argv) == 3, argv
                assert capsys.readouterr().err == (
                    f"wearsim: error: {trace}: {message}\n"), argv
                assert not out.exists(), argv

    def test_violations_listed_up_to_five(self, tmp_path, capsys):
        trace = write_file(tmp_path / "bad.trace", "A 1 3\n" + "F 2\n" * 7)
        assert main(["run", "--trace", trace, "--mem-size", "20",
                     "--policy", "golden"]) == 3
        expected = [f"{trace}: event {i}: free of dead object 2" for i in range(1, 6)]
        expected.append(f"{trace}: 2 further violations")
        assert capsys.readouterr().err.splitlines() == [
            f"wearsim: error: {line}" for line in expected]

    def test_missing_file_exits_3(self, tmp_path):
        assert main(["run", "--trace", str(tmp_path / "nope.trace"),
                     "--mem-size", "20", "--policy", "golden"]) == 3

    def test_non_utf8_trace_exits_3(self, tmp_path, capsys):
        trace = tmp_path / "bad.trace"
        trace.write_bytes(b"A 1 3\n\xff\xfe\n")
        assert main(["run", "--trace", str(trace), "--mem-size", "20",
                     "--policy", "golden"]) == 3
        assert capsys.readouterr().err == (
            f"wearsim: error: {trace}: not UTF-8 text: 'utf-8' codec can't decode "
            "byte 0xff in position 6: invalid start byte\n")

    def test_topn_zero_is_usage_error_before_replay(self, tmp_path):
        # the trace does not exist: reading it would exit 3, not 2
        with pytest.raises(SystemExit) as err:
            main(["run", "--trace", str(tmp_path / "nope.trace"),
                  "--mem-size", "20", "--policy", "golden", "--topn", "0"])
        assert err.value.code == 2

    def test_topn_past_the_largest_memory_is_usage_error(self, tmp_path, capsys):
        # the trace does not exist: reading it would exit 3, not 2
        with pytest.raises(SystemExit) as err:
            main(["run", "--trace", str(tmp_path / "nope.trace"), "--mem-size",
                  "20", "--policy", "golden", "--topn", str(MAX_MEM_CELLS + 1)])
        assert err.value.code == 2
        assert "--topn: must be in [1, 67108864]" in capsys.readouterr().err
        args = build_parser().parse_args(["run", "--trace", "t", "--policy", "golden",
                                          "--topn", str(MAX_MEM_CELLS)])
        assert args.topn == MAX_MEM_CELLS

    def test_topn_out_without_topn_is_usage_error_before_reading_trace(
            self, tmp_path, capsys):
        # refused before the trace is read: a missing one would exit 3
        for trace in (str(tmp_path / "nope.trace"),
                      write_file(tmp_path / "t.trace", TRIVIAL)):
            top = tmp_path / "top.csv"
            assert main(["run", "--trace", trace, "--mem-size", "20",
                         "--policy", "golden", "--topn-out", str(top)]) == 2
            assert capsys.readouterr() == (
                "", "wearsim: error: --topn-out needs --topn\n")
            assert not top.exists()

    @pytest.mark.parametrize("flag", ["--out", "--percell", "--topn-out"])
    def test_unwritable_output_is_usage_error(self, tmp_path, capsys, flag):
        trace = write_file(tmp_path / "t.trace", TRIVIAL)
        outputs = {"--out": str(tmp_path / "s.json"), "--topn-out":
                   str(tmp_path / "top.csv"), "--percell": str(tmp_path / "c.csv")}
        outputs[flag] = str(tmp_path / "missing" / "out")
        argv = ["run", "--trace", trace, "--mem-size", "20", "--policy",
                "golden", "--topn", "3"]
        for name, path in outputs.items():
            argv += [name, path]
        assert main(argv) == 2
        assert capsys.readouterr().err.startswith("wearsim: error: cannot write")

    def test_out_of_memory_exits_4(self, tmp_path, capsys):
        trace = write_file(tmp_path / "t.trace", "A 1 4\nA 2 4\n")
        assert main(["run", "--trace", trace, "--mem-size", "8",
                     "--policy", "golden"]) == 4
        assert capsys.readouterr().err == (
            "wearsim: error: policy golden: event 1: cannot allocate 4 cells for "
            "object 2: 4 cells live, 0 free\n")

    def test_percell_and_topn_outputs(self, tmp_path):
        trace = write_file(tmp_path / "t.trace", TRIVIAL)
        percell = tmp_path / "cells.csv"
        topn = tmp_path / "top.csv"
        out = tmp_path / "s.json"
        assert main(["run", "--trace", trace, "--mem-size", "20",
                     "--policy", "golden", "--out", str(out),
                     "--percell", str(percell),
                     "--topn", "5", "--topn-out", str(topn)]) == 0
        with open(percell) as f:
            rows = list(csv.reader(f))
        assert rows[0] == ["address", "reads", "writes"]
        assert len(rows) == 21
        with open(topn) as f:
            top_rows = list(csv.reader(f))
        assert top_rows[0] == ["rank", "count"]
        with open(out) as f:
            stats, _ = load_summary(f)
        assert int(top_rows[1][1]) == stats.max_cell
        # past the memory's 20 cells, the table lists every cell once
        assert main(["run", "--trace", trace, "--mem-size", "20",
                     "--policy", "golden", "--out", str(out),
                     "--topn", "30", "--topn-out", str(topn)]) == 0
        assert len(topn.read_text().splitlines()) == 1 + 20

    def test_summary_then_topn_on_stdout(self, tmp_path, capsys):
        trace = write_file(tmp_path / "t.trace", TRIVIAL)
        assert main(["run", "--trace", trace, "--mem-size", "20",
                     "--policy", "golden", "--topn", "2"]) == 0
        assert capsys.readouterr().out == (
            '{\n  "policy": "golden",\n  "mem_size_cells": 20,\n'
            '  "counting_mode": "accesses",\n  "count_gc_traffic": true,\n'
            '  "gc_count": 1,\n  "event_count": 3,\n  "summary": {\n'
            '    "avg_all_cells": 0.45,\n    "avg_touched_cells": 1.5,\n'
            '    "max_cell": 2,\n    "max_cell_address": 0,\n'
            '    "touched_cell_count": 6\n  }\n}\n'
            "rank,count\n1,2\n2,2\n")

    def test_writes_only_counting(self, tmp_path):
        trace = write_file(tmp_path / "t.trace", TRIVIAL)
        _, _, stats_a = run_summary(tmp_path, trace, "none")
        _, meta_w, stats_w = run_summary(tmp_path, trace, "none",
                                         extra=("--count", "writes"))
        assert meta_w["counting_mode"] == "writes"
        assert stats_w.max_cell <= stats_a.max_cell


class TestGen:
    def test_deterministic_files(self, tmp_path):
        paths = [tmp_path / "a.trace", tmp_path / "b.trace"]
        for p in paths:
            assert main(["gen", "--pattern", "churn", "--objects", "10",
                         "--ops", "500", "--seed", "1", "--out", str(p)]) == 0
        assert paths[0].read_bytes() == paths[1].read_bytes()

    def test_generated_trace_runs(self, tmp_path):
        trace = tmp_path / "g.trace"
        assert main(["gen", "--pattern", "hotspot", "--objects", "20",
                     "--ops", "1000", "--seed", "3", "--out", str(trace)]) == 0
        out = tmp_path / "s.json"
        assert main(["run", "--trace", str(trace), "--policy", "golden",
                     "--out", str(out)]) == 0

    def test_hotspot_of_more_objects_than_a_float_holds(self, tmp_path):
        # 400 digits: only the 10 objects that 10 operations allocate exist
        trace = tmp_path / "g.trace"
        assert main(["gen", "--pattern", "hotspot", "--objects", str(10 ** 399),
                     "--ops", "10", "--out", str(trace)]) == 0
        assert trace.read_text() == format_trace(generate(
            WorkloadSpec("hotspot", object_count=10 ** 399, op_count=10)))
        assert trace.read_text().count("\nA ") == 10

    def test_defaults_are_the_specs(self, tmp_path):
        trace = tmp_path / "g.trace"
        assert main(["gen", "--pattern", "hotspot", "--objects", "40",
                     "--ops", "800", "--out", str(trace)]) == 0
        assert trace.read_text() == format_trace(generate(
            WorkloadSpec("hotspot", object_count=40, op_count=800)))

    def test_zero_ops_is_usage_error(self, tmp_path):
        assert main(["gen", "--pattern", "churn", "--ops", "0",
                     "--out", str(tmp_path / "x.trace")]) == 2

    def test_unwritable_trace_is_usage_error(self, tmp_path, capsys):
        out = tmp_path / "missing" / "x.trace"
        assert main(["gen", "--pattern", "loop", "--objects", "4",
                     "--ops", "100", "--out", str(out)]) == 2
        assert f"cannot write {out}" in capsys.readouterr().err

    def test_reported_event_count_matches_file(self, tmp_path, capsys):
        trace = tmp_path / "g.trace"
        assert main(["gen", "--pattern", "loop", "--objects", "4",
                     "--ops", "100", "--out", str(trace)]) == 0
        message = capsys.readouterr().out
        parsed = parse_trace(trace.read_text())
        assert f"wrote {len(parsed.events)} events" in message


class TestCompare:
    @pytest.fixture()
    def hotspot_trace(self, tmp_path):
        path = tmp_path / "hot.trace"
        assert main(["gen", "--pattern", "hotspot", "--objects", "32",
                     "--ops", "6000", "--mean-size", "8", "--hot-fraction", "0.1",
                     "--gc-every", "100", "--seed", "4", "--out", str(path)]) == 0
        return str(path)

    def test_single_policy_is_usage_error(self, tmp_path):
        trace = write_file(tmp_path / "t.trace", TRIVIAL)
        assert main(["compare", "--trace", trace, "--mem-size", "20",
                     "--policies", "golden"]) == 2

    # each item is read as --policy reads its value: no blank item, no padding
    @pytest.mark.parametrize("policies, item", [
        ("golden,,none", "''"), ("golden, none", "' none'"),
        ("golden,none,", "''"), (",golden,none", "''"),
    ])
    def test_items_are_not_trimmed(self, tmp_path, capsys, policies, item):
        trace = write_file(tmp_path / "t.trace", TRIVIAL)
        assert main(["compare", "--trace", trace, "--mem-size", "20",
                     "--policies", policies, "--out", str(tmp_path / "c.csv")]) == 2
        assert f"unknown policy {item}" in capsys.readouterr().err
        assert not (tmp_path / "c.csv").exists()

    @pytest.mark.parametrize("flag", ["--out", "--extensions-out"])
    def test_unwritable_output_is_usage_error(self, tmp_path, capsys, flag):
        trace = write_file(tmp_path / "t.trace", TRIVIAL)
        outputs = {"--out": str(tmp_path / "cmp.csv"),
                   "--extensions-out": str(tmp_path / "ext.csv")}
        outputs[flag] = str(tmp_path / "missing" / "out")
        argv = ["compare", "--trace", trace, "--mem-size", "20",
                "--policies", "none,golden"]
        for name, path in outputs.items():
            argv += [name, path]
        assert main(argv) == 2
        assert capsys.readouterr().err.startswith("wearsim: error: cannot write")

    def test_leveling_ordering_on_hotspot(self, tmp_path, hotspot_trace):
        out = tmp_path / "cmp.csv"
        ext = tmp_path / "ext.csv"
        assert main(["compare", "--trace", hotspot_trace, "--mem-size", "2048",
                     "--policies", "none,golden,quarter",
                     "--out", str(out), "--extensions-out", str(ext)]) == 0
        with open(out) as f:
            rows = {row["policy"]: row for row in csv.DictReader(f)}
        max_of = {p: int(rows[p]["max"]) for p in ("none", "golden", "quarter")}
        # ordering verified against the brute-force replayer before freezing
        assert max_of["golden"] <= max_of["quarter"] <= max_of["none"]
        with open(ext) as f:
            ext_rows = {row["policy"]: row for row in csv.DictReader(f)}
        assert float(ext_rows["none"]["avg_extension"]) == 1.0
        assert float(ext_rows["none"]["max_extension"]) == 1.0
        assert float(ext_rows["golden"]["max_extension"]) > 1.0

    def test_extension_table_bytes(self, tmp_path, hotspot_trace):
        ext = tmp_path / "ext.csv"
        assert main(["compare", "--trace", hotspot_trace, "--mem-size", "2048",
                     "--policies", "none,golden,fraction:0.3,random:1,single",
                     "--out", str(tmp_path / "cmp.csv"),
                     "--extensions-out", str(ext)]) == 0
        assert ext.read_text() == (
            "policy,avg_extension,max_extension\n"
            "none,1.0,1.0\n"
            "golden,1.0,9.109375\n"
            "fraction:0.3,1.0,8.44927536231884\n"
            "random:1,1.0,8.96923076923077\n"
            "single,3.0442619210586357,0.5578947368421052\n")

    def test_zero_candidate_pair_is_skipped(self, tmp_path, capsys):
        # golden copies the object at the G; single leaves it in place at 0,
        # so only single's statistic is zero and only its extension row goes
        trace = write_file(tmp_path / "g.trace", "A 1 3\nG\n")
        out, ext = tmp_path / "cmp.csv", tmp_path / "ext.csv"
        assert main(["compare", "--trace", trace, "--mem-size", "20",
                     "--policies", "golden,single", "--out", str(out),
                     "--extensions-out", str(ext)]) == 0
        assert capsys.readouterr().err == (
            "wearsim: skipping golden vs single: zero candidate statistic\n")
        assert out.read_text() == (
            "trace,policy,avg_all,avg_touched,max,touched,gc_count\n"
            "g.trace,golden,0.3,1.0,1,6,1\n"
            "g.trace,single,0.0,0.0,0,0,1\n")
        assert ext.read_text() == (
            "policy,avg_extension,max_extension\ngolden,1.0,1.0\n")

    @pytest.mark.parametrize("text, mem, policies", [
        ("A 1 3\nG\n", 20, "golden,none,single"),
        ("A 1 3\nG\n", 20, "single,golden,none"),
        (format_trace(generate(WorkloadSpec("hotspot", 32, 6000, seed=4))), 2048,
         "none,golden,fraction:0.3,single"),
    ])
    def test_extension_rows_match_report(self, tmp_path, capsys, text, mem,
                                         policies):
        # compare's rows are report's rows over run summaries of the same
        # trace that take the first policy as the baseline, skips included
        trace = write_file(tmp_path / "t.trace", text)
        ext = tmp_path / "ext.csv"
        assert main(["compare", "--trace", trace, "--mem-size", str(mem),
                     "--policies", policies, "--out", str(tmp_path / "cmp.csv"),
                     "--extensions-out", str(ext)]) == 0
        compare_err = capsys.readouterr().err
        summaries = []
        for policy in policies.split(","):
            summaries.append(str(tmp_path / f"{policy}.json"))
            assert main(["run", "--trace", trace, "--mem-size", str(mem),
                         "--policy", policy, "--out", summaries[-1]]) == 0
        table = tmp_path / "report.csv"
        assert main(["report", *summaries, "--out", str(table)]) == 0
        report_err = capsys.readouterr().err
        baseline = policies.split(",")[0]
        with open(table) as f:
            report_rows = [row[1:] for row in csv.reader(f) if row[0] == baseline]
        with open(ext) as f:
            compare_rows = [row for row in csv.reader(f)
                            if row[0] not in ("policy", baseline)]
        assert compare_rows == report_rows
        skip = f"wearsim: skipping {baseline} vs "
        assert ([line for line in compare_err.splitlines()
                 if line != skip + f"{baseline}: zero candidate statistic"]
                == [line for line in report_err.splitlines()
                    if line.startswith(skip)])

    def test_object_too_large_writes_no_output(self, tmp_path, capsys):
        trace = write_file(tmp_path / "t.trace", "A 1 11\n")
        out = tmp_path / "cmp.csv"
        assert main(["compare", "--trace", trace, "--mem-size", "20",
                     "--policies", "none,single", "--out", str(out)]) == 4
        assert capsys.readouterr().err == (
            "wearsim: error: policy none: event 0: object 1 of 11 cells exceeds "
            "capacity 10\n")
        assert not out.exists()

    def test_rows_match_individual_runs(self, tmp_path, hotspot_trace):
        out = tmp_path / "cmp.csv"
        assert main(["compare", "--trace", hotspot_trace, "--mem-size", "1024",
                     "--policies", "golden,single", "--out", str(out)]) == 0
        with open(out) as f:
            rows = {row["policy"]: row for row in csv.DictReader(f)}
        for policy in ("golden", "single"):
            _, meta, stats = run_summary(tmp_path, hotspot_trace, policy,
                                         mem=1024)
            assert int(rows[policy]["max"]) == stats.max_cell
            assert float(rows[policy]["avg_all"]) == stats.avg_all_cells
            assert int(rows[policy]["gc_count"]) == meta["gc_count"]

    def test_row_order_is_flag_order(self, tmp_path, hotspot_trace):
        out = tmp_path / "cmp.csv"
        assert main(["compare", "--trace", hotspot_trace, "--mem-size", "1024",
                     "--policies", "quarter,none,golden", "--out", str(out)]) == 0
        with open(out) as f:
            policies = [row["policy"] for row in csv.DictReader(f)]
        assert policies == ["quarter", "none", "golden"]


class TestReport:
    def test_extension_table_matches_library(self, tmp_path):
        trace = write_file(tmp_path / "t.trace", TRIVIAL)
        golden_out, _, golden_stats = run_summary(tmp_path, trace, "golden")
        none_out, _, none_stats = run_summary(tmp_path, trace, "none")
        table = tmp_path / "ext.csv"
        assert main(["report", str(none_out), str(golden_out),
                     "--out", str(table)]) == 0
        with open(table) as f:
            rows = list(csv.DictReader(f))
        assert len(rows) == 2  # both ordered pairs
        by_pair = {(r["baseline"], r["candidate"]): r for r in rows}
        key = ("summary_none", "summary_golden")
        expected = none_stats.max_cell / golden_stats.max_cell
        assert float(by_pair[key]["max_extension"]) == expected

    def test_extension_table_bytes(self, tmp_path):
        trace = write_file(tmp_path / "t.trace",
                           TRIVIAL + "A 2 2\nR 2 0 2\nG\nW 1 1 1\nG\n")
        summaries = []
        for policy, name in (("none", "a,1"), ("golden", "b"), ("single", 'c"q')):
            summaries.append(str(tmp_path / f"{name}.json"))
            assert main(["run", "--trace", trace, "--mem-size", "20", "--policy",
                         policy, "--out", summaries[-1]]) == 0
        table = tmp_path / "ext.csv"
        assert main(["report", *summaries, "--out", str(table)]) == 0
        assert table.read_text() == (
            "baseline,candidate,avg_extension,max_extension\n"
            '"a,1",b,1.0,1.0\n'
            '"a,1","c""q",5.333333333333334,2.5\n'
            'b,"a,1",1.0,1.0\n'
            'b,"c""q",5.333333333333334,2.5\n'
            '"c""q","a,1",0.18749999999999997,0.4\n'
            '"c""q",b,0.18749999999999997,0.4\n')

    def test_topn_from_percell(self, tmp_path):
        trace = write_file(tmp_path / "t.trace", TRIVIAL)
        percell = tmp_path / "cells.csv"
        assert main(["run", "--trace", trace, "--mem-size", "20",
                     "--policy", "golden", "--out", str(tmp_path / "s.json"),
                     "--percell", str(percell)]) == 0
        assert main(["report", str(percell), "--topn", "4",
                     "--out", str(tmp_path / "ext.csv")]) == 0
        top = tmp_path / "cells_top4.csv"
        with open(top) as f:
            rows = list(csv.reader(f))
        assert rows[0] == ["rank", "count"]
        assert len(rows) == 5

    @pytest.mark.parametrize("mode", ["accesses", "writes"])
    def test_topn_from_a_header_only_percell(self, tmp_path, mode):
        percell = write_file(tmp_path / "p.csv", "address,reads,writes\n")
        assert main(["report", percell, "--topn", "4", "--count", mode,
                     "--out", str(tmp_path / "ext.csv")]) == 0
        assert (tmp_path / "p_top4.csv").read_text() == "rank,count\n"

    def test_same_stem_summaries_are_compared(self, tmp_path):
        trace = write_file(tmp_path / "t.trace", TRIVIAL)
        summaries = []
        for policy, name in (("none", "a,1"), ("golden", "b")):
            (tmp_path / name).mkdir()
            summaries.append(str(tmp_path / name / "x.json"))
            assert main(["run", "--trace", trace, "--mem-size", "20",
                         "--policy", policy, "--out", summaries[-1]]) == 0
        table = tmp_path / "ext.csv"
        assert main(["report", *summaries, "--out", str(table)]) == 0
        with open(table) as f:
            rows = list(csv.DictReader(f))
        assert [(r["baseline"], r["candidate"]) for r in rows] == [
            (summaries[0], summaries[1]), (summaries[1], summaries[0])]

    def test_repeated_percell_is_read_once(self, tmp_path, capsys):
        percell = write_file(tmp_path / "p.csv", "address,reads,writes\n0,1,0\n")
        table = tmp_path / "ext.csv"
        assert main(["report", percell, percell, "--topn", "2",
                     "--out", str(table)]) == 0
        assert capsys.readouterr().err == ""
        assert (tmp_path / "p_top2.csv").read_text() == "rank,count\n1,1\n"
        assert sorted(p.name for p in tmp_path.iterdir()) == [
            "ext.csv", "p.csv", "p_top2.csv"]

    def test_repeated_summary_is_read_once(self, tmp_path):
        summary = write_file(tmp_path / "s.json", summary_text())
        table = tmp_path / "ext.csv"
        assert main(["report", summary, summary, "--out", str(table)]) == 0
        assert table.read_text() == "baseline,candidate,avg_extension,max_extension\n"

    def test_percell_spelled_two_ways_is_read_once(self, tmp_path, capsys,
                                                    monkeypatch):
        monkeypatch.chdir(tmp_path)
        write_file(tmp_path / "p.csv", "address,reads,writes\n0,1,0\n")
        assert main(["report", "./p.csv", "p.csv", "--topn", "3"]) == 0
        assert capsys.readouterr().err == ""
        assert (tmp_path / "p_top3.csv").read_text() == "rank,count\n1,1\n"
        assert sorted(p.name for p in tmp_path.iterdir()) == ["p.csv", "p_top3.csv"]

    def test_summary_spelled_two_ways_is_read_once(self, tmp_path, capsys,
                                                    monkeypatch):
        monkeypatch.chdir(tmp_path)
        write_file(tmp_path / "s.json", summary_text())
        assert main(["report", "s.json", "./s.json"]) == 0
        assert capsys.readouterr().out == (
            "baseline,candidate,avg_extension,max_extension\n")

    def test_same_topn_path_is_refused_before_writing(self, tmp_path, capsys):
        trace = write_file(tmp_path / "t.trace", TRIVIAL)
        percells = []
        for name in ("a", "b"):
            (tmp_path / name).mkdir()
            percells.append(str(tmp_path / name / "c.csv"))
            assert main(["run", "--trace", trace, "--mem-size", "20",
                         "--policy", "golden", "--out", str(tmp_path / "s.json"),
                         "--percell", percells[-1]]) == 0
        out_dir = tmp_path / "tops"
        out_dir.mkdir()
        table = tmp_path / "ext.csv"
        assert main(["report", *percells, "--topn", "4", "--out-dir", str(out_dir),
                     "--out", str(table)]) == 2
        err = capsys.readouterr().err
        assert percells[0] in err and percells[1] in err
        assert list(out_dir.iterdir()) == [] and not table.exists()

    def test_unwritable_out_dir_is_usage_error(self, tmp_path, capsys):
        trace = write_file(tmp_path / "t.trace", TRIVIAL)
        percell = tmp_path / "c.csv"
        assert main(["run", "--trace", trace, "--mem-size", "20",
                     "--policy", "golden", "--out", str(tmp_path / "s.json"),
                     "--percell", str(percell)]) == 0
        missing = tmp_path / "nodir"
        assert main(["report", str(percell), "--out-dir", str(missing),
                     "--out", str(tmp_path / "ext.csv")]) == 2
        err = capsys.readouterr().err
        assert f"cannot write {missing / 'c_top1000.csv'}" in err

    def test_topn_zero_is_usage_error(self, tmp_path):
        with pytest.raises(SystemExit) as err:
            main(["report", str(tmp_path / "nope.csv"), "--topn", "0"])
        assert err.value.code == 2

    def test_topn_past_the_largest_memory_is_usage_error(self, tmp_path, capsys):
        with pytest.raises(SystemExit) as err:
            main(["report", str(tmp_path / "nope.csv"), "--topn",
                  str(MAX_MEM_CELLS + 1)])
        assert err.value.code == 2
        assert "--topn: must be in [1, 67108864]" in capsys.readouterr().err

    def test_zero_candidate_pair_is_skipped(self, tmp_path, capsys):
        # a candidate with no accesses leaves its pair out; the reverse
        # pair, with that summary as the baseline, is still written
        busy = write_file(tmp_path / "busy.json", summary_text())
        idle = write_file(tmp_path / "idle.json", summary_text(
            avg_all_cells="0.0", avg_touched_cells="0.0", max_cell="0",
            touched_cell_count="0"))
        table = tmp_path / "ext.csv"
        assert main(["report", busy, idle, "--out", str(table)]) == 0
        assert capsys.readouterr().err == (
            "wearsim: skipping busy vs idle: zero candidate statistic\n")
        assert table.read_text() == (
            "baseline,candidate,avg_extension,max_extension\nidle,busy,0.0,0.0\n")

    def test_skip_line_escapes_control_characters(self, tmp_path, capsys):
        busy = write_file(tmp_path / "bu\rsy.json", summary_text())
        idle = write_file(tmp_path / "idle.json", summary_text(
            avg_all_cells="0.0", avg_touched_cells="0.0", max_cell="0",
            touched_cell_count="0"))
        assert main(["report", busy, idle, "--out", os.devnull]) == 0
        assert capsys.readouterr().err == (
            "wearsim: skipping bu\\rsy vs idle: zero candidate statistic\n")

    def test_skip_line_escapes_a_direction_override(self, tmp_path, capsys):
        # printed raw, U+202E would reverse the rest of the terminal line
        busy = write_file(tmp_path / "bu\u202esy.json", summary_text())
        idle = write_file(tmp_path / "idle.json", summary_text(
            avg_all_cells="0.0", avg_touched_cells="0.0", max_cell="0",
            touched_cell_count="0"))
        assert main(["report", busy, idle, "--out", os.devnull]) == 0
        assert capsys.readouterr().err == (
            "wearsim: skipping bu\\u202esy vs idle: zero candidate statistic\n")

    def test_no_inputs_is_usage_error(self, tmp_path):
        with pytest.raises(SystemExit) as err:
            main(["report"])
        assert err.value.code == 2

    def test_malformed_summary_exits_3(self, tmp_path):
        bad = write_file(tmp_path / "bad.json", "{not json")
        assert main(["report", bad]) == 3

    # a summary_text document is well formed but for the one field it is given
    @pytest.mark.parametrize("name, text", [
        ("s.json", "[]"),
        ("s.json", '{"summary": null}'),
        ("s.json", summary_text(max_cell="[1]")),
        ("s.json", summary_text(max_cell="true")),
        ("s.json", summary_text(max_cell="1e400")),
        ("s.json", summary_text(avg_all_cells="1" + "0" * 400)),
        ("s.json", "[" * 100_000),
        ("c.csv", "address,reads,writes\n0," + "1" * 200_000 + ",0\n"),
        ("s.json", summary_text(counting_mode=None)),
        ("s.json", summary_text(counting_mode='"reads"')),
        ("s.json", summary_text(counting_mode="[1]")),
        ("s.json", summary_text(mem_size_cells=None)),
        ("s.json", summary_text(mem_size_cells="true")),
        ("s.json", summary_text(mem_size_cells="20.0")),
        ("s.json", summary_text(count_gc_traffic=None)),
        ("s.json", summary_text(count_gc_traffic="1")),
    ], ids=["list", "null-summary", "list-field", "bool-field",
            "float-past-range", "int-past-range", "nested", "long-csv-field",
            "no-counting-mode", "unknown-counting-mode", "list-counting-mode",
            "no-mem-size", "bool-mem-size", "float-mem-size", "no-gc-traffic",
            "int-gc-traffic"])
    def test_unreadable_input_exits_3_in_one_line(self, tmp_path, capsys, name,
                                                   text):
        path = write_file(tmp_path / name, text)
        assert main(["report", path, "--out", str(tmp_path / "ext.csv")]) == 3
        [line] = capsys.readouterr().err.splitlines()
        assert line.startswith(f"wearsim: error: {path}: ")

    # the run flags of the second summary, the field they change and its values
    @pytest.mark.parametrize("flags, field, values", [
        (["--count", "writes"], "counting_mode", '"accesses" vs "writes"'),
        (["--mem-size", "40"], "mem_size_cells", "20 vs 40"),
        (["--no-gc-traffic"], "count_gc_traffic", "true vs false"),
    ], ids=["counting-mode", "mem-size", "gc-traffic"])
    def test_unlike_summaries_are_refused(self, tmp_path, capsys, monkeypatch,
                                          flags, field, values):
        # an extension ratio between them would divide unlike counts
        monkeypatch.chdir(tmp_path)
        write_file(tmp_path / "t.trace", TRIVIAL)
        write_file(tmp_path / "p.csv", "address,reads,writes\n0,1,0\n")
        for name, extra in (("a.json", []), ("b.json", flags)):
            assert main(["run", "--trace", "t.trace", "--mem-size", "20",
                         "--policy", "golden", "--out", name, *extra]) == 0
        before = sorted(p.name for p in tmp_path.iterdir())
        assert main(["report", "a.json", "p.csv", "b.json", "--out", "ext.csv"]) == 3
        assert capsys.readouterr() == (
            "", f"wearsim: error: a.json and b.json differ in {field}: {values}\n")
        assert sorted(p.name for p in tmp_path.iterdir()) == before

    def test_unreadable_summary_writes_no_topn(self, tmp_path):
        percell = write_file(tmp_path / "p.csv", "address,reads,writes\n0,1,0\n")
        bad = write_file(tmp_path / "bad.json", "[]")
        table = tmp_path / "ext.csv"
        assert main(["report", percell, bad, "--out", str(table)]) == 3
        assert not (tmp_path / "p_top1000.csv").exists() and not table.exists()

    def test_unrecognized_input_exits_3(self, tmp_path):
        other = write_file(tmp_path / "x.txt", "hello")
        assert main(["report", other]) == 3
        percell = write_file(tmp_path / "a.csv", "address,reads,writes\n0,1,0\n")
        assert main(["report", percell, other]) == 3
        assert not (tmp_path / "a_top1000.csv").exists()


class TestOneFilePerOutput:
    # argv, then the two outputs' names and the path they share
    @pytest.mark.parametrize("argv, first, second, path", [
        (["run", "--trace", "t.trace", "--mem-size", "20", "--policy", "golden",
          "--out", "a.out", "--percell", "a.out"], "--out", "--percell", "a.out"),
        (["run", "--trace", "t.trace", "--mem-size", "20", "--policy", "golden",
          "--percell", "x.csv", "--topn", "2", "--topn-out", "./x.csv"],
         "--percell", "--topn-out", "./x.csv"),
        (["compare", "--trace", "t.trace", "--mem-size", "20", "--policies",
          "none,golden", "--out", "c.csv", "--extensions-out", "c.csv"],
         "--out", "--extensions-out", "c.csv"),
        (["report", "p.csv", "--topn", "3", "--out", "p_top3.csv"],
         "p.csv", "--out", "p_top3.csv"),
    ], ids=["run-out-percell", "run-percell-topn-out", "compare", "report"])
    def test_two_outputs_naming_one_file_are_refused(self, tmp_path, capsys,
                                                     monkeypatch, argv, first,
                                                     second, path):
        monkeypatch.chdir(tmp_path)
        write_file(tmp_path / "t.trace", TRIVIAL)
        write_file(tmp_path / "p.csv", "address,reads,writes\n0,1,0\n")
        assert main(argv) == 2
        assert capsys.readouterr() == (
            "", f"wearsim: error: {first} and {second} would both write {path}\n")
        assert sorted(p.name for p in tmp_path.iterdir()) == ["p.csv", "t.trace"]

    # argv, then the output's name and the input it names
    @pytest.mark.parametrize("argv, output, input_", [
        (["run", "--trace", "t.trace", "--mem-size", "20", "--policy", "golden",
          "--out", "t.trace"], "--out", "t.trace"),
        (["report", "s.json", "--out", "s.json"], "--out", "s.json"),
        (["report", "p.csv", "p_top5.csv", "--topn", "5"], "p.csv", "p_top5.csv"),
    ], ids=["run-out-trace", "report-out-summary", "report-topn-percell"])
    def test_output_naming_an_input_is_refused(self, tmp_path, capsys, monkeypatch,
                                               argv, output, input_):
        monkeypatch.chdir(tmp_path)
        write_file(tmp_path / "t.trace", TRIVIAL)
        write_file(tmp_path / "s.json", summary_text())
        for name in ("p.csv", "p_top5.csv"):
            write_file(tmp_path / name, "address,reads,writes\n0,1,0\n")
        before = {p.name: p.read_bytes() for p in tmp_path.iterdir()}
        assert main(argv) == 2
        assert capsys.readouterr() == (
            "", f"wearsim: error: {output} would overwrite the input {input_}\n")
        assert {p.name: p.read_bytes() for p in tmp_path.iterdir()} == before


    # a file output replaces its target only once every output is complete
    @pytest.mark.parametrize("existing", [None, "kept\n"])
    def test_failed_write_leaves_no_output(self, tmp_path, capsys, monkeypatch,
                                           existing):
        monkeypatch.chdir(tmp_path)
        write_file(tmp_path / "t.trace", TRIVIAL)
        if existing is not None:
            write_file(tmp_path / "cmp.csv", existing)
        assert main(["compare", "--trace", "t.trace", "--mem-size", "20",
                     "--policies", "none,golden", "--out", "cmp.csv",
                     "--extensions-out", "nodir/ext.csv"]) == 2
        left = {p.name: p.read_text() for p in tmp_path.iterdir()}
        assert left == {"t.trace": TRIVIAL,
                        **({} if existing is None else {"cmp.csv": existing})}
        assert capsys.readouterr() == (
            "", "wearsim: error: cannot write nodir/ext.csv: "
                "No such file or directory\n")

    # replacing several targets is not atomic: a failed replace leaves the
    # targets replaced before it, and names its target as typed
    def test_failed_replace_keeps_earlier_targets(self, tmp_path, capsys,
                                                  monkeypatch):
        monkeypatch.chdir(tmp_path)
        write_file(tmp_path / "t.trace", TRIVIAL)
        for name in ("cmp.csv", "ext.csv"):
            write_file(tmp_path / name, "old\n")
        replace, calls = os.replace, []

        def replace_once(src, dst):
            calls.append(dst)
            if len(calls) == 2:
                raise PermissionError(errno.EACCES, os.strerror(errno.EACCES))
            replace(src, dst)
        monkeypatch.setattr(os, "replace", replace_once)
        assert main(["compare", "--trace", "t.trace", "--mem-size", "20",
                     "--policies", "none,golden", "--out", "cmp.csv",
                     "--extensions-out", "ext.csv"]) == 2
        assert capsys.readouterr() == (
            "", "wearsim: error: cannot write ext.csv: Permission denied\n")
        assert sorted(p.name for p in tmp_path.iterdir()) == [
            "cmp.csv", "ext.csv", "t.trace"]
        assert (tmp_path / "cmp.csv").read_text().startswith("trace,policy,")
        assert (tmp_path / "ext.csv").read_text() == "old\n"

    def test_failed_stdout_write_is_usage_error(self, tmp_path, capsys,
                                                monkeypatch):
        class BrokenPipe:
            def write(self, text):
                raise BrokenPipeError(errno.EPIPE, os.strerror(errno.EPIPE))
        monkeypatch.chdir(tmp_path)
        write_file(tmp_path / "t.trace", TRIVIAL)
        monkeypatch.setattr(sys, "stdout", BrokenPipe())
        assert main(["run", "--trace", "t.trace", "--mem-size", "20",
                     "--policy", "golden", "--percell", "p.csv"]) == 2
        assert capsys.readouterr().err == (
            "wearsim: error: cannot write stdout: Broken pipe\n")
        assert sorted(p.name for p in tmp_path.iterdir()) == ["p.csv", "t.trace"]

    def test_new_output_mode_follows_umask(self, tmp_path, monkeypatch):
        monkeypatch.chdir(tmp_path)
        write_file(tmp_path / "t.trace", TRIVIAL)
        umask = os.umask(0o027)
        try:
            assert main(["run", "--trace", "t.trace", "--mem-size", "20",
                         "--policy", "golden", "--out", "s.json"]) == 0
        finally:
            os.umask(umask)
        assert stat.S_IMODE(os.stat("s.json").st_mode) == 0o640

    def test_output_through_a_symlink_writes_its_target(self, tmp_path,
                                                       monkeypatch):
        monkeypatch.chdir(tmp_path)
        write_file(tmp_path / "t.trace", TRIVIAL)
        os.mkdir("d")
        os.symlink(os.path.join("d", "s.json"), "link.json")
        assert main(["run", "--trace", "t.trace", "--mem-size", "20",
                     "--policy", "golden", "--out", "link.json"]) == 0
        assert os.path.islink("link.json")
        assert os.listdir("d") == ["s.json"]
        with open("d/s.json") as f:
            assert load_summary(f)[0].max_cell == 2

    def test_fifo_output_is_written_in_place(self, tmp_path):
        trace = write_file(tmp_path / "t.trace", TRIVIAL)
        fifo = tmp_path / "out.fifo"
        os.mkfifo(fifo)
        got = []
        reader = threading.Thread(target=lambda: got.append(fifo.read_text()),
                                  daemon=True)
        reader.start()
        assert main(["run", "--trace", trace, "--mem-size", "20",
                     "--policy", "golden", "--out", str(fifo)]) == 0
        reader.join(timeout=10)
        assert not reader.is_alive()
        assert json.loads(got[0])["policy"] == "golden"
        assert stat.S_ISFIFO(os.stat(fifo).st_mode)
        assert sorted(p.name for p in tmp_path.iterdir()) == ["out.fifo", "t.trace"]


# Text that int() or float() might take, but that is not an unsigned ASCII
# decimal.  Every surface that reads a number refuses each of them.
REFUSED_UINTS = ["2_0", "+2", " 3", "\u0663", "\uff11", "\u00b2", "-5", ""]
REFUSED_FRACTIONS = ["\u0660.5", "0.1_0", " 0.25", "-0.0"]


def gen_argv(tmp_path, flag, value):
    return ["gen", "--pattern", "hotspot", "--ops", "50", flag, value,
            "--out", str(tmp_path / "g.trace")]


def run_argv(tmp_path, trace_text, *flags):
    trace = write_file(tmp_path / "t.trace", trace_text)
    return ["run", "--trace", trace, "--out", str(tmp_path / "s.json"), *flags]


def report_argv(tmp_path, percell_text, *flags):
    percell = write_file(tmp_path / "p.csv", percell_text)
    return ["report", percell, "--out", str(tmp_path / "ext.csv"), *flags]


# name -> (argv for a value, exit code when refused, text in the refusal)
UINT_SURFACES = {
    "trace-field": (lambda tmp, v: run_argv(tmp, f"A {v} 3\n", "--mem-size", "20",
                                            "--policy", "golden"), 3, "at line 1"),
    "mem-header": (lambda tmp, v: run_argv(tmp, f"#mem {v}\n" + TRIVIAL,
                                           "--policy", "golden"), 3, "at line 1"),
    "percell-field": (lambda tmp, v: report_argv(
        tmp, f"address,reads,writes\n0,{v},0\n"), 3, "row 1 malformed"),
    "random-seed": (lambda tmp, v: run_argv(tmp, TRIVIAL, "--mem-size", "20",
                                            "--policy", f"random:{v}"),
                    2, "bad random argument"),
    "--mem-size": (lambda tmp, v: run_argv(tmp, TRIVIAL, "--mem-size", v,
                                           "--policy", "golden"),
                   2, "argument --mem-size:"),
    "run --topn": (lambda tmp, v: run_argv(tmp, TRIVIAL, "--mem-size", "20",
                                           "--policy", "golden", "--topn", v),
                   2, "argument --topn:"),
    "report --topn": (lambda tmp, v: report_argv(
        tmp, "address,reads,writes\n0,1,0\n", "--topn", v), 2, "argument --topn:"),
    **{f"gen {flag}": (lambda tmp, v, flag=flag: gen_argv(tmp, flag, v),
                       2, f"argument {flag}:")
       for flag in ("--objects", "--ops", "--mean-size", "--gc-every", "--seed")},
}

FRACTION_SURFACES = {
    "fraction-spec": (lambda tmp, v: run_argv(tmp, TRIVIAL, "--mem-size", "20",
                                              "--policy", f"fraction:{v}"),
                      2, "bad fraction argument"),
    "gen --hot-fraction": (lambda tmp, v: gen_argv(tmp, "--hot-fraction", v),
                           2, "argument --hot-fraction:"),
}


class TestNumbersAtEverySurface:
    @pytest.mark.parametrize("surface", UINT_SURFACES)
    def test_uint_surface_takes_digits(self, tmp_path, surface):
        argv, _, _ = UINT_SURFACES[surface]
        assert exit_code(argv(tmp_path, "20")) == 0

    @pytest.mark.parametrize("token", REFUSED_UINTS)
    @pytest.mark.parametrize("surface", UINT_SURFACES)
    def test_uint_surface_refuses(self, tmp_path, capsys, surface, token):
        argv, code, reason = UINT_SURFACES[surface]
        assert exit_code(argv(tmp_path, token)) == code
        assert reason in capsys.readouterr().err

    @pytest.mark.parametrize("surface", FRACTION_SURFACES)
    def test_fraction_surface_takes_a_decimal(self, tmp_path, surface):
        argv, _, _ = FRACTION_SURFACES[surface]
        assert exit_code(argv(tmp_path, "0.25")) == 0

    @pytest.mark.parametrize("token", REFUSED_FRACTIONS)
    @pytest.mark.parametrize("surface", FRACTION_SURFACES)
    def test_fraction_surface_refuses(self, tmp_path, capsys, surface, token):
        argv, code, reason = FRACTION_SURFACES[surface]
        assert exit_code(argv(tmp_path, token)) == code
        assert reason in capsys.readouterr().err


# Trace bytes near the wire format: a generated trace, which replays, with
# lines inserted that may break the grammar or a live-object rule (junk
# opcodes, fields that int() might take), LF or CRLF line ends, and trailing
# bytes that need not be UTF-8.
FUZZ_FIELDS = st.one_of(
    st.integers(0, 12).map(str),
    st.sampled_from(["-1", "+2", "1_0", "\u0663", "\uff11", "\u00b2", "", "x"]))
FUZZ_LINES = st.one_of(
    st.builds(lambda op, fields: " ".join([op, *fields]),
              st.sampled_from(["A", "F", "R", "W", "G", "X", "a", "#mem"]),
              st.lists(FUZZ_FIELDS, max_size=4)),
    st.sampled_from(["", "#! wearsim-trace v1", "#! wearsim-trace v2", "# c"]))


def fuzz_trace(spec, inserts, eol, tail):
    lines = format_trace(generate(spec)).splitlines()
    for at, line in inserts:
        lines.insert(at % (len(lines) + 1), line)
    return "".join(line + eol for line in lines).encode() + tail


FUZZ_TRACES = st.builds(
    fuzz_trace,
    st.builds(WorkloadSpec, st.sampled_from(PATTERNS), st.integers(1, 6),
              st.integers(1, 40), st.integers(1, 8), gc_every=st.integers(1, 20),
              seed=st.integers(0, 2**32)),
    st.one_of(st.just([]),
              st.lists(st.tuples(st.integers(0, 50), FUZZ_LINES), min_size=1,
                       max_size=3)),
    st.sampled_from(["\n", "\r\n"]),
    st.one_of(st.just(b""), st.binary(min_size=1, max_size=3)))
VALID_POLICIES = ["golden", "quarter", "fraction:0.3", "none", "random:1", "single"]
FUZZ_POLICIES = st.one_of(
    st.lists(st.sampled_from(VALID_POLICIES), min_size=2, max_size=3),
    st.lists(st.sampled_from(VALID_POLICIES + ["spiral", "fraction:1.0", "golden:1",
                                               "random", ""]), min_size=1, max_size=3))
# --mem-size is always passed, so no #mem header sizes the memory, and any
# size the engine accepts is small: it allocates counters for every cell.
# Even sizes of at least 4 are drawn apart, so that many runs replay.
FUZZ_MEM_SIZES = st.one_of(st.integers(2, 128).map(lambda n: str(2 * n)),
                           st.integers(0, 256).map(str),
                           st.sampled_from([str(MAX_MEM_CELLS + 2), "-4", "8x"]))


class TestExitCodeContract:
    @settings(max_examples=150, deadline=None)
    @given(FUZZ_TRACES, FUZZ_POLICIES, FUZZ_MEM_SIZES)
    def test_run_and_compare_exit_with_a_contract_code(self, trace_bytes, policies,
                                                       mem_size):
        with tempfile.TemporaryDirectory() as tmp:
            trace = Path(tmp, "t.trace")
            trace.write_bytes(trace_bytes)
            common = ["--trace", str(trace), "--mem-size", mem_size]
            for argv in (
                    ["run", *common, "--policy", policies[0],
                     "--out", str(Path(tmp, "s.json"))],
                    ["compare", *common, "--policies", ",".join(policies),
                     "--out", str(Path(tmp, "c.csv")),
                     "--extensions-out", str(Path(tmp, "e.csv"))]):
                assert exit_code(argv) in {0, 2, 3, 4}, argv


class TestPipelineDeterminism:
    def test_gen_run_report_byte_identical(self, tmp_path):
        artifacts = []
        for name in ("one", "two"):
            d = tmp_path / name
            d.mkdir()
            trace = d / "w.trace"
            assert main(["gen", "--pattern", "churn", "--objects", "12",
                         "--ops", "800", "--seed", "11", "--out", str(trace)]) == 0
            summary = d / "s.json"
            percell = d / "c.csv"
            assert main(["run", "--trace", str(trace), "--policy", "random:7",
                         "--out", str(summary), "--percell", str(percell)]) == 0
            table = d / "ext.csv"
            assert main(["report", str(summary), str(summary.with_name("s.json")),
                         "--out", str(table)]) == 0
            assert main(["report", str(percell), "--topn", "16",
                         "--out", str(d / "unused.csv")]) == 0
            artifacts.append([p.read_bytes() for p in
                              (trace, summary, percell, table,
                               d / "c_top16.csv")])
        assert artifacts[0] == artifacts[1]


class TestProcessExit:
    SRC = Path(__file__).resolve().parents[1] / "src"

    def test_package_import_loads_every_module(self):
        # a fresh interpreter, since this one has imported the modules already
        env = dict(os.environ, PYTHONPATH=str(self.SRC))
        names = ("engine", "memory", "metrics", "policy", "trace", "workload")
        done = subprocess.run(
            [sys.executable, "-c", "import inspect, wearsim; print(*(inspect."
             f"ismodule(getattr(wearsim, name, None)) for name in {names!r}))"],
            env=env, capture_output=True, text=True)
        assert done.returncode == 0, done.stderr
        assert done.stdout.split() == ["True"] * len(names)

    @pytest.mark.parametrize("code, trace_text, policy", [
        (0, TRIVIAL, "golden"),
        (2, TRIVIAL, "spiral"),
        (3, "A 1 3\nF 1\nF 1\n", "golden"),
        (4, "A 1 4\nA 2 4\n", "golden"),
    ], ids=["ok", "usage", "bad-trace", "simulation"])
    def test_exit_code_reaches_the_process(self, tmp_path, code, trace_text,
                                            policy):
        trace = write_file(tmp_path / "t.trace", trace_text)
        env = dict(os.environ, PYTHONPATH=str(self.SRC))
        done = subprocess.run(
            [sys.executable, "-m", "wearsim.cli", "run", "--trace", trace,
             "--mem-size", "8", "--policy", policy,
             "--out", str(tmp_path / "s.json")],
            env=env, capture_output=True, text=True)
        assert done.returncode == code, done.stderr
        assert ("wearsim: error:" in done.stderr) == (code != 0)
