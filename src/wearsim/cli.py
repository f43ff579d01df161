"""Command-line front end: gen, run, compare, and report subcommands.

Exit codes: 0 success, 2 usage error, an output naming an input or two
outputs naming one file included, 3 unreadable or invalid trace / malformed
report input, summaries that count different things included, 4 simulation
error (e.g. out of memory).  A command writes nothing, but for `compare`'s
and `report`'s line on stderr for each extension pair they skip, its
candidate statistic being zero: it reads every input, computes every result
and returns its outputs, which `main` alone writes, to stdout where no path
is given.  The files replace their targets only once all are complete, so a
write that fails leaves none of them; but replacing several files is not
atomic, and a replace that fails leaves the targets replaced before it.  A
command that fails raises `_Exit`, which carries the code and the error
lines; `main` alone prints those lines and returns the code.

Every number on the command line is an unsigned ASCII decimal, read by
trace.parse_uint or, for a fraction, by policy.parse_fraction.
"""

from __future__ import annotations

import argparse
import csv
import json
import os
import sys
from collections import Counter
from contextlib import suppress
from functools import partial
from itertools import permutations

from wearsim.engine import MAX_MEM_CELLS, EngineConfig, SimulationError, replay
from wearsim.metrics import (CountingMode, compare_csv_row, lifespan_extension,
                             load_percell_csv, load_summary,
                             top_n_distribution, write_compare_csv,
                             write_percell_csv, write_summary_json,
                             write_table, write_topn_csv)
from wearsim.policy import parse_fraction, parse_policy
from wearsim.trace import format_trace, parse_trace, parse_uint, validate_trace
from wearsim.workload import PATTERNS, WorkloadSpec, generate

EXIT_OK = 0
EXIT_USAGE = 2
EXIT_BAD_TRACE = 3
EXIT_SIMULATION = 4


class _Exit(Exception):
    """Ends a command; its args are the nonzero exit code, then the error lines."""


def _say(line: str) -> None:
    """Print a line, which may quote a trace field or a file name, to stderr,
    with each character that isprintable() refuses as repr() spells it."""
    print("".join(c if c.isprintable() else repr(c)[1:-1] for c in line),
          file=sys.stderr)


def _topn(text: str) -> int:
    n = parse_uint(text)  # no memory has more cells to rank than MAX_MEM_CELLS
    if not 1 <= n <= MAX_MEM_CELLS:
        raise argparse.ArgumentTypeError(f"must be in [1, {MAX_MEM_CELLS}], got {n}")
    return n


def _create_beside(path: str) -> tuple[str, int]:
    """Create a new file in path's directory, with the mode open() would
    give it; return its name and a descriptor open for writing."""
    head, tail = os.path.split(path)
    while True:
        temp = os.path.join(head, f".{tail}.{os.urandom(4).hex()}.tmp")
        try:
            return temp, os.open(temp, os.O_CREAT | os.O_EXCL | os.O_WRONLY, 0o666)
        except FileExistsError:
            continue


def _write_all(outputs, inputs) -> None:
    """Write each (name, path or None for stdout, emit), unless a path names
    one of the command's input files or two paths name one file: then exit 2,
    naming both, before opening any.

    Each file is written to a temporary file beside it, and only once every
    one is complete do they replace their targets; then the stdout outputs
    are written in order.  So a write that fails leaves no output behind,
    but a replace that fails leaves the targets replaced before it, and no
    temporary file.
    A target that exists and is not a regular file, such as /dev/null, is
    written in place.
    """
    read: dict[str, str] = {}  # real path -> the input's first spelling
    for path in inputs:
        read.setdefault(os.path.realpath(path), path)
    names: dict[str, str] = {}  # real path -> name of the output that writes it
    files = []  # (path, real path, emit) of each output to a file
    for name, path, emit in outputs:
        if path is not None:
            real = os.path.realpath(path)
            if real in read:
                raise _Exit(EXIT_USAGE,
                            f"{name} would overwrite the input {read[real]}")
            if real in names:
                raise _Exit(EXIT_USAGE,
                            f"{names[real]} and {name} would both write {path}")
            names[real] = name
            files.append((path, real, emit))
    staged: list[tuple[str, str, str]] = []  # (temporary file, real path, path)
    try:
        for path, real, emit in files:
            try:
                if os.path.exists(real) and not os.path.isfile(real):
                    sink = open(path, "w", newline="")
                else:
                    temp, fd = _create_beside(real)
                    staged.append((temp, real, path))
                    sink = open(fd, "w", newline="")
                with sink:
                    emit(sink)
            except OSError as err:
                raise _Exit(EXIT_USAGE, f"cannot write {path}: {err.strerror}") from err
        for temp, real, path in staged:
            try:
                os.replace(temp, real)
            except OSError as err:
                raise _Exit(EXIT_USAGE, f"cannot write {path}: {err.strerror}") from err
        staged.clear()
    finally:
        for temp, *_ in staged:  # on failure; a replaced one is gone already
            with suppress(OSError):
                os.remove(temp)
    for _, path, emit in outputs:
        if path is None:
            try:
                emit(sys.stdout)
            except OSError as err:
                raise _Exit(EXIT_USAGE, f"cannot write stdout: {err.strerror}") from err


def _load_valid_trace(path: str):
    """Parse and validate a trace file; a bad one ends the command with exit 3."""
    try:
        with open(path, "rb") as f:
            trace = parse_trace(f.read().decode("utf-8"))
    except OSError as err:
        raise _Exit(EXIT_BAD_TRACE, f"cannot read trace: {err}") from err
    except UnicodeDecodeError as err:
        raise _Exit(EXIT_BAD_TRACE, f"{path}: not UTF-8 text: {err}") from err
    except ValueError as err:
        raise _Exit(EXIT_BAD_TRACE, f"{path}: {err}") from err
    violations = validate_trace(trace)
    if violations:
        lines = [f"{path}: {line}" for line in violations[:5]]
        if len(violations) > 5:
            lines.append(f"{path}: {len(violations) - 5} further violations")
        raise _Exit(EXIT_BAD_TRACE, *lines)
    return trace


def _replay_each(args, policy_specs: list[str]) -> list:
    """Parse every policy, then replay the --trace file under each, in order."""
    try:
        policies = [parse_policy(spec) for spec in policy_specs]
    except ValueError as err:
        raise _Exit(EXIT_USAGE, str(err)) from err
    trace = _load_valid_trace(args.trace)
    mem = args.mem_size
    if mem is None:
        mem = trace.header.suggested_mem_size_cells
    if mem is None:
        raise _Exit(EXIT_USAGE, "no --mem-size given and trace has no #mem header")
    try:
        configs = [EngineConfig(mem, policy, count_gc_traffic=not args.no_gc_traffic)
                   for policy in policies]
    except ValueError as err:
        raise _Exit(EXIT_USAGE, str(err)) from err
    mode = CountingMode(args.count)
    reports = []
    for config in configs:  # one isolated engine per policy
        try:
            reports.append(replay(trace, config, mode))
        except SimulationError as err:
            raise _Exit(EXIT_SIMULATION,
                        f"policy {config.policy.spec_string()}: {err}") from err
    return reports


def _extension_rows(pairs) -> list[tuple]:
    """A (baseline, candidate, avg_extension, max_extension) row per pair of
    (name, stats); a pair whose candidate statistic is zero goes to stderr."""
    rows = []
    for (base_name, base), (cand_name, cand) in pairs:
        try:
            rows.append((base_name, cand_name, *lifespan_extension(base, cand)))
        except ValueError:
            _say(f"wearsim: skipping {base_name} vs {cand_name}: "
                 "zero candidate statistic")
    return rows


def _cmd_run(args) -> list:
    if args.topn_out is not None and args.topn is None:
        raise _Exit(EXIT_USAGE, "--topn-out needs --topn")
    [report] = _replay_each(args, [args.policy])
    outputs = [("--out", args.out, partial(write_summary_json, report))]
    if args.percell:
        outputs.append(("--percell", args.percell, partial(write_percell_csv, report)))
    if args.topn is not None:
        counts = top_n_distribution(report.per_cell_reads, report.per_cell_writes,
                                    report.counting_mode, args.topn)
        outputs.append(("--topn-out", args.topn_out, partial(write_topn_csv, counts)))
    return outputs


def _cmd_compare(args) -> list:
    policy_specs = args.policies.split(",")
    if len(policy_specs) < 2:
        raise _Exit(EXIT_USAGE,
                    "--policies needs at least two comma-separated policies")
    reports = _replay_each(args, policy_specs)
    trace_name = os.path.basename(args.trace)
    rows = [compare_csv_row(trace_name, report) for report in reports]
    named = [(report.policy, report.summary) for report in reports]
    extensions = [row[1:] for row in _extension_rows(
        (named[0], candidate) for candidate in named)]
    return [("--out", args.out, partial(write_compare_csv, rows)),
            ("--extensions-out", args.extensions_out,
             partial(write_table, ("policy", "avg_extension", "max_extension"),
                     extensions))]


def _cmd_gen(args) -> list:
    try:
        trace = generate(WorkloadSpec(
            pattern=args.pattern, object_count=args.objects, op_count=args.ops,
            mean_object_size=args.mean_size, hot_fraction=args.hot_fraction,
            gc_every=args.gc_every, seed=args.seed))
    except ValueError as err:
        raise _Exit(EXIT_USAGE, str(err)) from err
    return [("--out", args.out, lambda sink: sink.write(format_trace(trace))),
            ("the event count", None, lambda sink: print(
                f"wrote {len(trace.events)} events to {args.out}", file=sink))]


def _cmd_report(args) -> list:
    mode = CountingMode(args.count)
    spellings: dict[str, str] = {}  # real path -> its first spelling, read once
    for path in args.inputs:
        if not path.endswith((".csv", ".json")):
            raise _Exit(EXIT_BAD_TRACE,
                        f"{path}: expected a .json summary or .csv percell file")
        spellings.setdefault(os.path.realpath(path), path)
    inputs = list(spellings.values())
    stems = {path: os.path.splitext(os.path.basename(path))[0] for path in inputs}
    # a summary is labelled by its stem unless another summary path shares it
    stem_uses = Counter(stems[path] for path in inputs if path.endswith(".json"))
    summaries: list[tuple[str, object]] = []
    first = None  # the first summary's path and what its statistics count
    outputs = []  # a topn-csv per percell input, then the extension table
    for path in inputs:
        try:
            if path.endswith(".json"):
                with open(path) as f:
                    stats, basis = load_summary(f)
                first_path, first_basis = first = first or (path, basis)
                for field, value in basis.items():
                    if value != first_basis[field]:
                        raise _Exit(EXIT_BAD_TRACE, f"{first_path} and {path} differ "
                                    f"in {field}: {json.dumps(first_basis[field])} "
                                    f"vs {json.dumps(value)}")
                label = stems[path] if stem_uses[stems[path]] == 1 else path
                summaries.append((label, stats))
            else:
                with open(path, newline="") as f:  # reads, writes: runs of cells
                    counts = top_n_distribution(*load_percell_csv(f), mode, args.topn)
                out_dir = args.out_dir or os.path.dirname(path) or "."
                out_path = os.path.normpath(
                    os.path.join(out_dir, f"{stems[path]}_top{args.topn}.csv"))
                outputs.append((path, out_path, partial(write_topn_csv, counts)))
        except (OSError, ValueError, csv.Error) as err:
            raise _Exit(EXIT_BAD_TRACE, f"{path}: {err}") from err
    rows = _extension_rows(permutations(summaries, 2))
    return [*outputs, ("--out", args.out, partial(
        write_table, ("baseline", "candidate", "avg_extension", "max_extension"),
        rows))]


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="wearsim",
        description="Trace-driven simulator of dual-ring golden-ratio memory "
                    "wear leveling integrated with semispace GC.",
        epilog="Exit codes: 0 success, 2 usage error, 3 invalid trace or "
               "report input, 4 simulation error.")
    sub = parser.add_subparsers(dest="subcommand", required=True)

    def add_count_flag(p, text):
        p.add_argument("--count", choices=[mode.value for mode in CountingMode],
                       default=CountingMode.ACCESSES.value, help=text)

    def add_replay_flags(p):
        p.add_argument("--trace", required=True, help="trace file to replay")
        p.add_argument("--mem-size", type=parse_uint, default=None,
                       help="total memory in cells (even, >= 4); defaults to "
                            "the trace's #mem header")
        add_count_flag(p, "what the summary counts")
        p.add_argument("--no-gc-traffic", action="store_true",
                       help="do not count GC copy traffic as cell accesses")

    run = sub.add_parser("run", help="replay one trace under one policy")
    add_replay_flags(run)
    run.add_argument("--policy", required=True,
                     help="golden | quarter | fraction:<f> | none | "
                          "random:<seed> | single")
    run.add_argument("--out", help="summary-json path (default: stdout)")
    run.add_argument("--percell", help="write percell-csv here")
    run.add_argument("--topn", type=_topn,
                     help="also compute the N busiest cells")
    run.add_argument("--topn-out", help="topn-csv path (default: stdout); "
                                         "needs --topn")
    run.set_defaults(func=_cmd_run)

    compare = sub.add_parser(
        "compare", help="replay one trace under several policies")
    add_replay_flags(compare)
    compare.add_argument("--policies", required=True,
                         help="comma-separated policy list, each item read "
                              "as --policy reads its value; first is the "
                              "baseline for extension ratios")
    compare.add_argument("--out", help="compare-csv path (default: stdout)")
    compare.add_argument("--extensions-out",
                         help="extension-ratio csv path (default: stdout)")
    compare.set_defaults(func=_cmd_compare)

    gen = sub.add_parser("gen", help="generate a synthetic trace")
    gen.add_argument("--pattern", required=True, choices=PATTERNS)
    gen.add_argument("--objects", type=parse_uint, default=100,
                     help="object population (default %(default)s)")
    gen.add_argument("--ops", type=parse_uint, default=10000,
                     help="number of alloc/free/read/write events (default 10000)")
    gen.add_argument("--mean-size", type=parse_uint,
                     default=WorkloadSpec.mean_object_size,
                     help="mean object size in cells (default %(default)s)")
    gen.add_argument("--hot-fraction", type=parse_fraction,
                     default=WorkloadSpec.hot_fraction,
                     help="hot share of the population, hotspot only "
                          "(default %(default)s)")
    gen.add_argument("--gc-every", type=parse_uint, default=WorkloadSpec.gc_every,
                     help="insert a G event every N ops (default %(default)s)")
    gen.add_argument("--seed", type=parse_uint, default=WorkloadSpec.seed)
    gen.add_argument("--out", required=True, help="trace file to write")
    gen.set_defaults(func=_cmd_gen)

    report = sub.add_parser(
        "report", help="post-process run outputs: top-N tables and extensions")
    report.add_argument("inputs", nargs="+",
                        help=".json summaries and/or .csv percell files")
    report.add_argument("--topn", type=_topn, default=1000,
                        help="ranks per percell input (default %(default)s)")
    add_count_flag(report, "what percell inputs' top-N tables count; summaries "
                           "carry their own counting_mode, and report refuses "
                           "summaries whose modes differ")
    report.add_argument("--out", help="extension table path (default: stdout)")
    report.add_argument("--out-dir",
                        help="directory for topn-csv files (default: next to "
                             "each input)")
    report.set_defaults(func=_cmd_report)
    return parser


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    # the files the command reads: report's inputs, or run's and compare's --trace
    inputs = getattr(args, "inputs", [args.trace] if "trace" in args else [])
    try:
        _write_all(args.func(args), inputs)
    except _Exit as exit_:
        code, *lines = exit_.args
        for line in lines:
            _say(f"wearsim: error: {line}")
        return code
    return EXIT_OK


if __name__ == "__main__":
    sys.exit(main())
