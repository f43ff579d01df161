"""Run one wearsim benchmark workload and print its metrics.

Usage, from the root of a repository checkout:

    python3 perfbench/run.py --workload hotspot-large --seed 1 --seconds 50 --trace 0

The last line of standard output is one JSON object with the keys
`correct`, `attempted`, `failed` and `metrics`.  `--trace 0` reports the
end-to-end metrics, `--trace 1` the per-layer ones (see README.md).
"""

import argparse
import sys

import wearbench


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(prog="perfbench/run.py", description=__doc__,
                                     formatter_class=argparse.RawDescriptionHelpFormatter)
    parser.add_argument("--workload", required=True, choices=sorted(wearbench.WORKLOADS))
    parser.add_argument("--seed", type=int, default=wearbench.DEFAULT_SEED)
    parser.add_argument("--seconds", type=float, default=20.0,
                        help="how long to run jobs for (at least one job runs)")
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0,
                        help="1: traced run reporting per-layer metrics")
    args = parser.parse_args(argv)
    if not (wearbench.SRC / "wearsim" / "__init__.py").is_file():
        print(f"perfbench: no wearsim sources in {wearbench.SRC}; run from the root "
              "of a repository checkout", file=sys.stderr)
        return 2
    wearbench.run(args.workload, args.seed, args.seconds, bool(args.trace))
    return 0


if __name__ == "__main__":
    sys.exit(main())
