"""Write pins.json: each workload's output digests at the default seed.

    python3 perfbench/pin.py

Run it only when the program's reports are meant to change; the benchmark
fails every job whose output differs from these pins.
"""

import json

import wearbench


def main() -> None:
    digests = {}
    for name, workload in wearbench.WORKLOADS.items():
        setup = wearbench.set_up(workload, wearbench.DEFAULT_SEED)
        job = wearbench.run_job(setup.api, name, workload, setup.text)
        problems = wearbench.check_job(job, setup.facts, pins={})
        if problems:
            raise SystemExit(f"{name}: {problems}")
        digests[name] = {run.policy: wearbench.policy_digest(run) for run in job.runs}
        print(name, digests[name])
    pins = {"seed": wearbench.DEFAULT_SEED, "digests": digests}
    wearbench.PINS_PATH.write_text(json.dumps(pins, indent=2) + "\n")


if __name__ == "__main__":
    main()
