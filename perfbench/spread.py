#!/usr/bin/env python3
"""Run-to-run spread of the end-to-end metrics.

    python3 perfbench/spread.py --workload masim_s2 --runs 10 [--first-seed 1]

Runs perfbench/run.py (timed mode) once per seed, then prints for each
end-to-end metric the median of the runs, the distance between the first
and third quartiles (statistics.quantiles(values, n=4)) as a share of
the median, and the metric's bound from BENCHMARK.json. A benchmark is
steady when every spread other than setup_s's is below a third of its
bound. Run it from the repository root.
"""

import argparse
import json
import statistics
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent


def main():
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--runs", type=int, default=10)
    parser.add_argument("--first-seed", type=int, default=1)
    args = parser.parse_args()
    config = json.loads((HERE.parent / "BENCHMARK.json").read_text())
    bounds = {m["name"]: m["bound"] for m in config["end_to_end"]}

    values = {name: [] for name in bounds}
    for seed in range(args.first_seed, args.first_seed + args.runs):
        out = subprocess.run(
            [sys.executable, str(HERE / "run.py"), "--workload",
             args.workload, "--seed", str(seed), "--seconds",
             str(config["run_seconds"]), "--trace", "0"],
            stdout=subprocess.PIPE, stderr=subprocess.DEVNULL, text=True,
            check=True)
        result = json.loads(out.stdout.strip().splitlines()[-1])
        if not result["correct"]:
            sys.exit(f"seed {seed}: run reported incorrect output")
        for name in values:
            values[name].append(result["metrics"][name]["value"])
        print(f"seed {seed}: " + " ".join(
            f"{n}={v[-1]:.6g}" for n, v in values.items()), flush=True)

    print(f"\n{args.workload}, {args.runs} runs")
    for name, vals in values.items():
        q1, med, q3 = statistics.quantiles(vals, n=4)
        spread = (q3 - q1) / med if med else float("inf")
        flag = "" if spread < bounds[name] / 3 else "  <-- above bound/3"
        print(f"  {name:24s} median={med:<12.6g} spread={spread:7.2%} "
              f"bound={bounds[name]:.2f}{flag}")


if __name__ == "__main__":
    main()
