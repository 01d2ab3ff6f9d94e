#!/usr/bin/env python3
"""The repo benchmark: builds the driver, runs one workload, prints metrics.

    python3 perfbench/run.py --workload masim_s2 --seed 7 --seconds 20 --trace 0

Run it from the repository root. It configures and builds
perfbench/CMakeLists.txt (the simulator library from src/ plus
driver.cpp) in $CARGO_TARGET_DIR/perfbench, default
.bench_build/perfbench, then runs the driver. With --trace 0 it prints
the end-to-end metrics of a timed run, with --trace 1 the per-layer
metrics of a traced run (see README.md). The last line of stdout is one
JSON object: {"correct", "attempted", "failed", "metrics"}. The line
before it records the host: nproc, CPU model, build type and seed.
"""

import argparse
import json
import os
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path.insert(0, str(HERE))

import analysis  # noqa: E402

WORKLOADS = ("ycsb_zipf", "masim_s2", "tenants16_tx", "fig7_grid")
BUILD_TIMEOUT_S = 850
RUN_TIMEOUT_S = 170


def fail(message):
    print(f"perfbench: {message}", file=sys.stderr)
    sys.exit(1)


def build():
    """Configure once, then build incrementally; returns the build dir."""
    if not (ROOT / "src" / "CMakeLists.txt").is_file():
        fail(f"simulator sources not found under {ROOT / 'src'}")
    build_dir = ROOT / os.environ.get("CARGO_TARGET_DIR", ".bench_build") \
        / "perfbench"
    steps = []
    if not (build_dir / "CMakeCache.txt").is_file():
        steps.append(["cmake", "-S", str(HERE), "-B", str(build_dir),
                      "-DCMAKE_BUILD_TYPE=Release"])
    steps.append(["cmake", "--build", str(build_dir), "--target",
                  "perfbench_driver", "-j", str(os.cpu_count() or 1)])
    for step in steps:
        # Build chatter goes to stderr: stdout carries only results.
        done = subprocess.run(step, stdout=sys.stderr, stderr=sys.stderr,
                              timeout=BUILD_TIMEOUT_S, check=False)
        if done.returncode != 0:
            fail(f"build step failed: {' '.join(step)}")
    return build_dir


def run_driver(build_dir, args):
    cmd = [str(build_dir / "perfbench_driver"), f"--workload={args.workload}",
           f"--seed={args.seed}", f"--seconds={args.seconds}",
           f"--mode={'traced' if args.trace else 'timed'}"]
    spans = None
    if args.trace:
        spans = build_dir / "traces" / f"{args.workload}-seed{args.seed}.tsv"
        spans.parent.mkdir(parents=True, exist_ok=True)
        cmd.append(f"--spans={spans}")
    try:
        done = subprocess.run(cmd, stdout=subprocess.PIPE, text=True,
                              timeout=RUN_TIMEOUT_S, check=False)
    except subprocess.TimeoutExpired:
        fail(f"driver did not finish within {RUN_TIMEOUT_S} s")
    if done.returncode != 0:
        fail(f"driver exited with code {done.returncode}")
    records = [json.loads(line) for line in done.stdout.splitlines()
               if line.startswith("{")]
    return records, spans


def main():
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args()
    if args.seed < 0 or args.seconds <= 0:
        fail("--seed must be >= 0 and --seconds > 0")

    build_dir = build()
    records, spans = run_driver(build_dir, args)
    host = next((r for r in records if r["kind"] == "host"), None)
    if host is None:
        fail("driver printed no host record")

    problems = []
    if args.trace:
        metrics, attempted, failed, problems = analysis.traced_metrics(
            records, analysis.read_spans(spans))
        units = analysis.PER_LAYER
    else:
        metrics, attempted, failed = analysis.timed_metrics(records)
        units = analysis.END_TO_END
    for problem in problems:
        print(f"perfbench: {problem}", file=sys.stderr)
    bad = [name for name in units if not analysis.valid_metric_name(name)]
    if bad:
        fail(f"invalid metric names: {bad}")

    print(json.dumps({"host": {k: host[k] for k in
                               ("nproc", "cpu", "build", "workload", "seed",
                                "mode")}}))
    print(json.dumps({
        "correct": failed == 0 and attempted > 0,
        "attempted": attempted,
        "failed": failed,
        "metrics": {name: {"value": metrics[name], "unit": unit}
                    for name, unit in units.items()},
    }))


if __name__ == "__main__":
    main()
