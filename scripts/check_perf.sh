#!/usr/bin/env bash
# Perf-regression smoke for the batched hot path (DESIGN.md §9).
#
# Runs the end-to-end throughput benchmarks (bench_overheads --quick,
# i.e. every BM_SimThroughput* entry and BM_SweepSharedStreams at one
# short google-benchmark repetition) and compares accesses/sec per entry
# against the committed baseline in BENCH_hotpath.json. Each of them is
# registered with UseRealTime(), so items_per_second is simulated
# accesses per wall-clock second, never per main-thread CPU second. The
# tolerance is deliberately generous (a 30% drop fails): CI machines are
# noisy, and this gate exists to catch real regressions — an accidental
# O(n) slip or a de-inlined hot function — without flaking on scheduler
# jitter.
#
#   scripts/check_perf.sh [build-dir]   (default: build)
set -euo pipefail

cd "$(dirname "$0")/.."
build="${1:-build}"
baseline="BENCH_hotpath.json"
bench="${build}/bench/bench_overheads"

if [[ ! -x "${bench}" ]]; then
    echo "check_perf: ${bench} not built" >&2
    exit 2
fi
if [[ ! -f "${baseline}" ]]; then
    echo "check_perf: ${baseline} missing" >&2
    exit 2
fi

out="${build}/bench_hotpath_current.json"
"${bench}" --quick --benchmark_format=json 2> /dev/null > "${out}"

python3 - "${baseline}" "${out}" << 'EOF'
import json
import re
import sys

TOLERANCE = 0.30

with open(sys.argv[1]) as f:
    baseline = {b["name"]: b["items_per_second"]
                for b in json.load(f)["benchmarks"]}
# UseRealTime() makes google-benchmark append "/real_time" to each
# name, and MinTime()/MinWarmUpTime() "/min_time:<s>" and
# "/min_warmup_time:<s>" before it; the baseline keys stay the bare
# benchmark names.
with open(sys.argv[2]) as f:
    current = {re.sub(r"(/min_(warmup_)?time:[0-9.]+)*/real_time$", "",
                      b["name"]):
               b["items_per_second"] for b in json.load(f)["benchmarks"]}

failed = False
for name, base in sorted(baseline.items()):
    now = current.get(name)
    if now is None:
        print(f"check_perf: FAIL {name}: benchmark missing from run")
        failed = True
        continue
    floor = base * (1.0 - TOLERANCE)
    verdict = "ok" if now >= floor else "FAIL"
    print(f"check_perf: {verdict} {name}: {now / 1e6:.1f}M acc/s "
          f"(baseline {base / 1e6:.1f}M, floor {floor / 1e6:.1f}M)")
    if now < floor:
        failed = True

sys.exit(1 if failed else 0)
EOF

echo "check_perf: hot-path throughput within tolerance of ${baseline}"
