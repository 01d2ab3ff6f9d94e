"""Turns the benchmark driver's output into metrics.

The driver (driver.cpp) prints one JSON object per line and, in traced
mode, writes every span to a TSV file. This module computes the
end-to-end metrics of a timed run and the per-layer metrics of a traced
run from them, and carries the checks that need the spans: self time
over nested spans and the accounting check. It has no dependency
outside the standard library so that its rules are unit-tested in
tests/test_analysis.py without a build.
"""

import math
import re
import statistics

NAME_RE = re.compile(r"^[A-Za-z0-9][A-Za-z0-9_.-]{0,63}$")

POLICIES = ("memtis", "autotiering", "tpp", "autonuma", "multiclock",
            "nimble", "tiering08", "artmem")

# Metric name -> unit. The order is the order of the output.
END_TO_END = {
    "sim_throughput_macc_s": "Macc/s",
    "wall_s": "s",
    "setup_s": "s",
    "peak_rss_mb": "MB",
    "sim_runtime_ms": "ms",
    "fast_ratio": "ratio",
}

PER_LAYER = {
    "workloads.fill.self_ms": "ms",
    "workloads.fill.ns_per_access": "ns",
    "workloads.fill.p50_us": "us",
    "workloads.fill.tail_us": "us",
    "workloads.fill.tail_pct": "pct",
    "workloads.fill.calls": "count",
    "workloads.setup_ms": "ms",
    "memsim.access_batch.self_ms": "ms",
    "memsim.access_batch.ns_per_access": "ns",
    "memsim.prefault_ms": "ms",
    "memsim.setup_ms": "ms",
    "memsim.take_window.self_ms": "ms",
    "memsim.pebs.drain_ms": "ms",
    "memsim.pebs.recorded": "count",
    "memsim.pebs.dropped": "count",
    "memsim.pebs.drop_ratio": "ratio",
    "memsim.migrate.promoted": "count",
    "memsim.migrate.demoted": "count",
    "memsim.migrate.failed": "count",
    "memsim.migrate.success_ratio": "ratio",
    "memsim.poll_tx.self_ms": "ms",
    "memsim.tx.opened": "count",
    "memsim.tx.commit_ratio": "ratio",
    "memsim.tx.busy_retries": "count",
    "policies.setup_ms": "ms",
    "policies.on_samples.self_ms": "ms",
    "policies.on_samples.ns_per_sample": "ns",
    "policies.on_tick.self_ms": "ms",
    "policies.on_interval.self_ms": "ms",
    "policies.on_interval.p50_us": "us",
    "policies.on_interval.tail_us": "us",
    "policies.on_interval.tail_pct": "pct",
    "policies.on_interval.calls": "count",
    "tenancy.note_sample.self_ms": "ms",
    "tenancy.interval_feedback.self_ms": "ms",
    "tenancy.setup_ms": "ms",
    "tenancy.denied_ratio": "ratio",
    "sim.loop_self_ms": "ms",
    "sim.ticks": "count",
    "sim.decisions": "count",
    "verify.audit.self_ms": "ms",
    "verify.audit.ms_per_call": "ms",
    "sweep.job_ms.p50": "ms",
    "sweep.job_ms.tail": "ms",
    "sweep.job_ms.tail_pct": "pct",
    "sweep.job_ms.max": "ms",
    **{f"sweep.job_ms.{p}": "ms" for p in POLICIES},
    "sweep.parallel_efficiency": "ratio",
    "sweep.drain_ms": "ms",
    "trace.overhead_ratio": "ratio",
}

# Span name -> the per-layer "self_ms" metric it feeds. Setup spans are
# folded into their layer's setup metric.
SPAN_METRIC = {
    "workloads.setup": "workloads.setup_ms",
    "workloads.fill": "workloads.fill.self_ms",
    "memsim.setup": "memsim.setup_ms",
    "memsim.prefault": "memsim.prefault_ms",
    "memsim.access_batch": "memsim.access_batch.self_ms",
    "memsim.pebs.drain": "memsim.pebs.drain_ms",
    "memsim.poll_tx": "memsim.poll_tx.self_ms",
    "memsim.take_window": "memsim.take_window.self_ms",
    "policies.setup": "policies.setup_ms",
    "policies.init": "policies.setup_ms",
    "policies.on_samples": "policies.on_samples.self_ms",
    "policies.on_tick": "policies.on_tick.self_ms",
    "policies.on_interval": "policies.on_interval.self_ms",
    "tenancy.setup": "tenancy.setup_ms",
    "tenancy.note_sample": "tenancy.note_sample.self_ms",
    "tenancy.interval_feedback": "tenancy.interval_feedback.self_ms",
    "verify.audit": "verify.audit.self_ms",
    "sim.run": "sim.loop_self_ms",
}

# Percentile ladder for tails: p50, p90, p99, p99.9, ...
TAIL_LADDER = (0.5, 0.9, 0.99, 0.999, 0.9999, 0.99999, 0.999999)


def valid_metric_name(name):
    """Letters, digits, '_', '.' and '-', at most 64, not starting with
    '_', '.' or '-'."""
    return bool(NAME_RE.match(name))


def percentile(sorted_values, p):
    """Nearest-rank percentile of an ascending list, p in (0, 1]."""
    if not sorted_values:
        raise ValueError("percentile of no samples")
    rank = max(1, math.ceil(p * len(sorted_values)))
    return sorted_values[rank - 1]


def tail_percentile(n):
    """The highest ladder percentile with at least ten of n samples
    above its nearest rank, or None when even the median has fewer."""
    best = None
    for p in TAIL_LADDER:
        if n - math.ceil(p * n) >= 10:
            best = p
    return best


def timing_summary(values):
    """Median, tail (see tail_percentile; the median when no ladder
    percentile qualifies), the tail's percentile and the call count."""
    values = sorted(values)
    if not values:
        return {"p50": 0.0, "tail": 0.0, "tail_pct": 0.0, "calls": 0}
    p = tail_percentile(len(values)) or 0.5
    return {"p50": percentile(values, 0.5), "tail": percentile(values, p),
            "tail_pct": p * 100.0, "calls": len(values)}


def self_times(spans):
    """Self time of every span of one run tree.

    spans: dict id -> (parent, start, end). A span's self time is its
    duration minus the part of its own interval that its children
    cover; overlapping children are counted once.
    """
    children = {}
    for sid, (parent, _, _) in spans.items():
        if parent:
            children.setdefault(parent, []).append(sid)
    result = {}
    for sid, (_, start, end) in spans.items():
        covered = 0
        reach = start
        kids = sorted((spans[k][1], spans[k][2]) for k in children.get(sid, ()))
        for cs, ce in kids:
            cs, ce = max(cs, reach), min(ce, end)
            if ce > cs:
                covered += ce - cs
                reach = ce
        result[sid] = (end - start) - covered
    return result


def accounting_error(spans, selfs):
    """|sum of self times - root duration| for a tree whose children
    nest inside their parents without overlap; 0 when that holds."""
    roots = [sid for sid, (parent, _, _) in spans.items() if parent == 0]
    if len(roots) != 1:
        raise ValueError(f"run tree has {len(roots)} roots")
    _, start, end = spans[roots[0]]
    return abs(sum(selfs.values()) - (end - start))


def sweep_schedule(jobs, sweep_start, sweep_end, workers):
    """Parallel efficiency (sum of job wall / (workers x sweep wall))
    and drain time (last job start -> sweep end), in the span clock's
    units. jobs: list of (start, end)."""
    wall = sweep_end - sweep_start
    busy = sum(end - start for start, end in jobs)
    efficiency = busy / (workers * wall) if wall > 0 else 0.0
    drain = sweep_end - max(start for start, _ in jobs) if jobs else 0
    return efficiency, drain


def ratio(num, den):
    return num / den if den else 0.0


def median(values):
    return statistics.median(values) if values else 0.0


# ---------------------------------------------------------------------
# Timed runs
# ---------------------------------------------------------------------

def timed_metrics(records):
    """End-to-end metrics from a timed run's JSON lines.

    A single-run workload is several seeded runs, told apart by
    "seed_index"; fig7_grid is one run, the sweep. Host times are the
    median over a run's repeats, summed over the runs; simulated results
    are exact and summed likewise. Returns (metrics, attempted, failed);
    metrics maps name -> value.
    """
    runs = {}
    for r in records:
        if r["kind"] == "repeat":
            runs.setdefault(r.get("seed_index", 0), []).append(r)
    if not runs:
        raise ValueError("timed run produced no repeats")
    end = next(r for r in records if r["kind"] == "end")
    firsts = [repeats[0] for repeats in runs.values()]
    accesses = sum(r["accesses"] for r in firsts)

    def total(key):
        return sum(median([r[key] for r in repeats])
                   for repeats in runs.values())

    metrics = {
        "sim_throughput_macc_s": accesses / total("loop_s") / 1e6,
        "wall_s": total("wall_s"),
        "setup_s": total("setup_s"),
        "peak_rss_mb": end["peak_rss_kb"] / 1024.0,
        "sim_runtime_ms": sum(r["runtime_ns"] for r in firsts) / 1e6,
        "fast_ratio": sum(r["acc_fast"] for r in firsts) / accesses,
    }
    attempted = sum(r.get("ops", 0) for r in records)
    failed = sum(r.get("failed", 0) for r in records)
    return metrics, attempted, failed


# ---------------------------------------------------------------------
# Traced runs
# ---------------------------------------------------------------------

def read_spans(path):
    """Yield ((pass, run), {id: row}) for each run tree in the driver's
    spans TSV, with row = (parent, name, label, start, end). The driver
    writes each run's spans together, so one tree is in memory at a
    time."""
    with open(path, encoding="utf-8") as f:
        header = f.readline().rstrip("\n").split("\t")
        if header != ["pass", "run", "id", "parent", "name", "label",
                      "start_ns", "end_ns"]:
            raise ValueError(f"{path}: unexpected header {header}")
        key, rows = None, {}
        for line in f:
            p, run, sid, parent, name, label, start, end = \
                line.rstrip("\n").split("\t")
            if (p, run) != key:
                if rows:
                    yield (int(key[0]), int(key[1])), rows
                key, rows = (p, run), {}
            rows[int(sid)] = (int(parent), name, label, int(start), int(end))
        if rows:
            yield (int(key[0]), int(key[1])), rows


def traced_metrics(records, runs):
    """Per-layer metrics from a traced run's JSON lines and its run
    trees, an iterable of ((pass, run), {id: row}) as read_spans gives.

    Returns (metrics, attempted, failed, problems): problems lists the
    accounting failures, each also counted as a failed operation.
    """
    passes = [r for r in records if r["kind"] == "pass"]
    if not passes:
        raise ValueError("traced run produced no passes")
    attempted = sum(r.get("ops", 0) for r in records)
    failed = sum(r.get("failed", 0) for r in records)
    problems = []

    per_pass = {r["pass"]: {} for r in passes}
    fill_calls, interval_calls = [], []
    sweeps = {}
    for (pass_no, run), rows in runs:
        tree = {sid: (row[0], row[3], row[4]) for sid, row in rows.items()}
        root_name = next(row[1] for row in rows.values() if row[0] == 0)
        if root_name == "sweep.run":
            sweeps[pass_no] = rows
            continue
        selfs = self_times(tree)
        error = accounting_error(tree, selfs)
        # Every span boundary may be off by one tick of the ns clock.
        if error > len(tree):
            failed += 1
            problems.append(f"pass {pass_no} run {run}: layer self times "
                            f"miss the root span by {error} ns")
        totals = per_pass.setdefault(pass_no, {})
        for sid, (_, name, _, start, end) in rows.items():
            metric = SPAN_METRIC.get(name)
            if metric is not None:
                totals[metric] = totals.get(metric, 0) + selfs[sid]
            if name == "workloads.fill":
                fill_calls.append(end - start)
            elif name == "policies.on_interval":
                interval_calls.append(end - start)

    counters = passes[-1]["counters"]
    accesses = counters["accesses"]
    metrics = {name: 0.0 for name in PER_LAYER}
    for metric in set(SPAN_METRIC.values()):
        metrics[metric] = median(
            [t.get(metric, 0) for t in per_pass.values()]) / 1e6
    metrics["workloads.fill.ns_per_access"] = ratio(
        metrics["workloads.fill.self_ms"] * 1e6, accesses)
    metrics["memsim.access_batch.ns_per_access"] = ratio(
        metrics["memsim.access_batch.self_ms"] * 1e6, accesses)
    metrics["policies.on_samples.ns_per_sample"] = ratio(
        metrics["policies.on_samples.self_ms"] * 1e6, counters["drained"])
    metrics["verify.audit.ms_per_call"] = ratio(
        metrics["verify.audit.self_ms"], counters["audits"])
    for prefix, calls in (("workloads.fill", fill_calls),
                          ("policies.on_interval", interval_calls)):
        summary = timing_summary(calls)
        metrics[f"{prefix}.p50_us"] = summary["p50"] / 1e3
        metrics[f"{prefix}.tail_us"] = summary["tail"] / 1e3
        metrics[f"{prefix}.tail_pct"] = summary["tail_pct"]
        metrics[f"{prefix}.calls"] = summary["calls"] / len(passes)

    migrated = counters["migrated"]
    failures = counters["migration_failures"]
    denied = counters["failed_quota"] + counters["failed_admission"]
    metrics.update({
        "memsim.pebs.recorded": counters["pebs_recorded"],
        "memsim.pebs.dropped": counters["pebs_dropped"],
        "memsim.pebs.drop_ratio": ratio(counters["pebs_dropped"],
                                        counters["pebs_recorded"]),
        "memsim.migrate.promoted": counters["promoted"],
        "memsim.migrate.demoted": counters["demoted"],
        "memsim.migrate.failed": failures,
        "memsim.migrate.success_ratio": ratio(migrated, migrated + failures),
        "memsim.tx.opened": counters["tx_opened"],
        "memsim.tx.commit_ratio": ratio(counters["tx_committed"],
                                        counters["tx_opened"]),
        "memsim.tx.busy_retries": counters["tx_busy"],
        "tenancy.denied_ratio": ratio(denied, migrated + failures),
        "sim.ticks": counters["ticks"],
        "sim.decisions": counters["decisions"],
        "trace.overhead_ratio": (
            median([r["traced_wall_s"] for r in passes]) /
            median([r["untraced_wall_s"] for r in passes]) - 1.0),
    })
    if sweeps:
        metrics.update(sweep_metrics(sweeps, passes[0]["workers"]))
    return metrics, attempted, failed, problems


def sweep_metrics(sweeps, workers):
    """sweep.* metrics, the median over passes of each."""
    per_pass = []
    job_ms = []
    by_policy = {p: [] for p in POLICIES}
    for rows in sweeps.values():
        root = next(row for row in rows.values() if row[0] == 0)
        jobs = [row for row in rows.values() if row[1] == "sweep.job"]
        per_pass.append(sweep_schedule([(j[3], j[4]) for j in jobs],
                                       root[3], root[4], workers))
        for _, _, policy, start, end in jobs:
            ms = (end - start) / 1e6
            job_ms.append(ms)
            if policy in by_policy:
                by_policy[policy].append(ms)
    summary = timing_summary(job_ms)
    out = {
        "sweep.job_ms.p50": summary["p50"],
        "sweep.job_ms.tail": summary["tail"],
        "sweep.job_ms.tail_pct": summary["tail_pct"],
        "sweep.job_ms.max": max(job_ms) if job_ms else 0.0,
        "sweep.parallel_efficiency": median([e for e, _ in per_pass]),
        "sweep.drain_ms": median([d for _, d in per_pass]) / 1e6,
    }
    for policy, values in by_policy.items():
        out[f"sweep.job_ms.{policy}"] = median(values)
    return out
