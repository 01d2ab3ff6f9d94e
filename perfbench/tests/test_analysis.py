"""Unit tests for perfbench/analysis.py.

    python3 -m unittest discover -s perfbench/tests
"""

import json
import sys
import tempfile
import unittest
from pathlib import Path

PERFBENCH = Path(__file__).resolve().parent.parent
sys.path.insert(0, str(PERFBENCH))

import analysis  # noqa: E402


class TailPercentile(unittest.TestCase):
    def test_highest_ladder_percentile_with_ten_beyond(self):
        # n=100: p90 leaves 10 above rank 90, p99 leaves 1.
        self.assertEqual(analysis.tail_percentile(100), 0.9)
        # n=1000: p99 leaves exactly 10; p99.9 leaves 1.
        self.assertEqual(analysis.tail_percentile(1000), 0.99)
        self.assertEqual(analysis.tail_percentile(999), 0.9)
        self.assertEqual(analysis.tail_percentile(15626), 0.999)

    def test_small_samples_have_no_tail(self):
        self.assertEqual(analysis.tail_percentile(20), 0.5)
        self.assertIsNone(analysis.tail_percentile(19))
        self.assertIsNone(analysis.tail_percentile(0))

    def test_timing_summary_reads_nearest_rank(self):
        values = list(range(1, 1001))[::-1]  # input order must not matter
        summary = analysis.timing_summary(values)
        self.assertEqual(summary["p50"], 500)
        self.assertEqual(summary["tail"], 990)
        self.assertEqual(summary["tail_pct"], 99.0)
        self.assertEqual(summary["calls"], 1000)
        # Exactly ten samples lie beyond the reported tail.
        self.assertEqual(sum(v > summary["tail"] for v in values), 10)

    def test_timing_summary_falls_back_to_median(self):
        summary = analysis.timing_summary([5, 1, 3])
        self.assertEqual(summary["tail"], summary["p50"])
        self.assertEqual(summary["tail_pct"], 50.0)
        self.assertEqual(analysis.timing_summary([])["calls"], 0)


class SelfTime(unittest.TestCase):
    def test_nested_spans(self):
        # root [0,100) > a [10,40) > a1 [15,20), a2 [30,35); b [50,90)
        spans = {1: (0, 0, 100), 2: (1, 10, 40), 3: (2, 15, 20),
                 4: (2, 30, 35), 5: (1, 50, 90)}
        selfs = analysis.self_times(spans)
        self.assertEqual(selfs, {1: 30, 2: 20, 3: 5, 4: 5, 5: 40})
        self.assertEqual(analysis.accounting_error(spans, selfs), 0)

    def test_overlapping_children_count_once(self):
        # Parallel children (sweep jobs) cover [10,60) between them.
        spans = {1: (0, 0, 100), 2: (1, 10, 50), 3: (1, 20, 60),
                 4: (1, 30, 40)}
        selfs = analysis.self_times(spans)
        self.assertEqual(selfs[1], 50)
        # Overlap breaks the accounting identity, so the check sees it.
        self.assertGreater(analysis.accounting_error(spans, selfs), 0)

    def test_child_outside_parent_is_clipped_and_flagged(self):
        spans = {1: (0, 0, 100), 2: (1, 90, 120)}
        selfs = analysis.self_times(spans)
        self.assertEqual(selfs[1], 90)
        self.assertEqual(analysis.accounting_error(spans, selfs), 20)

    def test_tree_needs_one_root(self):
        with self.assertRaises(ValueError):
            analysis.accounting_error({1: (0, 0, 1), 2: (0, 1, 2)}, {})


class SweepSchedule(unittest.TestCase):
    def test_two_workers(self):
        # Worker A runs [0,40) and [40,100); worker B runs [0,70).
        jobs = [(0, 40), (0, 70), (40, 100)]
        efficiency, drain = analysis.sweep_schedule(jobs, 0, 100, 2)
        self.assertAlmostEqual(efficiency, 170 / 200)
        self.assertEqual(drain, 60)

    def test_perfect_packing(self):
        jobs = [(0, 50), (0, 50), (50, 100), (50, 100)]
        efficiency, drain = analysis.sweep_schedule(jobs, 0, 100, 2)
        self.assertAlmostEqual(efficiency, 1.0)
        self.assertEqual(drain, 50)


class MetricNames(unittest.TestCase):
    def test_rule(self):
        for good in ("wall_s", "sweep.job_ms.p50", "memsim.tx.commit_ratio",
                     "a-b", "9lives", "x" * 64):
            self.assertTrue(analysis.valid_metric_name(good), good)
        for bad in ("", "_x", ".x", "-x", "a b", "a/b", "ms%", "x" * 65,
                    "naïve"):
            self.assertFalse(analysis.valid_metric_name(bad), bad)

    def test_benchmark_json_matches_the_emitted_metrics(self):
        config = json.loads(
            (PERFBENCH.parent / "BENCHMARK.json").read_text())
        for section, table in (("end_to_end", analysis.END_TO_END),
                               ("per_layer", analysis.PER_LAYER)):
            listed = {m["name"]: m["unit"] for m in config[section]}
            self.assertEqual(listed, table, section)
            for name in listed:
                self.assertTrue(analysis.valid_metric_name(name), name)


class TimedMetrics(unittest.TestCase):
    def test_medians_and_counts(self):
        records = [{"kind": "warmup", "ops": 1}]
        for loop_s, failed in ((1.0, 0), (2.0, 0), (4.0, 1)):
            records.append({"kind": "repeat", "setup_s": loop_s / 100,
                            "loop_s": loop_s, "wall_s": loop_s + 0.5,
                            "accesses": 8000000, "runtime_ns": 2000000000,
                            "acc_fast": 2000000, "ops": 1,
                            "failed": failed})
        records.append({"kind": "end", "peak_rss_kb": 2048})
        metrics, attempted, failed = analysis.timed_metrics(records)
        self.assertEqual((attempted, failed), (4, 1))
        self.assertAlmostEqual(metrics["sim_throughput_macc_s"], 4.0)
        self.assertAlmostEqual(metrics["wall_s"], 2.5)
        self.assertAlmostEqual(metrics["setup_s"], 0.02)
        self.assertAlmostEqual(metrics["peak_rss_mb"], 2.0)
        self.assertAlmostEqual(metrics["sim_runtime_ms"], 2000.0)
        self.assertAlmostEqual(metrics["fast_ratio"], 0.25)

    def test_seeded_runs_sum_their_medians(self):
        def repeat(index, loop_s):
            return {"kind": "repeat", "seed_index": index, "setup_s": 0.1,
                    "loop_s": loop_s, "wall_s": loop_s + 0.1,
                    "accesses": 1000000, "runtime_ns": 1000000 * (index + 1),
                    "acc_fast": 250000 * (index + 1), "ops": 1, "failed": 0}
        records = [repeat(0, 1.0), repeat(1, 3.0), repeat(0, 2.0),
                   repeat(1, 3.0), repeat(0, 9.0), repeat(1, 3.0),
                   {"kind": "end", "peak_rss_kb": 1024}]
        metrics, attempted, _ = analysis.timed_metrics(records)
        self.assertEqual(attempted, 6)
        # Medians 2.0 s and 3.0 s for 2M accesses in total.
        self.assertAlmostEqual(metrics["sim_throughput_macc_s"], 0.4)
        self.assertAlmostEqual(metrics["wall_s"], 5.2)
        self.assertAlmostEqual(metrics["setup_s"], 0.2)
        self.assertAlmostEqual(metrics["sim_runtime_ms"], 3.0)
        self.assertAlmostEqual(metrics["fast_ratio"], 0.375)


COUNTER_KEYS = ("accesses", "ticks", "decisions", "drained", "audits",
                "pebs_recorded", "pebs_dropped", "promoted", "demoted",
                "migrated", "migration_failures", "tx_opened",
                "tx_committed", "tx_busy", "failed_quota",
                "failed_admission")


class TracedMetrics(unittest.TestCase):
    def spans_file(self, rows):
        f = tempfile.NamedTemporaryFile("w", suffix=".tsv", delete=False)
        self.addCleanup(Path(f.name).unlink)
        f.write("pass\trun\tid\tparent\tname\tlabel\tstart_ns\tend_ns\n")
        for row in rows:
            f.write("\t".join(str(x) for x in row) + "\n")
        f.close()
        return f.name

    def records(self):
        counters = {k: 1000 for k in COUNTER_KEYS}
        return [{"kind": "pass", "pass": 1, "ops": 2, "failed": 0,
                 "untraced_wall_s": 1.0, "traced_wall_s": 1.5,
                 "workers": 1, "counters": counters}]

    def test_layer_self_times_and_loop_self(self):
        path = self.spans_file([
            (1, 1, 1, 0, "sim.run", "-", 0, 10000000),
            (1, 1, 2, 1, "workloads.fill", "-", 0, 3000000),
            (1, 1, 3, 1, "memsim.access_batch", "-", 3000000, 5000000),
            (1, 1, 4, 1, "workloads.fill", "-", 5000000, 6000000),
        ])
        metrics, attempted, failed, problems = analysis.traced_metrics(
            self.records(), analysis.read_spans(path))
        self.assertEqual((attempted, failed, problems), (2, 0, []))
        self.assertAlmostEqual(metrics["workloads.fill.self_ms"], 4.0)
        self.assertAlmostEqual(metrics["memsim.access_batch.self_ms"], 2.0)
        self.assertAlmostEqual(metrics["sim.loop_self_ms"], 4.0)
        self.assertAlmostEqual(metrics["workloads.fill.ns_per_access"], 4000)
        self.assertEqual(metrics["workloads.fill.calls"], 2)
        self.assertAlmostEqual(metrics["trace.overhead_ratio"], 0.5)
        self.assertEqual(set(metrics), set(analysis.PER_LAYER))

    def test_overlapping_layer_spans_fail_the_accounting_check(self):
        path = self.spans_file([
            (1, 1, 1, 0, "sim.run", "-", 0, 1000),
            (1, 1, 2, 1, "workloads.fill", "-", 0, 600),
            (1, 1, 3, 1, "memsim.access_batch", "-", 500, 900),
        ])
        _, _, failed, problems = analysis.traced_metrics(
            self.records(), analysis.read_spans(path))
        self.assertEqual(failed, 1)
        self.assertEqual(len(problems), 1)


if __name__ == "__main__":
    unittest.main()
