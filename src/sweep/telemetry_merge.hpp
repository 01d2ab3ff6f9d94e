/**
 * @file
 * Deterministic aggregation of per-job telemetry across a sweep.
 *
 * Each sweep job is single-threaded and owns one telemetry::Telemetry
 * bundle (carried back in sim::RunResult::telemetry). These helpers
 * fold the per-job bundles into one artifact strictly in job-index
 * order, so the merged output is bit-identical between --jobs 1 and
 * --jobs N — the same contract the result tables already honour.
 */
#ifndef ARTMEM_SWEEP_TELEMETRY_MERGE_HPP
#define ARTMEM_SWEEP_TELEMETRY_MERGE_HPP

#include <iosfwd>
#include <vector>

#include "sim/engine.hpp"
#include "telemetry/metrics.hpp"
#include "telemetry/phase_timer.hpp"

namespace artmem::sweep {

/**
 * Merge every job's metrics registry (jobs without telemetry are
 * skipped) in job order: counters add, gauge statistics pool, and
 * histogram buckets add bucket-wise. Metric names first seen in a
 * later job append after all earlier ones.
 */
telemetry::MetricsRegistry
merge_job_metrics(const std::vector<sim::RunResult>& results);

/** Sum every job's phase profile (wall clock; reporting only). */
telemetry::PhaseProfiler
merge_job_profiles(const std::vector<sim::RunResult>& results);

/**
 * Write all jobs' trace events as JSON Lines, one job after another in
 * job order, each line tagged with its `"job"` index.
 */
void write_merged_jsonl(std::ostream& os,
                        const std::vector<sim::RunResult>& results);

/**
 * Write all jobs' trace events as one Chrome trace-event JSON object;
 * each job becomes a process (pid = job index) so Perfetto shows the
 * sweep as parallel tracks.
 */
void write_merged_chrome(std::ostream& os,
                         const std::vector<sim::RunResult>& results);

}  // namespace artmem::sweep

#endif  // ARTMEM_SWEEP_TELEMETRY_MERGE_HPP
