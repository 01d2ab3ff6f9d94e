/**
 * @file
 * Tests for the deterministic parallel sweep subsystem: seed
 * derivation, worker dispatch, SweepRunner determinism across worker
 * counts, shared access streams against live generation, exception
 * propagation, ResultSink emission, and the
 * BenchOptions --quick/--accesses contract.
 */
#include <gtest/gtest.h>

#include <atomic>
#include <cstdio>
#include <set>
#include <sstream>
#include <stdexcept>

#include "bench_common.hpp"
#include "sweep/result_sink.hpp"
#include "sweep/sweep.hpp"
#include "sweep/telemetry_merge.hpp"
#include "util/rng.hpp"
#include "workloads/trace.hpp"

namespace artmem {
namespace {

using bench::BenchOptions;

// ---------------------------------------------------------------- seeds

TEST(DeriveSeed, PureFunctionOfBaseAndIndex)
{
    EXPECT_EQ(derive_seed(42, 0), derive_seed(42, 0));
    EXPECT_EQ(derive_seed(42, 17), derive_seed(42, 17));
    EXPECT_NE(derive_seed(42, 0), derive_seed(42, 1));
    EXPECT_NE(derive_seed(42, 0), derive_seed(43, 0));
}

TEST(DeriveSeed, DecorrelatedAcrossIndices)
{
    std::set<std::uint64_t> seen;
    for (std::uint64_t i = 0; i < 1000; ++i)
        seen.insert(derive_seed(7, i));
    EXPECT_EQ(seen.size(), 1000u);
}

TEST(DeriveSeed, IndependentOfGridShape)
{
    // The same job index gets the same seed no matter how the grid
    // that produced it was shaped: 2x3 vs 3x2 vs a flat list of 6.
    sim::RunSpec prototype;
    prototype.accesses = 1000;
    auto wide = sweep::SweepSpec::grid(
        {"s1", "s2"}, {"static", "autonuma", "tpp"}, {{1, 1}}, prototype);
    auto tall = sweep::SweepSpec::grid(
        {"s1", "s2", "s3"}, {"static", "autonuma"}, {{1, 1}}, prototype);
    wide.derive_seeds(42);
    tall.derive_seeds(42);
    ASSERT_EQ(wide.jobs.size(), tall.jobs.size());
    for (std::size_t i = 0; i < wide.jobs.size(); ++i) {
        EXPECT_EQ(wide.jobs[i].spec.seed, tall.jobs[i].spec.seed);
        EXPECT_EQ(wide.jobs[i].spec.seed, derive_seed(42, i));
    }
}

// ------------------------------------------------------ worker dispatch
// SweepRunner's index-claiming workers. The ThreadPool suite name is
// kept from the general pool these workers replaced.

TEST(ThreadPool, RunsEveryTask)
{
    sweep::SweepRunner runner({.jobs = 4, .progress = false});
    std::atomic<int> counter{0};
    const auto out = runner.map<int>(100, [&counter](std::size_t) {
        return ++counter;
    });
    EXPECT_EQ(counter.load(), 100);
    // Each job ran exactly once: every count 1..100 was returned once.
    EXPECT_EQ(std::set<int>(out.begin(), out.end()).size(), 100u);
}

TEST(ThreadPool, ReusableAcrossWaits)
{
    sweep::SweepRunner runner({.jobs = 2, .progress = false});
    std::atomic<int> counter{0};
    const auto bump = [&counter](std::size_t) { return ++counter; };
    (void)runner.map<int>(3, bump);
    (void)runner.map<int>(5, bump);
    EXPECT_EQ(counter.load(), 8);
}

TEST(ThreadPool, PropagatesFirstExceptionWithoutDeadlock)
{
    sweep::SweepRunner runner({.jobs = 2, .progress = false});
    std::atomic<int> completed{0};
    const auto job = [&completed](std::size_t i) {
        if (i == 3)
            throw std::runtime_error("job 3 failed");
        return ++completed;
    };
    EXPECT_THROW((void)runner.map<int>(20, job), std::runtime_error);
    // Every non-throwing job still ran; the runner stays usable.
    EXPECT_EQ(completed.load(), 19);
    (void)runner.map<int>(1, [&completed](std::size_t) {
        return ++completed;
    });
    EXPECT_EQ(completed.load(), 20);
}

// ---------------------------------------------------------- SweepRunner

TEST(SweepRunner, MapCollectsResultsInIndexOrder)
{
    sweep::SweepRunner runner({.jobs = 4, .progress = false});
    const auto out = runner.map<std::size_t>(
        64, [](std::size_t i) { return i * 3 + 1; });
    ASSERT_EQ(out.size(), 64u);
    for (std::size_t i = 0; i < out.size(); ++i)
        EXPECT_EQ(out[i], i * 3 + 1);
}

TEST(SweepRunner, GridShapeAndLabels)
{
    sim::RunSpec prototype;
    prototype.accesses = 123;
    prototype.seed = 9;
    const auto spec = sweep::SweepSpec::grid(
        {"s1", "s2"}, {"static", "tpp"}, {{1, 1}, {1, 4}}, prototype);
    ASSERT_EQ(spec.jobs.size(), 8u);
    // Nesting order: workload (outer), policy, ratio (inner).
    EXPECT_EQ(spec.jobs[0].spec.workload, "s1");
    EXPECT_EQ(spec.jobs[0].spec.policy, "static");
    EXPECT_EQ(spec.jobs[0].spec.ratio.label(), "1:1");
    EXPECT_EQ(spec.jobs[1].spec.ratio.label(), "1:4");
    EXPECT_EQ(spec.jobs[2].spec.policy, "tpp");
    EXPECT_EQ(spec.jobs[4].spec.workload, "s2");
    const std::vector<std::string> labels{"s2", "tpp", "1:4"};
    EXPECT_EQ(spec.jobs[7].labels, labels);
    EXPECT_EQ(spec.jobs[7].spec.accesses, 123u);
    EXPECT_EQ(spec.jobs[7].spec.seed, 9u);
}

/** The full result fields the benches consume, for exact comparison. */
void
expect_identical(const sim::RunResult& a, const sim::RunResult& b)
{
    EXPECT_EQ(a.runtime_ns, b.runtime_ns);
    EXPECT_EQ(a.accesses, b.accesses);
    EXPECT_EQ(a.fast_ratio, b.fast_ratio);
    EXPECT_EQ(a.totals.promoted_pages, b.totals.promoted_pages);
    EXPECT_EQ(a.totals.demoted_pages, b.totals.demoted_pages);
    EXPECT_EQ(a.totals.exchanges, b.totals.exchanges);
    EXPECT_EQ(a.pebs_recorded, b.pebs_recorded);
}

TEST(SweepRunner, SerialAndParallelResultsIdentical)
{
    sim::RunSpec prototype;
    prototype.accesses = 60000;
    prototype.seed = 42;
    const auto spec = sweep::SweepSpec::grid(
        {"s1"}, {"static", "autonuma", "memtis", "artmem"},
        {{1, 1}, {1, 4}}, prototype);

    sweep::SweepRunner serial({.jobs = 1, .progress = false});
    sweep::SweepRunner parallel({.jobs = 4, .progress = false});
    const auto a = serial.run(spec);
    const auto b = parallel.run(spec);
    ASSERT_EQ(a.size(), spec.jobs.size());
    ASSERT_EQ(b.size(), spec.jobs.size());
    for (std::size_t i = 0; i < a.size(); ++i)
        expect_identical(a[i], b[i]);
}

TEST(SweepRunner, CustomRunAndPolicyFactoryJobs)
{
    // A custom-run job and a make_policy job produce the same numbers
    // as the default runner for an equivalent configuration.
    sweep::SweepSpec spec;
    sim::RunSpec run_spec;
    run_spec.workload = "s1";
    run_spec.policy = "memtis";
    run_spec.accesses = 50000;
    spec.add(run_spec, {"default"});
    spec.add_with_policy(run_spec, {"factory"},
                         [] { return sim::make_policy("memtis", 42); });
    spec.add_run({"custom"}, [run_spec] {
        return sim::run_experiment(run_spec);
    });
    sweep::SweepRunner runner({.jobs = 3, .progress = false});
    const auto out = runner.run(spec);
    ASSERT_EQ(out.size(), 3u);
    expect_identical(out[0], out[1]);
    expect_identical(out[0], out[2]);
}

TEST(SweepRunner, JobExceptionPropagates)
{
    sweep::SweepSpec spec;
    sim::RunSpec ok;
    ok.workload = "s1";
    ok.policy = "static";
    ok.accesses = 20000;
    spec.add(ok, {"ok"});
    spec.add_run({"boom"}, []() -> sim::RunResult {
        throw std::runtime_error("boom");
    });
    spec.add(ok, {"ok2"});
    sweep::SweepRunner runner({.jobs = 2, .progress = false});
    EXPECT_THROW(runner.run(spec), std::runtime_error);
}

// ------------------------------------------------------ shared streams

/** Every simulated output of a run, doubles as exact hex floats. */
std::string
exact_summary(const sim::RunResult& r)
{
    std::ostringstream os;
    const auto hex = [&os](double value) {
        char buf[64];
        std::snprintf(buf, sizeof buf, "%a ", value);
        os << buf;
    };
    const auto& t = r.totals;
    os << r.runtime_ns << ' ' << r.accesses << ' ' << t.accesses[0] << ' '
       << t.accesses[1] << ' ' << t.hint_faults << ' ' << t.promoted_pages
       << ' ' << t.demoted_pages << ' ' << t.exchanges << ' '
       << t.migration_busy_ns << ' ' << t.overhead_ns << ' ' << t.tx_opened
       << ' ' << t.failed_quota << ' ' << r.pebs_recorded << ' '
       << r.pebs_dropped << ' ' << r.invariant_audits << ' ';
    hex(r.fast_ratio);
    for (const auto& interval : r.timeline) {
        os << interval.end_time << ' ' << interval.accesses << ' ';
        hex(interval.fast_ratio);
    }
    for (const auto& tenant : r.tenants) {
        os << tenant.accesses[0] << ' ' << tenant.accesses[1] << ' '
           << tenant.samples << ' ' << tenant.used_fast << ' ';
    }
    return os.str();
}

/** Record @p workload's stream to a trace file; returns "trace:PATH". */
std::string
record_trace(const std::string& workload, std::uint64_t accesses)
{
    const std::string path =
        ::testing::TempDir() + "/artmem_sweep_" + workload + ".trace";
    workloads::TraceWriter writer(
        workloads::make_workload(workload, sim::kExperimentPageSize,
                                 accesses, 3),
        path, sim::kExperimentPageSize);
    std::vector<PageId> buf(4096);
    while (writer.fill(buf) > 0) {
    }
    return "trace:" + path;
}

/**
 * Two interleaved keys (one with a make_policy job), a custom run job,
 * a multi-tenant job, a trace:FILE key and a key with one job.
 */
sweep::SweepSpec
mixed_spec()
{
    sweep::SweepSpec spec;
    sim::RunSpec base;
    base.accesses = 40000;
    base.seed = 42;
    base.engine.record_timeline = true;
    base.engine.check_invariants = true;
    const auto add = [&](const std::string& workload,
                         const std::string& policy, sim::RatioSpec ratio) {
        sim::RunSpec run = base;
        run.workload = workload;
        run.policy = policy;
        run.ratio = ratio;
        return spec.add(run, {workload, policy, ratio.label()});
    };
    add("s1", "artmem", {1, 4});
    add("s2", "tpp", {1, 4});
    add("s1", "autotiering", {1, 8});
    add("s2", "memtis", {1, 1});
    sim::RunSpec factory = base;
    factory.workload = "s1";
    factory.ratio = {1, 2};
    spec.add_with_policy(factory, {"s1", "factory"},
                         [] { return sim::make_policy("multiclock", 5); });
    spec.add_run({"custom"}, [base] {
        sim::RunSpec run = base;
        run.workload = "s2";
        run.policy = "nimble";
        return sim::run_experiment(run);
    });
    sim::RunSpec tenants = base;
    tenants.workload = "s1";
    tenants.policy = "autotiering";
    tenants.tenancy.tenants = 2;
    tenants.tenancy.quota_share = 0.4;
    spec.add(tenants, {"tenants"});
    const std::string trace = record_trace("ycsb", 30000);
    add(trace, "artmem", {1, 4});
    add("s2", "autonuma", {1, 16});
    add(trace, "tiering08", {1, 2});
    add("btree", "artmem", {1, 4});  // alone in its key
    sim::RunSpec reseeded = base;    // same workload, another seed
    reseeded.workload = "s1";
    reseeded.seed = 43;
    reseeded.policy = "artmem";
    spec.add(reseeded, {"s1", "seed 43"});
    return spec;
}

TEST(SweepRunner, SharedStreamsMatchLiveJobs)
{
    const auto spec = mixed_spec();
    std::vector<std::string> live;
    for (const auto& job : spec.jobs)
        live.push_back(exact_summary(sweep::run_job(job)));
    for (const unsigned jobs : {1u, 4u}) {
        const auto shared =
            sweep::SweepRunner({.jobs = jobs, .progress = false}).run(spec);
        ASSERT_EQ(shared.size(), spec.jobs.size());
        for (std::size_t i = 0; i < shared.size(); ++i) {
            EXPECT_EQ(exact_summary(shared[i]), live[i])
                << "job " << i << " at --jobs " << jobs;
        }
    }
}

TEST(SweepRunner, ExceptionInOneGroupStillRunsLaterGroups)
{
    for (const unsigned jobs : {1u, 4u}) {
        sweep::SweepSpec spec;
        sim::RunSpec run;
        run.accesses = 20000;
        std::atomic<int> ran{0};
        const auto counted = [&ran] {
            ++ran;
            return sim::make_policy("static", 1);
        };
        run.workload = "s1";
        spec.add_with_policy(run, {"s1 ok"}, counted);
        spec.add_with_policy(run, {"s1 boom"},
                             []() -> std::unique_ptr<policies::Policy> {
                                 throw std::runtime_error("boom");
                             });
        spec.add_with_policy(run, {"s1 ok"}, counted);
        run.workload = "s2";
        spec.add_with_policy(run, {"s2 ok"}, counted);
        spec.add_with_policy(run, {"s2 ok"}, counted);
        spec.add_run({"live"}, [&ran] {
            ++ran;
            return sim::RunResult{};
        });
        sweep::SweepRunner runner({.jobs = jobs, .progress = false});
        EXPECT_THROW((void)runner.run(spec), std::runtime_error);
        EXPECT_EQ(ran.load(), 5) << "--jobs " << jobs;
    }
}

TEST(SweepRunner, ProfileCountsEachSharedStreamOnce)
{
    sim::RunSpec run;
    run.workload = "s1";
    run.policy = "static";
    run.accesses = 30000;  // 59 batches of 512 (the last short) + the end
    run.engine.telemetry.profile = true;
    const auto spec =
        sweep::SweepSpec::grid({"s1"}, {"static"}, {{1, 1}, {1, 4}, {1, 8}},
                               run);
    const auto runs =
        sweep::SweepRunner({.jobs = 2, .progress = false}).run(spec);
    constexpr auto kGenerate = telemetry::Phase::kGenerate;
    const auto calls = [&](std::size_t i) {
        return runs[i].telemetry->phase_profiler().phase_calls(kGenerate);
    };
    // The stream's one generation lands on the first job, next to the
    // 60 replay fills every job makes.
    EXPECT_EQ(calls(0), 61u);
    EXPECT_EQ(calls(1), 60u);
    EXPECT_EQ(calls(2), 60u);
    EXPECT_EQ(
        sweep::merge_job_profiles(runs).phase_calls(kGenerate), 181u);
}

// ----------------------------------------------------------- ResultSink

TEST(ResultSink, CsvMatchesTableOutput)
{
    sweep::ResultSink sink({"workload", "runtime"});
    sink.row().cell(std::string("s1")).cell(1.25, 2);
    sink.row().cell(std::string("s2")).cell(0.5, 2);
    std::ostringstream csv;
    ASSERT_TRUE(sink.emit(csv, sweep::Format::kCsv));
    EXPECT_EQ(csv.str(), "workload,runtime\ns1,1.25\ns2,0.50\n");

    Table table({"workload", "runtime"});
    table.row().cell(std::string("s1")).cell(1.25, 2);
    table.row().cell(std::string("s2")).cell(0.5, 2);
    std::ostringstream table_csv;
    table.print_csv(table_csv);
    EXPECT_EQ(csv.str(), table_csv.str());
}

TEST(ResultSink, JsonQuotesLabelsAndEmitsNumbersRaw)
{
    sweep::ResultSink sink({"policy", "ratio", "runtime"});
    sink.row()
        .cell(std::string("artmem"))
        .cell(std::string("1:16"))
        .cell(1.5, 3);
    std::ostringstream os;
    ASSERT_TRUE(sink.emit(os, sweep::Format::kJson));
    EXPECT_EQ(os.str(), "[\n  {\"policy\": \"artmem\", "
                        "\"ratio\": \"1:16\", \"runtime\": 1.500}\n]\n");
}

// ----------------------------------------------------------- bench CLI

BenchOptions
parse_options(std::vector<std::string> argv_strings)
{
    argv_strings.insert(argv_strings.begin(), "bench");
    std::vector<char*> argv;
    argv.reserve(argv_strings.size());
    for (auto& arg : argv_strings)
        argv.push_back(arg.data());
    return BenchOptions::parse(static_cast<int>(argv.size()), argv.data(),
                               8000000);
}

TEST(BenchOptions, QuickScalesOnlyTheDefaultAccessCount)
{
    EXPECT_EQ(parse_options({}).accesses, 8000000u);
    EXPECT_EQ(parse_options({"--quick"}).accesses, 2000000u);
    // An explicit --accesses is taken verbatim, even with --quick.
    EXPECT_EQ(parse_options({"--accesses=600"}).accesses, 600u);
    EXPECT_EQ(parse_options({"--quick", "--accesses=600"}).accesses, 600u);
}

TEST(BenchOptions, JobsAndFormatFlags)
{
    EXPECT_EQ(parse_options({}).jobs, 0u);
    EXPECT_EQ(parse_options({"--jobs=4"}).jobs, 4u);
    EXPECT_EQ(parse_options({}).format(), sweep::Format::kTable);
    EXPECT_EQ(parse_options({"--csv"}).format(), sweep::Format::kCsv);
    EXPECT_EQ(parse_options({"--json"}).format(), sweep::Format::kJson);
}

}  // namespace
}  // namespace artmem
