#include "sweep/sweep.hpp"

#include <unistd.h>

#include <algorithm>
#include <atomic>
#include <chrono>
#include <cstdio>
#include <exception>
#include <map>
#include <new>
#include <span>
#include <string_view>
#include <thread>
#include <tuple>
#include <vector>

#include "telemetry/phase_timer.hpp"
#include "util/logging.hpp"
#include "util/rng.hpp"
#include "util/sync.hpp"
#include "util/thread_annotations.hpp"
#include "workloads/trace.hpp"

namespace artmem::sweep {

namespace {

/**
 * Worker-shared "k/N jobs done" + ETA reporter. Writes to stderr only
 * (and only when stderr is a terminal), so it can never feed the result
 * vector and cannot break bit-identity. The ETA wall clock is likewise
 * reporting-only; everything cross-thread sits behind mutex_ so the
 * Clang capability analysis can vouch for the progress path.
 */
class ProgressMeter
{
  public:
    ProgressMeter(bool enabled, std::size_t total)
        : enabled_(enabled), total_(total),
          start_(Clock::now())
    {
    }

    void
    job_done() ARTMEM_EXCLUDES(mutex_)
    {
        if (!enabled_)
            return;
        MutexLock lock(mutex_);
        ++done_;
        const double elapsed =
            std::chrono::duration<double>(Clock::now() - start_).count();
        const double eta = elapsed / static_cast<double>(done_) *
                           static_cast<double>(total_ - done_);
        std::fprintf(stderr, "\rsweep: %zu/%zu jobs done, eta %.1fs%s",
                     done_, total_, eta, done_ == total_ ? "\n" : "");
        std::fflush(stderr);
    }

  private:
    // lint:allow(DL001) ETA on stderr only; never feeds results
    using Clock = std::chrono::steady_clock;

    const bool enabled_;
    const std::size_t total_;
    const Clock::time_point start_;
    Mutex mutex_;
    std::size_t done_ ARTMEM_GUARDED_BY(mutex_) = 0;
};

/** The first exception any worker raised; later ones are dropped. */
class FirstError
{
  public:
    void
    capture(std::exception_ptr error) ARTMEM_EXCLUDES(mutex_)
    {
        MutexLock lock(mutex_);
        if (!error_)
            error_ = std::move(error);
    }

    /** Call after every worker has joined. */
    void
    rethrow() ARTMEM_EXCLUDES(mutex_)
    {
        std::exception_ptr error;
        {
            MutexLock lock(mutex_);
            error = error_;
        }
        if (error)
            std::rethrow_exception(error);
    }

  private:
    Mutex mutex_;
    std::exception_ptr error_ ARTMEM_GUARDED_BY(mutex_);
};

/**
 * Run fn(k) for every k in [0, n) on up to @p workers threads that
 * claim the next unstarted index, so jobs start in index order. A
 * throwing job does not stop its worker: every job still runs, and the
 * exception lands in @p error for the caller to rethrow.
 */
void
dispatch(std::size_t n, unsigned workers,
         const std::function<void(std::size_t)>& fn,
         ProgressMeter& progress, FirstError& error)
{
    const auto run_one = [&](std::size_t k) {
        try {
            fn(k);
            progress.job_done();
        } catch (...) {
            error.capture(std::current_exception());
        }
    };
    if (static_cast<std::size_t>(workers) > n)
        workers = static_cast<unsigned>(n);
    if (workers <= 1) {
        // Serial path: no threads.
        for (std::size_t k = 0; k < n; ++k)
            run_one(k);
        return;
    }
    std::atomic<std::size_t> next{0};
    // Declared last, so the threads join before what they use goes.
    std::vector<std::jthread> threads;
    threads.reserve(workers);
    for (unsigned w = 0; w < workers; ++w) {
        threads.emplace_back([&] {
            for (std::size_t k = next.fetch_add(1); k < n;
                 k = next.fetch_add(1))
                run_one(k);
        });
    }
}

/**
 * The spec's jobs split by how they get their access stream. A shared
 * group is every default-runner job with one (workload, seed, accesses)
 * key, in job order; groups are ordered by the key's first job.
 * Everything else runs live through run_job(), in job order: custom
 * `run` jobs, multi-tenant jobs (their ledger is built from the
 * TenantSet's layout), and jobs alone in their key.
 */
struct StreamPlan {
    std::vector<std::vector<std::size_t>> groups;
    std::vector<std::size_t> live;
};

StreamPlan
plan_streams(const SweepSpec& spec)
{
    using Key = std::tuple<std::string_view, std::uint64_t, std::uint64_t>;
    std::map<Key, std::size_t> group_of;
    StreamPlan plan;
    std::vector<std::vector<std::size_t>> candidates;
    for (std::size_t i = 0; i < spec.jobs.size(); ++i) {
        const SweepJob& job = spec.jobs[i];
        if (job.run || job.spec.tenancy.enabled()) {
            plan.live.push_back(i);
            continue;
        }
        const Key key{job.spec.workload, job.spec.seed, job.spec.accesses};
        const auto [it, added] = group_of.try_emplace(key, candidates.size());
        if (added)
            candidates.emplace_back();
        candidates[it->second].push_back(i);
    }
    for (auto& group : candidates) {
        if (group.size() > 1)
            plan.groups.push_back(std::move(group));
        else
            plan.live.push_back(group.front());
    }
    std::sort(plan.live.begin(), plan.live.end());
    return plan;
}

/**
 * Generate @p gen's whole stream into @p stream, reusing its capacity.
 * Returns false, leaving the stream to live generation, when it does
 * not fit in memory; fatal() unless the generator emits exactly
 * total_accesses().
 */
bool
materialise(workloads::AccessGenerator& gen, std::vector<PageId>& stream)
{
    const std::uint64_t total = gen.total_accesses();
    if (total > stream.max_size())
        return false;
    try {
        stream.resize(static_cast<std::size_t>(total));
    } catch (const std::bad_alloc&) {
        return false;
    }
    std::size_t filled = 0;
    for (std::size_t n = 1; n > 0 && filled < stream.size(); filled += n)
        n = gen.fill(std::span<PageId>(stream).subspan(filled));
    PageId extra;
    if (filled != stream.size() || gen.fill({&extra, 1}) != 0)
        fatal("sweep: workload '", gen.name(), "' emitted ",
              filled == stream.size() ? "more than" : "only", " ", filled,
              " accesses but reports total_accesses() = ", total);
    return true;
}

std::unique_ptr<policies::Policy>
make_job_policy(const SweepJob& job)
{
    return job.make_policy ? job.make_policy()
                           : sim::make_policy(job.spec.policy, job.spec.seed);
}

}  // namespace

SweepSpec
SweepSpec::grid(const std::vector<std::string>& workloads,
                const std::vector<std::string>& policies,
                const std::vector<sim::RatioSpec>& ratios,
                const sim::RunSpec& prototype)
{
    SweepSpec spec;
    spec.jobs.reserve(workloads.size() * policies.size() * ratios.size());
    for (const auto& workload : workloads) {
        for (const auto& policy : policies) {
            for (const auto& ratio : ratios) {
                sim::RunSpec run = prototype;
                run.workload = workload;
                run.policy = policy;
                run.ratio = ratio;
                spec.add(std::move(run),
                         {workload, policy, ratio.label()});
            }
        }
    }
    return spec;
}

void
SweepSpec::derive_seeds(std::uint64_t base_seed)
{
    for (std::size_t i = 0; i < jobs.size(); ++i)
        jobs[i].spec.seed = derive_seed(base_seed, SeedDomain::kJob, i);
}

sim::RunResult
run_job(const SweepJob& job)
{
    if (job.run)
        return job.run();
    auto policy = make_job_policy(job);
    return sim::run_experiment(job.spec, *policy);
}

SweepRunner::SweepRunner(SweepOptions options) : options_(options) {}

unsigned
SweepRunner::workers() const
{
    return options_.jobs != 0
               ? options_.jobs
               : std::max(1u, std::thread::hardware_concurrency());
}

std::vector<sim::RunResult>
SweepRunner::run(const SweepSpec& spec)
{
    const std::size_t n = spec.jobs.size();
    std::vector<sim::RunResult> results(n);
    if (n == 0)
        return results;
    const StreamPlan plan = plan_streams(spec);
    ProgressMeter progress(
        options_.progress && n > 1 && isatty(fileno(stderr)) != 0, n);
    FirstError error;

    // One buffer for the whole run, refilled per group: the groups run
    // one after another, so one stream is resident at a time.
    std::vector<PageId> stream;
    for (const auto& group : plan.groups) {
        const auto profiles = [&](std::size_t i) {
            return spec.jobs[i].spec.engine.telemetry.profile;
        };
        const bool profiled = std::any_of(group.begin(), group.end(), profiles);
        // Generation is timed once per stream, under the generate phase
        // of the first profiled job, so --profile does not report the
        // shared work as free.
        telemetry::PhaseProfiler generation;
        std::string name;
        Bytes footprint = 0;
        bool shared = false;
        {
            telemetry::PhaseTimer timer(profiled ? &generation : nullptr,
                                        telemetry::Phase::kGenerate);
            const auto gen =
                sim::make_experiment_workload(spec.jobs[group.front()].spec);
            shared = materialise(*gen, stream);
            name = gen->name();
            footprint = gen->footprint();
        }
        dispatch(
            group.size(), workers(),
            [&](std::size_t k) {
                const SweepJob& job = spec.jobs[group[k]];
                if (!shared) {
                    results[group[k]] = run_job(job);
                    return;
                }
                workloads::StreamReplay replay(name, footprint, stream);
                auto policy = make_job_policy(job);
                results[group[k]] =
                    sim::run_experiment_on(job.spec, replay, *policy);
            },
            progress, error);
        if (shared && profiled) {
            const auto first = std::find_if(
                group.begin(), group.end(), [&](std::size_t i) {
                    return results[i].telemetry != nullptr && profiles(i);
                });
            if (first != group.end())
                results[*first].telemetry->profiler()->merge(generation);
        }
    }
    dispatch(
        plan.live.size(), workers(),
        [&](std::size_t k) {
            results[plan.live[k]] = run_job(spec.jobs[plan.live[k]]);
        },
        progress, error);
    error.rethrow();
    return results;
}

void
SweepRunner::run_indexed(std::size_t n,
                         const std::function<void(std::size_t)>& fn)
{
    ProgressMeter progress(
        options_.progress && n > 1 && isatty(fileno(stderr)) != 0, n);
    FirstError error;
    dispatch(n, workers(), fn, progress, error);
    error.rethrow();
}

}  // namespace artmem::sweep
