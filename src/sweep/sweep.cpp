#include "sweep/sweep.hpp"

#include <unistd.h>

#include <algorithm>
#include <atomic>
#include <chrono>
#include <cstdio>
#include <exception>
#include <thread>
#include <vector>

#include "util/rng.hpp"
#include "util/sync.hpp"
#include "util/thread_annotations.hpp"

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
    if (job.make_policy) {
        auto policy = job.make_policy();
        return sim::run_experiment(job.spec, *policy);
    }
    return sim::run_experiment(job.spec);
}

SweepRunner::SweepRunner(SweepOptions options) : options_(options) {}

std::vector<sim::RunResult>
SweepRunner::run(const SweepSpec& spec)
{
    return map<sim::RunResult>(spec.jobs.size(), [&](std::size_t i) {
        return run_job(spec.jobs[i]);
    });
}

void
SweepRunner::run_indexed(std::size_t n,
                         const std::function<void(std::size_t)>& fn)
{
    if (n == 0)
        return;

    ProgressMeter progress(
        options_.progress && n > 1 && isatty(fileno(stderr)) != 0, n);

    unsigned workers = options_.jobs;
    if (workers == 0)
        workers = std::max(1u, std::thread::hardware_concurrency());
    if (static_cast<std::size_t>(workers) > n)
        workers = static_cast<unsigned>(n);

    if (workers <= 1) {
        // Serial fast path: no threads, exceptions propagate directly.
        for (std::size_t i = 0; i < n; ++i) {
            fn(i);
            progress.job_done();
        }
        return;
    }

    // Each worker claims the next unstarted index, so jobs start in
    // index order. A throwing job does not stop its worker: every job
    // still runs, and the first exception is rethrown after the join.
    std::atomic<std::size_t> next{0};
    FirstError error;
    {
        std::vector<std::jthread> threads;
        threads.reserve(workers);
        for (unsigned w = 0; w < workers; ++w) {
            threads.emplace_back([&] {
                for (std::size_t i = next.fetch_add(1); i < n;
                     i = next.fetch_add(1)) {
                    try {
                        fn(i);
                        progress.job_done();
                    } catch (...) {
                        error.capture(std::current_exception());
                    }
                }
            });
        }
    }  // std::jthread joins on destruction.
    error.rethrow();
}

}  // namespace artmem::sweep
