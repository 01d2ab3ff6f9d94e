/**
 * @file
 * Benchmark driver behind perfbench/run.py. It runs one named workload
 * against the simulator library and prints one JSON object per line on
 * stdout; run.py turns those lines into the benchmark's metrics.
 *
 *   perfbench_driver --workload=NAME --seed=N --seconds=S --mode=timed
 *   perfbench_driver --workload=NAME --seed=N --seconds=S --mode=traced
 *                    --spans=FILE
 *
 * Timed mode repeats the workload through the library's own entry points
 * (sim::run_simulation, or sweep::SweepRunner::run for fig7_grid) until
 * S seconds have passed, and prints one "repeat" line per repetition.
 *
 * Traced mode alternates an untraced reference run with a traced run.
 * The traced run re-creates sim::run_experiment and the engine loop of
 * sim::run_simulation from public calls, records a span around every
 * call it makes into a layer, audits every decision interval, and must
 * reproduce the reference run's simulated summary exactly. Spans are
 * kept in memory and written to FILE when the driver ends.
 *
 * Nothing here is compiled into the simulator: every span wraps a call
 * into a public function, so src/ carries no benchmark instrumentation.
 */
#include <sys/resource.h>

#include <algorithm>
#include <chrono>
#include <cstdint>
#include <cstdio>
#include <exception>
#include <fstream>
#include <iostream>
#include <memory>
#include <sstream>
#include <string>
#include <thread>
#include <type_traits>
#include <vector>

#if defined(__x86_64__) || defined(__i386__)
#include <cpuid.h>
#endif

#include "memsim/pebs.hpp"
#include "memsim/tenant_ledger.hpp"
#include "memsim/tiered_machine.hpp"
#include "sim/engine.hpp"
#include "sim/experiment.hpp"
#include "sim/registry.hpp"
#include "sweep/sweep.hpp"
#include "tenancy/tenancy.hpp"
#include "util/cli.hpp"
#include "util/logging.hpp"
#include "verify/invariant_checker.hpp"
#include "workloads/factory.hpp"

namespace {

using namespace artmem;
using Clock = std::chrono::steady_clock;

const Clock::time_point kEpoch = Clock::now();

/** Nanoseconds since the driver started (the span clock). */
std::int64_t
now_ns()
{
    return std::chrono::duration_cast<std::chrono::nanoseconds>(
               Clock::now() - kEpoch)
        .count();
}

double
seconds_since(std::int64_t start_ns)
{
    return static_cast<double>(now_ns() - start_ns) * 1e-9;
}

// ---------------------------------------------------------------------
// Workloads
// ---------------------------------------------------------------------

/** Accesses per single-run repeat: long enough that MASIM S2 goes
 *  through its hot-set shifts (about 8.9k migrations at seed 42). */
constexpr std::uint64_t kRunAccesses = 8000000;
/** Accesses per fig7_grid job; the grid has 392 jobs. */
constexpr std::uint64_t kGridAccesses = 500000;
/** Grid set-ups timed per fig7_grid repeat (odd, for the median). */
constexpr int kGridSetups = 15;
/** Traced mode stops after this many passes even if --seconds has not
 *  run out, which bounds the spans file (about 40k spans per single-run
 *  pass, about 1M per grid pass). */
constexpr std::uint32_t kMaxTracedPasses = 5;

/** Seeded runs per single-run workload. A run's simulated results
 *  depend on its seed (masim_s2's fast ratio by up to 13%); averaging
 *  over several seeds keeps one seed from setting the figures. */
constexpr std::uint64_t kSeedsPerRun = 8;

/** Seed of run @p index of the workload seeded with @p seed. */
std::uint64_t
run_seed(std::uint64_t seed, std::uint64_t index)
{
    return seed * kSeedsPerRun + index;
}

sim::RunSpec
base_spec(std::string workload, std::uint64_t seed)
{
    sim::RunSpec spec;
    spec.workload = std::move(workload);
    spec.policy = "artmem";
    spec.ratio = {1, 4};
    spec.accesses = kRunAccesses;
    spec.seed = seed;
    return spec;
}

/** The single-run workloads; fatal() on an unknown name. */
sim::RunSpec
single_run_spec(const std::string& name, std::uint64_t seed)
{
    if (name == "ycsb_zipf")
        return base_spec("ycsb", seed);  // Zipfian, theta 0.99
    if (name == "masim_s2")
        return base_spec("s2", seed);
    if (name == "tenants16_tx") {
        sim::RunSpec spec = base_spec("s2", seed);
        spec.tenancy.tenants = 16;
        spec.tenancy.mix = {"s2", "ycsb", "s3", "btree"};
        spec.tenancy.quota_share = 0.1;
        spec.tenancy.admission = "feedback";
        spec.engine.tx.enabled = true;
        spec.engine.tx.seed = seed;
        // Writes abort in-flight copies, and a 16-entry table makes
        // busy retries common.
        spec.engine.tx.write_ratio = 0.1;
        spec.engine.tx.max_inflight = 16;
        spec.engine.tx.validate();
        return spec;
    }
    fatal("unknown workload '", name,
          "' (known: ycsb_zipf masim_s2 tenants16_tx fig7_grid)");
}

/**
 * The Figure 7 grid in bench_fig7_main's job order: per application,
 * the AutoNUMA 1:16 baseline, then every system at every paper ratio.
 */
sweep::SweepSpec
fig7_spec(std::uint64_t seed)
{
    static const std::vector<std::string> kSystems = {
        "memtis",     "autotiering", "tpp",       "autonuma",
        "multiclock", "nimble",      "tiering08", "artmem"};
    sweep::SweepSpec spec;
    auto add = [&](std::string_view workload, const std::string& policy,
                   sim::RatioSpec ratio) {
        sim::RunSpec run = base_spec(std::string(workload), seed);
        run.policy = policy;
        run.ratio = ratio;
        run.accesses = kGridAccesses;
        spec.add(std::move(run),
                 {std::string(workload), policy, ratio.label()});
    };
    for (const auto workload : workloads::app_workload_names()) {
        add(workload, "autonuma", {1, 16});
        for (const auto& system : kSystems) {
            for (const auto& ratio : sim::paper_ratios())
                add(workload, system, ratio);
        }
    }
    return spec;
}

unsigned
worker_count()
{
    return std::max(1u, std::thread::hardware_concurrency());
}

// ---------------------------------------------------------------------
// Simulated summary: every simulated output of a run, exact
// ---------------------------------------------------------------------

/** Appends "key=value " pairs; doubles print as exact hex floats. */
class SummaryWriter
{
  public:
    SummaryWriter& put(const char* key, std::uint64_t value)
    {
        out_ << key << '=' << value << ' ';
        return *this;
    }
    SummaryWriter& put(const char* key, double value)
    {
        char buf[64];
        std::snprintf(buf, sizeof(buf), "%a", value);
        out_ << key << '=' << buf << ' ';
        return *this;
    }
    std::string str() const { return out_.str(); }

  private:
    std::ostringstream out_;
};

/**
 * Runtime, counters, PEBS counts and per-tenant rows of @p r. The
 * audit count is left out: it depends on whether the run audited.
 */
std::string
summarize(const sim::RunResult& r)
{
    const auto& c = r.totals;
    SummaryWriter w;
    w.put("runtime_ns", r.runtime_ns)
        .put("accesses", r.accesses)
        .put("fast_ratio", r.fast_ratio)
        .put("acc_fast", c.accesses[0])
        .put("acc_slow", c.accesses[1])
        .put("hint_faults", c.hint_faults)
        .put("promoted", c.promoted_pages)
        .put("demoted", c.demoted_pages)
        .put("exchanges", c.exchanges)
        .put("busy_ns", c.migration_busy_ns)
        .put("overhead_ns", c.overhead_ns)
        .put("no_slot", c.failed_no_slot)
        .put("pinned", c.failed_pinned)
        .put("transient", c.failed_transient)
        .put("contended", c.failed_contended)
        .put("aborted_ns", c.aborted_migration_ns)
        .put("tx_opened", c.tx_opened)
        .put("tx_committed", c.tx_committed)
        .put("tx_aborted", c.tx_aborted)
        .put("tx_retries", c.tx_retries)
        .put("tx_free_flips", c.tx_free_flips)
        .put("tx_dual_drops", c.tx_dual_drops)
        .put("tx_dual_reclaims", c.tx_dual_reclaims)
        .put("tx_busy", c.failed_tx_busy)
        .put("quota", c.failed_quota)
        .put("admission", c.failed_admission)
        .put("pebs_recorded", r.pebs_recorded)
        .put("pebs_dropped", r.pebs_dropped)
        .put("pebs_suppressed", r.pebs_suppressed);
    std::string text = w.str();
    for (std::size_t t = 0; t < r.tenants.size(); ++t) {
        const auto& s = r.tenants[t];
        SummaryWriter tw;
        tw.put("tenant", static_cast<std::uint64_t>(t))
            .put("acc_fast", s.accesses[0])
            .put("acc_slow", s.accesses[1])
            .put("fast_ratio", s.fast_ratio)
            .put("samples", s.samples)
            .put("promoted", s.promoted)
            .put("demoted", s.demoted)
            .put("quota_denied", s.quota_denied)
            .put("admission_denied", s.admission_denied)
            .put("grants", s.admission_grants)
            .put("over_quota", s.over_quota_allocs)
            .put("used_fast", static_cast<std::uint64_t>(s.used_fast))
            .put("quota", static_cast<std::uint64_t>(s.quota));
        text += "| " + tw.str();
    }
    return text;
}

// ---------------------------------------------------------------------
// Minimal JSON line writer
// ---------------------------------------------------------------------

class JsonLine
{
  public:
    explicit JsonLine(const char* kind) { add("kind", kind); }

    JsonLine& add(const char* key, const std::string& value)
    {
        std::string quoted = "\"";
        for (const char ch : value) {
            if (ch == '"' || ch == '\\')
                quoted += '\\';
            if (static_cast<unsigned char>(ch) >= 0x20)
                quoted += ch;
        }
        return raw(key, quoted + "\"");
    }
    JsonLine& add(const char* key, const char* value)
    {
        return add(key, std::string(value));
    }
    JsonLine& add(const char* key, double value)
    {
        char buf[64];
        std::snprintf(buf, sizeof(buf), "%.17g", value);
        return raw(key, buf);
    }
    JsonLine& add(const char* key, std::uint64_t value)
    {
        return raw(key, std::to_string(value));
    }
    JsonLine& raw(const char* key, const std::string& json)
    {
        text_ += text_.empty() ? "{" : ", ";
        text_ += "\"" + std::string(key) + "\": " + json;
        return *this;
    }
    void print() const { std::cout << text_ << "}\n" << std::flush; }
    std::string str() const { return text_ + "}"; }

  private:
    std::string text_;
};

// ---------------------------------------------------------------------
// Spans
// ---------------------------------------------------------------------

/** Span names; each layer span is named "<layer>.<call>". */
enum SpanName : std::uint8_t {
    kRun,
    kPoliciesSetup,
    kWorkloadsSetup,
    kMemsimSetup,
    kTenancySetup,
    kPrefault,
    kPoliciesInit,
    kFill,
    kAccessBatch,
    kDrain,
    kNoteSample,
    kOnSamples,
    kOnTick,
    kPollTx,
    kOnInterval,
    kIntervalFeedback,
    kTakeWindow,
    kAudit,
    kSweepRun,
    kSweepJob,
    kSpanNameCount
};

constexpr const char* kSpanNames[kSpanNameCount] = {
    "sim.run",
    "policies.setup",
    "workloads.setup",
    "memsim.setup",
    "tenancy.setup",
    "memsim.prefault",
    "policies.init",
    "workloads.fill",
    "memsim.access_batch",
    "memsim.pebs.drain",
    "tenancy.note_sample",
    "policies.on_samples",
    "policies.on_tick",
    "memsim.poll_tx",
    "policies.on_interval",
    "tenancy.interval_feedback",
    "memsim.take_window",
    "verify.audit",
    "sweep.run",
    "sweep.job",
};

struct Span {
    std::uint32_t id = 0;      ///< 1-based within its run.
    std::uint32_t parent = 0;  ///< 0 for the root.
    SpanName name = kRun;
    std::uint16_t label = 0;   ///< Index into the label table (0 = none).
    std::int64_t start = 0;
    std::int64_t end = 0;
};

/**
 * The spans of one workload run: a root span and one child per timed
 * call. Each run is written by a single thread.
 */
class RunTrace
{
  public:
    RunTrace() = default;
    RunTrace(std::uint32_t pass, std::uint32_t run, SpanName root)
        : pass_(pass), run_(run)
    {
        spans_.reserve(1024);
        spans_.push_back(Span{1, 0, root, 0, now_ns(), 0});
    }

    /** Time fn() as a child of the root; returns what fn returns. */
    template <typename Fn>
    decltype(auto) span(SpanName name, Fn&& fn)
    {
        const std::int64_t start = now_ns();
        if constexpr (std::is_void_v<std::invoke_result_t<Fn>>) {
            fn();
            child(name, 0, start, now_ns());
        } else {
            auto value = fn();
            child(name, 0, start, now_ns());
            return value;
        }
    }

    /** Record an already-timed child with a label. */
    void child(SpanName name, std::uint16_t label, std::int64_t start,
               std::int64_t end)
    {
        spans_.push_back(Span{next_id(), 1, name, label, start, end});
    }

    void finish() { spans_.front().end = now_ns(); }

    void write(std::ostream& out,
               const std::vector<std::string>& labels) const
    {
        for (const Span& s : spans_) {
            out << pass_ << '\t' << run_ << '\t' << s.id << '\t'
                << s.parent << '\t' << kSpanNames[s.name] << '\t'
                << labels[s.label] << '\t' << s.start << '\t' << s.end
                << '\n';
        }
    }

  private:
    std::uint32_t next_id()
    {
        return static_cast<std::uint32_t>(spans_.size() + 1);
    }

    std::uint32_t pass_ = 0;
    std::uint32_t run_ = 0;
    std::vector<Span> spans_;
};

// ---------------------------------------------------------------------
// The traced run
// ---------------------------------------------------------------------

struct TracedResult {
    sim::RunResult result;
    std::uint64_t ticks = 0;
    std::uint64_t decisions = 0;
    std::uint64_t drained = 0;
    std::uint64_t audits = 0;
    std::string violation;  ///< Non-empty when an audit tripped.
};

/** The objects sim::run_experiment builds for one run. */
struct RunSetup {
    std::unique_ptr<policies::Policy> policy;
    std::unique_ptr<tenancy::TenantSet> set;
    std::unique_ptr<workloads::AccessGenerator> gen;
    std::unique_ptr<memsim::TieredMachine> machine;

    workloads::AccessGenerator& workload()
    {
        return set != nullptr ? *set : *gen;
    }
};

constexpr Bytes kPageSize = 2ull << 20;  // as in sim::run_experiment

/**
 * The set-up of sim::run_experiment, in its order, split out so that
 * it can be timed apart from the engine loop. With @p trace, each step
 * is a span.
 */
RunSetup
setup_run(const sim::RunSpec& spec, RunTrace* trace)
{
    auto step = [trace](SpanName name, auto&& fn) -> decltype(auto) {
        return trace != nullptr ? trace->span(name, fn) : fn();
    };
    RunSetup run;
    run.policy = step(kPoliciesSetup, [&] {
        return sim::make_policy(spec.policy, spec.seed);
    });
    spec.tenancy.validate();
    step(kWorkloadsSetup, [&] {
        if (spec.tenancy.enabled()) {
            run.set = tenancy::make_tenant_set(spec.tenancy, spec.workload,
                                               kPageSize, spec.accesses,
                                               spec.seed);
        } else {
            run.gen = workloads::make_workload(spec.workload, kPageSize,
                                               spec.accesses, spec.seed);
        }
    });
    const auto machine_config = sim::make_machine_config(
        run.workload().footprint(), spec.ratio, kPageSize);
    run.machine = step(kMemsimSetup, [&] {
        return std::make_unique<memsim::TieredMachine>(machine_config);
    });
    if (run.set != nullptr) {
        step(kTenancySetup, [&] {
            run.machine->install_tenants(tenancy::make_tenant_ledger(
                spec.tenancy, *run.set, run.machine->page_count(),
                machine_config.fast_capacity_pages()));
        });
    }
    return run;
}

/**
 * sim::run_experiment(spec) rebuilt from public calls, with the engine
 * loop of sim::run_simulation for the configuration every workload
 * here uses (no faults, no telemetry, no timeline), one span per call
 * into a layer, and an invariant audit after every decision interval.
 * Must reproduce the untraced result exactly; the driver checks it.
 */
TracedResult
traced_run(const sim::RunSpec& spec, RunTrace& trace)
{
    TracedResult out;
    const sim::EngineConfig& config = spec.engine;
    RunSetup run = setup_run(spec, &trace);
    workloads::AccessGenerator& workload = run.workload();
    policies::Policy* policy = run.policy.get();
    memsim::TieredMachine* machine = run.machine.get();

    if (config.prefault) {
        const auto pages = static_cast<std::size_t>(
            (workload.footprint() + kPageSize - 1) / kPageSize);
        trace.span(kPrefault, [&] { machine->prefault_range(0, pages); });
    }
    trace.span(kMemsimSetup, [&] {
        machine->install_faults(config.faults);
        machine->install_tx(config.tx);
    });
    if (machine->fault_injector() != nullptr)
        fatal("traced_run: fault injection is not part of any workload");
    trace.span(kPoliciesInit, [&] {
        policy->init(*machine);
        if (machine->tx_enabled()) {
            machine->set_tx_handler([policy](PageId page, memsim::Tier src,
                                             memsim::Tier dst,
                                             bool committed) {
                policy->on_tx_resolved(page, src, dst, committed);
            });
        }
    });

    memsim::PebsSampler sampler(config.pebs);
    verify::InvariantChecker checker;
    std::vector<PageId> batch(config.batch_size);
    std::vector<memsim::PebsSample> drained;
    drained.reserve(4096);
    memsim::TenantLedger* ledger = machine->tenants();
    std::uint64_t accesses = 0;

    auto flush_tick = [&] {
        ++out.ticks;
        drained.clear();
        trace.span(kDrain, [&] {
            sampler.drain(drained, static_cast<std::size_t>(-1));
        });
        out.drained += drained.size();
        if (!drained.empty()) {
            if (ledger != nullptr) {
                trace.span(kNoteSample, [&] {
                    for (const auto& sample : drained)
                        ledger->note_sample(sample.page);
                });
            }
            trace.span(kOnSamples, [&] { policy->on_samples(drained); });
        }
        trace.span(kOnTick, [&] { policy->on_tick(machine->now()); });
    };
    auto flush_decision = [&] {
        ++out.decisions;
        trace.span(kPollTx, [&] { machine->poll_tx(); });
        trace.span(kOnInterval,
                   [&] { policy->on_interval(machine->now()); });
        if (ledger != nullptr)
            trace.span(kIntervalFeedback, [&] { ledger->interval_feedback(); });
        trace.span(kTakeWindow, [&] { (void)machine->take_window(); });
        trace.span(kAudit, [&] {
            (void)checker.audit(*machine, *policy, std::uint64_t{0});
        });
    };

    SimTimeNs next_tick = config.tick_interval;
    SimTimeNs next_decision = config.decision_interval;
    try {
        while (true) {
            const std::size_t n =
                trace.span(kFill, [&] { return workload.fill(batch); });
            if (n == 0)
                break;
            trace.span(kAccessBatch, [&] {
                machine->access_batch(batch.data(), n, sampler);
            });
            accesses += n;
            if (machine->now() >= next_tick) {
                flush_tick();
                next_tick = machine->now() + config.tick_interval;
            }
            if (machine->now() >= next_decision) {
                flush_decision();
                next_decision = machine->now() + config.decision_interval;
            }
        }
        flush_tick();
        flush_decision();
    } catch (const verify::InvariantViolation& violation) {
        out.violation = violation.what();
    }
    out.audits = checker.audits();

    sim::RunResult& r = out.result;
    r.runtime_ns = machine->now();
    r.accesses = accesses;
    r.totals = machine->totals();
    r.fast_ratio = r.totals.fast_ratio();
    r.pebs_recorded = sampler.recorded();
    r.pebs_dropped = sampler.dropped();
    if (ledger != nullptr) {
        r.tenants.resize(ledger->tenant_count());
        for (std::uint32_t t = 0; t < ledger->tenant_count(); ++t) {
            const auto& totals = ledger->totals(t);
            sim::TenantSummary& s = r.tenants[t];
            s.accesses[0] = totals.accesses[0];
            s.accesses[1] = totals.accesses[1];
            s.fast_ratio = totals.fast_ratio();
            s.samples = totals.samples;
            s.promoted = totals.promoted_pages;
            s.demoted = totals.demoted_pages;
            s.quota_denied = totals.quota_denied;
            s.admission_denied = totals.admission_denied;
            s.admission_grants = totals.admission_grants;
            s.over_quota_allocs = totals.over_quota_allocs;
            s.used_fast = ledger->used_pages(t, memsim::Tier::kFast);
            s.quota = ledger->quota(t);
        }
    }
    trace.finish();
    return out;
}

/** Layer counters of traced runs, summed over the runs of a pass. */
struct LayerCounts {
    std::uint64_t accesses = 0;
    std::uint64_t ticks = 0;
    std::uint64_t decisions = 0;
    std::uint64_t drained = 0;
    std::uint64_t audits = 0;
    std::uint64_t pebs_recorded = 0;
    std::uint64_t pebs_dropped = 0;
    std::uint64_t promoted = 0;
    std::uint64_t demoted = 0;
    std::uint64_t migrated = 0;
    std::uint64_t migration_failures = 0;
    std::uint64_t tx_opened = 0;
    std::uint64_t tx_committed = 0;
    std::uint64_t tx_busy = 0;
    std::uint64_t failed_quota = 0;
    std::uint64_t failed_admission = 0;

    void add(const TracedResult& traced)
    {
        const sim::RunResult& r = traced.result;
        const auto& c = r.totals;
        accesses += r.accesses;
        ticks += traced.ticks;
        decisions += traced.decisions;
        drained += traced.drained;
        audits += traced.audits;
        pebs_recorded += r.pebs_recorded;
        pebs_dropped += r.pebs_dropped;
        promoted += c.promoted_pages;
        demoted += c.demoted_pages;
        migrated += c.migrated_pages();
        migration_failures += c.migration_failures();
        tx_opened += c.tx_opened;
        tx_committed += c.tx_committed;
        tx_busy += c.failed_tx_busy;
        failed_quota += c.failed_quota;
        failed_admission += c.failed_admission;
    }

    std::string json() const
    {
        JsonLine j("counters");
        j.add("accesses", accesses)
            .add("ticks", ticks)
            .add("decisions", decisions)
            .add("drained", drained)
            .add("audits", audits)
            .add("pebs_recorded", pebs_recorded)
            .add("pebs_dropped", pebs_dropped)
            .add("promoted", promoted)
            .add("demoted", demoted)
            .add("migrated", migrated)
            .add("migration_failures", migration_failures)
            .add("tx_opened", tx_opened)
            .add("tx_committed", tx_committed)
            .add("tx_busy", tx_busy)
            .add("failed_quota", failed_quota)
            .add("failed_admission", failed_admission);
        return j.str();
    }
};

// ---------------------------------------------------------------------
// Modes
// ---------------------------------------------------------------------

struct Options {
    std::string workload;
    std::uint64_t seed = 1;
    double seconds = 1.0;
    std::string mode;
    std::string spans_path;
};

/**
 * Timed repeats of one single-run workload. The workload is
 * kSeedsPerRun seeded runs, dealt out to one worker thread per hardware
 * thread. Each worker repeats its runs in turn until --seconds have
 * passed, and at least three times each. How fast a vCPU runs drifts
 * with the load on its host core, largely independently per vCPU, so
 * spreading the runs over every vCPU averages that out.
 */
void
timed_single(const Options& opt)
{
    const auto workers = static_cast<unsigned>(
        std::min<std::uint64_t>(worker_count(), kSeedsPerRun));
    std::vector<std::vector<std::string>> lines(workers);
    std::vector<std::string> errors(workers);

    auto work = [&](unsigned w) {
        std::vector<std::uint64_t> indices;
        std::vector<sim::RunSpec> specs;
        std::vector<std::string> references;
        for (std::uint64_t i = w; i < kSeedsPerRun; i += workers) {
            indices.push_back(i);
            specs.push_back(
                single_run_spec(opt.workload, run_seed(opt.seed, i)));
            // Warm-up through the library's one-call entry point; its
            // summary is the reference every timed repeat must match.
            references.push_back(
                summarize(sim::run_experiment(specs.back())));
            lines[w].push_back(
                JsonLine("warmup").add("ops", std::uint64_t{1}).str());
        }
        const std::size_t mine = indices.size();
        const std::int64_t begin = now_ns();
        for (std::size_t repeats = 0; repeats < 3 * mine ||
                                      repeats % mine != 0 ||
                                      seconds_since(begin) < opt.seconds;
             ++repeats) {
            const std::size_t k = repeats % mine;
            const sim::RunSpec& spec = specs[k];
            const std::int64_t t0 = now_ns();
            std::int64_t t1 = 0;
            std::int64_t t2 = 0;
            sim::RunResult r;
            {
                RunSetup run = setup_run(spec, nullptr);
                t1 = now_ns();
                r = sim::run_simulation(run.workload(), *run.policy,
                                        *run.machine, spec.engine);
                t2 = now_ns();
            }
            // wall_s includes tearing down the run's objects.
            const double wall_s = seconds_since(t0);
            const std::string summary = summarize(r);
            const bool differs =
                summary != references[k] || r.accesses != spec.accesses;
            lines[w].push_back(
                JsonLine("repeat")
                    .add("setup_s", static_cast<double>(t1 - t0) * 1e-9)
                    .add("loop_s", static_cast<double>(t2 - t1) * 1e-9)
                    .add("wall_s", wall_s)
                    .add("accesses", r.accesses)
                    .add("runtime_ns",
                         static_cast<std::uint64_t>(r.runtime_ns))
                    .add("acc_fast", r.totals.accesses[0])
                    .add("seed_index", indices[k])
                    .add("ops", std::uint64_t{1})
                    .add("failed", static_cast<std::uint64_t>(differs))
                    .str());
            if (differs) {
                errors[w] += "perfbench: seed index " +
                             std::to_string(indices[k]) +
                             " differs from its reference run\n  got  " +
                             summary + "\n  want " + references[k] + "\n";
            }
        }
    };
    std::vector<std::thread> threads;
    for (unsigned w = 0; w < workers; ++w) {
        threads.emplace_back([&, w] {
            try {
                work(w);
            } catch (const std::exception& e) {
                errors[w] += std::string("perfbench: worker failed: ") +
                             e.what() + "\n";
                lines[w].push_back(JsonLine("error")
                                       .add("ops", std::uint64_t{1})
                                       .add("failed", std::uint64_t{1})
                                       .str());
            }
        });
    }
    for (auto& thread : threads)
        thread.join();
    for (unsigned w = 0; w < workers; ++w) {
        std::cerr << errors[w];
        for (const auto& line : lines[w])
            std::cout << line << "\n";
    }
    std::cout << std::flush;
}

/** Per-job summaries of one sweep, in job order. */
std::vector<std::string>
summarize_all(const std::vector<sim::RunResult>& runs)
{
    std::vector<std::string> out;
    out.reserve(runs.size());
    for (const auto& r : runs)
        out.push_back(summarize(r));
    return out;
}

/** Timed repeats of the fig7 grid. */
void
timed_grid(const Options& opt)
{
    const unsigned workers = worker_count();
    std::vector<std::string> reference;
    const std::int64_t begin = now_ns();
    std::uint64_t repeats = 0;
    while (repeats < 2 || seconds_since(begin) < opt.seconds) {
        // Set-up takes well under a millisecond, so each repeat sets up
        // several times and reports the median.
        std::vector<std::int64_t> setups;
        sweep::SweepSpec spec;
        for (int i = 0; i < kGridSetups; ++i) {
            const std::int64_t t0 = now_ns();
            spec = fig7_spec(opt.seed);
            setups.push_back(now_ns() - t0);
        }
        std::nth_element(setups.begin(), setups.begin() + kGridSetups / 2,
                         setups.end());
        const double setup_s =
            static_cast<double>(setups[kGridSetups / 2]) * 1e-9;
        sweep::SweepRunner runner({.jobs = workers, .progress = false});
        const std::int64_t t1 = now_ns();
        const auto runs = runner.run(spec);
        const std::int64_t t2 = now_ns();
        std::uint64_t accesses = 0;
        std::uint64_t acc_fast = 0;
        std::uint64_t runtime_ns = 0;
        for (const auto& r : runs) {
            accesses += r.accesses;
            acc_fast += r.totals.accesses[0];
            runtime_ns += r.runtime_ns;
        }
        auto summaries = summarize_all(runs);
        if (reference.empty())
            reference = summaries;
        std::uint64_t failed = 0;
        for (std::size_t i = 0; i < summaries.size(); ++i) {
            if (summaries[i] != reference[i] ||
                runs[i].accesses != spec.jobs[i].spec.accesses) {
                ++failed;
                std::cerr << "perfbench: grid job " << i
                          << " differs from the first repeat\n";
            }
        }
        const double loop_s = static_cast<double>(t2 - t1) * 1e-9;
        JsonLine("repeat")
            .add("setup_s", setup_s)
            .add("loop_s", loop_s)
            .add("wall_s", setup_s + loop_s)
            .add("accesses", accesses)
            .add("runtime_ns", runtime_ns)
            .add("acc_fast", acc_fast)
            .add("ops", static_cast<std::uint64_t>(runs.size()))
            .add("failed", failed)
            .print();
        ++repeats;
    }
}

/** Write every trace to the spans file (TSV with a header row). */
void
write_spans(const std::string& path, const std::vector<RunTrace>& traces,
            const std::vector<std::string>& labels)
{
    std::ofstream out(path);
    out << "pass\trun\tid\tparent\tname\tlabel\tstart_ns\tend_ns\n";
    for (const auto& trace : traces)
        trace.write(out, labels);
    out.flush();
    if (!out)
        fatal("cannot write spans to ", path);
}

/** Report a traced run's fidelity and audit outcome; returns failed. */
std::uint64_t
check_traced(const TracedResult& traced, const std::string& reference,
             const char* what)
{
    if (!traced.violation.empty()) {
        std::cerr << "perfbench: " << what << ": invariant audit tripped: "
                  << traced.violation << "\n";
        return 1;
    }
    if (summarize(traced.result) != reference) {
        std::cerr << "perfbench: " << what
                  << ": traced summary differs from run_experiment\n  got  "
                  << summarize(traced.result) << "\n  want " << reference
                  << "\n";
        return 1;
    }
    return 0;
}

void
traced_single(const Options& opt)
{
    const sim::RunSpec spec =
        single_run_spec(opt.workload, run_seed(opt.seed, 0));
    std::vector<RunTrace> traces;
    std::string first_reference;
    const std::int64_t begin = now_ns();
    std::uint32_t pass = 0;
    while (pass < 1 ||
           (pass < kMaxTracedPasses && seconds_since(begin) < opt.seconds)) {
        ++pass;
        const std::int64_t t0 = now_ns();
        const std::string reference = summarize(sim::run_experiment(spec));
        const double untraced_s = seconds_since(t0);
        if (first_reference.empty())
            first_reference = reference;
        std::uint64_t failed = reference != first_reference ? 1 : 0;
        if (failed != 0)
            std::cerr << "perfbench: untraced pass " << pass
                      << " differs from the first pass\n";

        const std::int64_t t1 = now_ns();
        RunTrace& trace = traces.emplace_back(pass, pass, kRun);
        const TracedResult traced = traced_run(spec, trace);
        const double traced_s = seconds_since(t1);
        failed += check_traced(traced, reference, "traced run");
        LayerCounts counts;
        counts.add(traced);
        JsonLine("pass")
            .add("pass", std::uint64_t{pass})
            .add("untraced_wall_s", untraced_s)
            .add("traced_wall_s", traced_s)
            .add("workers", std::uint64_t{1})
            .add("ops", std::uint64_t{2})
            .add("failed", failed)
            .raw("counters", counts.json())
            .print();
    }
    write_spans(opt.spans_path, traces, {"-"});
}

void
traced_grid(const Options& opt)
{
    const unsigned workers = worker_count();
    const sweep::SweepSpec spec = fig7_spec(opt.seed);
    const std::size_t n = spec.jobs.size();
    // Label table: "-" then one entry per policy name.
    std::vector<std::string> labels = {"-"};
    std::vector<std::uint16_t> job_label(n);
    for (std::size_t i = 0; i < n; ++i) {
        const std::string& policy = spec.jobs[i].spec.policy;
        auto it = std::find(labels.begin(), labels.end(), policy);
        if (it == labels.end())
            it = labels.insert(labels.end(), policy);
        job_label[i] = static_cast<std::uint16_t>(it - labels.begin());
    }

    std::vector<RunTrace> traces;
    std::vector<std::string> first_reference;
    const std::int64_t begin = now_ns();
    std::uint32_t pass = 0;
    std::uint32_t next_run = 1;
    while (pass < 1 ||
           (pass < kMaxTracedPasses && seconds_since(begin) < opt.seconds)) {
        ++pass;
        // Untraced sweep: the default runner, with only each job's
        // run_experiment call timed from the outside.
        std::vector<std::int64_t> start(n);
        std::vector<std::int64_t> end(n);
        sweep::SweepSpec timed;
        for (std::size_t i = 0; i < n; ++i) {
            timed.add_run(spec.jobs[i].labels, [&, i] {
                start[i] = now_ns();
                sim::RunResult r = sweep::run_job(spec.jobs[i]);
                end[i] = now_ns();
                return r;
            });
        }
        RunTrace& sweep_trace =
            traces.emplace_back(pass, next_run++, kSweepRun);
        const std::int64_t t0 = now_ns();
        const auto runs =
            sweep::SweepRunner({.jobs = workers, .progress = false})
                .run(timed);
        const double untraced_s = seconds_since(t0);
        sweep_trace.finish();
        for (std::size_t i = 0; i < n; ++i)
            sweep_trace.child(kSweepJob, job_label[i], start[i], end[i]);

        const auto reference = summarize_all(runs);
        if (first_reference.empty())
            first_reference = reference;
        std::uint64_t failed = 0;
        for (std::size_t i = 0; i < n; ++i) {
            if (reference[i] != first_reference[i]) {
                ++failed;
                std::cerr << "perfbench: grid job " << i
                          << " differs from the first pass\n";
            }
        }

        // Traced sweep: every job through traced_run, one trace each.
        const std::size_t first = traces.size();
        for (std::size_t i = 0; i < n; ++i)
            traces.emplace_back();  // filled on the worker thread
        std::vector<TracedResult> traced(n);
        sweep::SweepSpec traced_spec;
        for (std::size_t i = 0; i < n; ++i) {
            const std::uint32_t run = next_run++;
            traced_spec.add_run(spec.jobs[i].labels, [&, i, run] {
                RunTrace& trace = traces[first + i];
                trace = RunTrace(pass, run, kRun);
                traced[i] = traced_run(spec.jobs[i].spec, trace);
                return sim::RunResult{};
            });
        }
        const std::int64_t t1 = now_ns();
        (void)sweep::SweepRunner({.jobs = workers, .progress = false})
            .run(traced_spec);
        const double traced_s = seconds_since(t1);

        LayerCounts counts;
        for (std::size_t i = 0; i < n; ++i) {
            failed += check_traced(traced[i], reference[i], "grid job");
            counts.add(traced[i]);
        }
        JsonLine("pass")
            .add("pass", std::uint64_t{pass})
            .add("untraced_wall_s", untraced_s)
            .add("traced_wall_s", traced_s)
            .add("workers", std::uint64_t{workers})
            .add("ops", static_cast<std::uint64_t>(2 * n))
            .add("failed", failed)
            .raw("counters", counts.json())
            .print();
    }
    write_spans(opt.spans_path, traces, labels);
}

std::string
cpu_model()
{
#if defined(__x86_64__) || defined(__i386__)
    unsigned regs[12] = {};
    if (__get_cpuid_max(0x80000000, nullptr) >= 0x80000004) {
        for (unsigned leaf = 0; leaf < 3; ++leaf) {
            __get_cpuid(0x80000002 + leaf, &regs[leaf * 4],
                        &regs[leaf * 4 + 1], &regs[leaf * 4 + 2],
                        &regs[leaf * 4 + 3]);
        }
        std::string brand(reinterpret_cast<const char*>(regs),
                          sizeof(regs));
        brand = brand.substr(0, brand.find('\0'));
        const auto first = brand.find_first_not_of(' ');
        return first == std::string::npos ? "unknown" : brand.substr(first);
    }
#endif
    return "unknown";
}

}  // namespace

int
main(int argc, char** argv)
{
    const auto args = CliArgs::parse(argc, argv);
    for (const auto& name : args.flag_names()) {
        if (name != "workload" && name != "seed" && name != "seconds" &&
            name != "mode" && name != "spans")
            fatal("unknown flag --", name);
    }
    Options opt;
    opt.workload = args.get_string("workload", "");
    opt.seed = static_cast<std::uint64_t>(args.get_int("seed", 1));
    opt.seconds = args.get_double("seconds", 1.0);
    opt.mode = args.get_string("mode", "timed");
    opt.spans_path = args.get_string("spans", "");
    if (opt.mode != "timed" && opt.mode != "traced")
        fatal("--mode must be 'timed' or 'traced'");
    if (opt.mode == "traced" && opt.spans_path.empty())
        fatal("--mode=traced needs --spans=FILE");
    const bool grid = opt.workload == "fig7_grid";
    if (!grid)
        (void)single_run_spec(opt.workload, opt.seed);  // validates name

    JsonLine("host")
        .add("nproc", std::uint64_t{worker_count()})
        .add("cpu", cpu_model())
        .add("build", PERFBENCH_BUILD_TYPE)
        .add("workload", opt.workload)
        .add("seed", opt.seed)
        .add("mode", opt.mode)
        .print();

    if (opt.mode == "timed")
        grid ? timed_grid(opt) : timed_single(opt);
    else
        grid ? traced_grid(opt) : traced_single(opt);

    rusage usage{};
    getrusage(RUSAGE_SELF, &usage);
    JsonLine("end")
        .add("peak_rss_kb", static_cast<std::uint64_t>(usage.ru_maxrss))
        .print();
    return 0;
}
