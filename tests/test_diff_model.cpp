/**
 * @file
 * Differential harness for the batched hot path (DESIGN.md §9).
 *
 * The engine's inner loop was rewritten from one-access-at-a-time calls
 * into TieredMachine::access_batch() / access_batch_faulted(), which
 * shadow the clock and per-tier counters in locals. The overhaul's
 * contract is *bit-identity*: every observable state — simulated time,
 * counters, per-page flags, the PEBS sample stream, and the fault
 * injector's draw schedule — must match the old scalar semantics
 * exactly. This file enforces the contract three ways:
 *
 *  1. Lockstep oracle: two identically configured machines run the
 *     same seeded access stream — one through the retained scalar
 *     access() sequence (the pre-overhaul engine loop, kept verbatim
 *     below), one through access_batch(); full state is compared every
 *     decision interval, across all built-in fault scenarios, with
 *     trap storms and a re-entrant promotion fault handler thrown in.
 *
 *  2. Naive model: an independent single-stepping reference model of
 *     TieredMachine (separate plain arrays instead of packed flags, its
 *     own FaultInjector replica, a deque-based sampler) is stepped one
 *     access at a time and compared against the batched machine.
 *
 *  3. Policy-side structures: EmaBins and LruLists — whose record/touch
 *     paths were inlined for the overhaul — are checked against naive
 *     histogram/std::list models while consuming a batched run's
 *     drained samples.
 *
 *  4. ArtMem's promotion-candidate walk, which stops early on a per-bin
 *     census of the slow lists, is checked against a naive full walk
 *     at every decision interval of whole runs.
 *
 * Plus the Zipf fast path: the guided rank-table lookup must agree with
 * the Gray et al. closed form on every draw and at every bracket end.
 */
#include <gtest/gtest.h>

#include <algorithm>
#include <bit>
#include <cstdint>
#include <deque>
#include <list>
#include <memory>
#include <string_view>
#include <vector>

#include "core/artmem.hpp"
#include "lru/lru_lists.hpp"
#include "memsim/fault_injector.hpp"
#include "memsim/pebs.hpp"
#include "memsim/tiered_machine.hpp"
#include "policies/autotiering.hpp"
#include "policies/policy.hpp"
#include "sim/experiment.hpp"
#include "stats/ema_bins.hpp"
#include "util/rng.hpp"
#include "util/zipf.hpp"
#include "verify/invariant_checker.hpp"

#include "artmem_peer.hpp"
#include "autotiering_peer.hpp"

namespace artmem {
namespace {

using memsim::FaultConfig;
using memsim::FaultInjector;
using memsim::MachineConfig;
using memsim::PebsSample;
using memsim::PebsSampler;
using memsim::Tier;
using memsim::TieredMachine;

constexpr std::size_t kPages = 1024;
constexpr std::size_t kFastPages = 256;

MachineConfig
small_machine()
{
    MachineConfig cfg;
    cfg.page_size = 2ull << 20;
    cfg.address_space = kPages * cfg.page_size;
    cfg.tiers[0].capacity = kFastPages * cfg.page_size;
    cfg.tiers[1].capacity = kPages * cfg.page_size;
    return cfg;
}

/**
 * The engine's pre-overhaul scalar inner loop, kept verbatim as the
 * slow oracle: access() advances the clock and fires traps; the
 * suppression draw happens after the access at the post-access (and
 * post-trap) timestamp; the sample records the pre-handler tier.
 */
void
scalar_accesses(TieredMachine& m, PebsSampler& sampler, const PageId* pages,
                std::size_t n, std::uint64_t& pebs_suppressed)
{
    FaultInjector* inj = m.fault_injector();
    for (std::size_t i = 0; i < n; ++i) {
        const Tier tier = m.access(pages[i]);
        if (inj != nullptr) {
            if (inj->sample_suppressed(m.now()))
                ++pebs_suppressed;
            else
                sampler.observe(pages[i], tier);
        } else {
            sampler.observe(pages[i], tier);
        }
    }
}

void
expect_counters_equal(const TieredMachine::Counters& a,
                      const TieredMachine::Counters& b)
{
    EXPECT_EQ(a.accesses[0], b.accesses[0]);
    EXPECT_EQ(a.accesses[1], b.accesses[1]);
    EXPECT_EQ(a.hint_faults, b.hint_faults);
    EXPECT_EQ(a.promoted_pages, b.promoted_pages);
    EXPECT_EQ(a.demoted_pages, b.demoted_pages);
    EXPECT_EQ(a.exchanges, b.exchanges);
    EXPECT_EQ(a.migration_busy_ns, b.migration_busy_ns);
    EXPECT_EQ(a.overhead_ns, b.overhead_ns);
    EXPECT_EQ(a.failed_no_slot, b.failed_no_slot);
    EXPECT_EQ(a.failed_pinned, b.failed_pinned);
    EXPECT_EQ(a.failed_transient, b.failed_transient);
    EXPECT_EQ(a.failed_contended, b.failed_contended);
    EXPECT_EQ(a.aborted_migration_ns, b.aborted_migration_ns);
}

void
expect_machines_equal(const TieredMachine& a, const TieredMachine& b)
{
    ASSERT_EQ(a.now(), b.now());
    for (int t = 0; t < memsim::kTierCount; ++t) {
        const auto tier = static_cast<Tier>(t);
        EXPECT_EQ(a.used_pages(tier), b.used_pages(tier));
        EXPECT_EQ(a.free_pages(tier), b.free_pages(tier));
    }
    expect_counters_equal(a.totals(), b.totals());
    for (PageId p = 0; p < a.page_count(); ++p) {
        ASSERT_EQ(a.is_allocated(p), b.is_allocated(p)) << "page " << p;
        ASSERT_EQ(a.accessed(p), b.accessed(p)) << "page " << p;
        ASSERT_EQ(a.has_trap(p), b.has_trap(p)) << "page " << p;
        if (a.is_allocated(p)) {
            ASSERT_EQ(a.tier_of(p), b.tier_of(p)) << "page " << p;
        }
    }
    const FaultInjector* fa = a.fault_injector();
    const FaultInjector* fb = b.fault_injector();
    ASSERT_EQ(fa == nullptr, fb == nullptr);
    if (fa != nullptr && fb != nullptr) {
        EXPECT_EQ(fa->draws(), fb->draws());
        EXPECT_EQ(fa->transient_aborts(), fb->transient_aborts());
        EXPECT_EQ(fa->contended_hits(), fb->contended_hits());
        EXPECT_EQ(fa->suppressed_samples(), fb->suppressed_samples());
    }
}

void
expect_samples_equal(const std::vector<PebsSample>& a,
                     const std::vector<PebsSample>& b)
{
    ASSERT_EQ(a.size(), b.size());
    for (std::size_t i = 0; i < a.size(); ++i) {
        ASSERT_EQ(a[i].page, b[i].page) << "sample " << i;
        ASSERT_EQ(a[i].tier, b[i].tier) << "sample " << i;
    }
}

/** One hint-fault record; logged by both machines' handlers. */
struct TrapEvent {
    PageId page;
    Tier tier;
    SimTimeNs now;

    bool operator==(const TrapEvent&) const = default;
};

/**
 * Drives the scalar oracle and the batched machine in lockstep over one
 * fault scenario, interleaving migrations, exchanges, trap arming, and
 * accessed-bit scans between intervals, and comparing complete state at
 * every interval boundary.
 */
void
run_lockstep_scenario(std::string_view scenario, std::uint64_t seed)
{
    TieredMachine scalar(small_machine());
    TieredMachine batched(small_machine());
    const FaultConfig faults = memsim::make_fault_scenario(scenario, 7);
    scalar.install_faults(faults);
    batched.install_faults(faults);

    // Re-entrant handler, as AutoNUMA-style policies install: promote
    // the faulting page on the spot. Inside access_batch() this forces
    // the local clock/counter flush-and-reload protocol.
    std::vector<TrapEvent> scalar_traps;
    std::vector<TrapEvent> batched_traps;
    scalar.set_fault_handler([&](PageId page, Tier tier) {
        scalar_traps.push_back({page, tier, scalar.now()});
        if (tier == Tier::kSlow)
            (void)scalar.migrate(page, Tier::kFast);
    });
    batched.set_fault_handler([&](PageId page, Tier tier) {
        batched_traps.push_back({page, tier, batched.now()});
        if (tier == Tier::kSlow)
            (void)batched.migrate(page, Tier::kFast);
    });

    // Small buffer so overflow drops are exercised too.
    const PebsSampler::Config sampler_cfg{.period = 7,
                                          .buffer_capacity = 1 << 8};
    PebsSampler scalar_sampler(sampler_cfg);
    PebsSampler batched_sampler(sampler_cfg);
    std::uint64_t scalar_suppressed = 0;
    std::uint64_t batched_suppressed = 0;

    Rng stream(seed);
    Rng ops(derive_seed(seed, 1));
    std::vector<PageId> batch;
    std::vector<PebsSample> scalar_drained;
    std::vector<PebsSample> batched_drained;

    for (int interval = 0; interval < 64; ++interval) {
        SCOPED_TRACE(testing::Message()
                     << "scenario=" << scenario << " seed=" << seed
                     << " interval=" << interval);

        // One interval: a few variable-sized batches of a hot/cold mix.
        for (int chunk = 0; chunk < 4; ++chunk) {
            const std::size_t n = 1 + stream.next_below(257);
            batch.clear();
            for (std::size_t i = 0; i < n; ++i) {
                const bool hot = stream.next_bool(0.7);
                batch.push_back(static_cast<PageId>(
                    hot ? stream.next_below(128)
                        : stream.next_below(kPages)));
            }
            scalar_accesses(scalar, scalar_sampler, batch.data(), n,
                            scalar_suppressed);
            if (batched.faults_enabled()) {
                batched.access_batch_faulted(batch.data(), n,
                                             batched_sampler,
                                             batched_suppressed);
            } else {
                batched.access_batch(batch.data(), n, batched_sampler);
            }
        }

        // Decision-interval work, applied identically to both machines.
        for (int i = 0; i < 8; ++i) {
            const auto page =
                static_cast<PageId>(ops.next_below(kPages));
            if (!scalar.is_allocated(page))
                continue;
            const Tier dst = scalar.tier_of(page) == Tier::kFast
                                 ? Tier::kSlow
                                 : Tier::kFast;
            const auto status = scalar.migrate(page, dst).status;
            EXPECT_EQ(status, batched.migrate(page, dst).status);
        }
        const auto a = static_cast<PageId>(ops.next_below(kPages));
        const auto b = static_cast<PageId>(ops.next_below(kPages));
        if (scalar.is_allocated(a) && scalar.is_allocated(b)) {
            EXPECT_EQ(scalar.exchange(a, b).status,
                      batched.exchange(a, b).status);
        }
        for (int i = 0; i < 16; ++i) {
            const auto page =
                static_cast<PageId>(ops.next_below(kPages));
            scalar.set_trap(page);
            batched.set_trap(page);
        }
        for (int i = 0; i < 16; ++i) {
            const auto page =
                static_cast<PageId>(ops.next_below(kPages));
            EXPECT_EQ(scalar.test_and_clear_accessed(page),
                      batched.test_and_clear_accessed(page));
        }

        // Full-state comparison at the interval boundary.
        scalar_drained.clear();
        batched_drained.clear();
        scalar_sampler.drain(scalar_drained, 1 << 12);
        batched_sampler.drain(batched_drained, 1 << 12);
        expect_samples_equal(scalar_drained, batched_drained);
        EXPECT_EQ(scalar_sampler.recorded(), batched_sampler.recorded());
        EXPECT_EQ(scalar_sampler.dropped(), batched_sampler.dropped());
        EXPECT_EQ(scalar_suppressed, batched_suppressed);
        ASSERT_EQ(scalar_traps, batched_traps);
        expect_machines_equal(scalar, batched);
        if (interval % 4 == 3) {
            expect_counters_equal(scalar.take_window(),
                                  batched.take_window());
        }
        if (testing::Test::HasFailure())
            return;  // one divergence floods everything downstream
    }
}

TEST(DiffModel, BatchMatchesScalarOracleAcrossFaultScenarios)
{
    for (const auto scenario : memsim::fault_scenario_names())
        for (const std::uint64_t seed : {3ull, 17ull})
            run_lockstep_scenario(scenario, seed);
}

// ---------------------------------------------------------------------
// Naive single-stepping reference model of TieredMachine.
// ---------------------------------------------------------------------

/**
 * Re-implements the access-path semantics with plain per-page arrays
 * (no packed flag bytes, no batching, no local shadowing): first-touch
 * allocation with co-tenant pressure, latency charging through its own
 * FaultInjector replica, accessed bits, trap firing, and a deque-based
 * PEBS model. Valid as long as only accesses and traps run — the only
 * injector draws are then the per-access suppression draws, so the
 * replica injector stays in sync with the machine's by construction.
 */
struct NaiveMachine {
    MachineConfig cfg;
    std::vector<bool> allocated;
    std::vector<bool> slow;  // tier bit
    std::vector<bool> accessed;
    std::vector<bool> trap;
    std::size_t used[2] = {0, 0};
    SimTimeNs now = 0;
    std::uint64_t acc[2] = {0, 0};
    std::uint64_t hint_faults = 0;
    std::unique_ptr<FaultInjector> inj;

    // Deque model of PebsSampler's counter + bounded buffer.
    std::uint32_t period;
    std::uint32_t countdown;
    std::size_t buffer_cap;
    std::deque<PebsSample> buffer;
    std::uint64_t recorded = 0;
    std::uint64_t dropped = 0;
    std::uint64_t suppressed = 0;

    NaiveMachine(const MachineConfig& machine_cfg, const FaultConfig& fc,
                 const PebsSampler::Config& sc)
        : cfg(machine_cfg),
          allocated(kPages, false),
          slow(kPages, false),
          accessed(kPages, false),
          trap(kPages, false),
          period(sc.period),
          countdown(sc.period),
          buffer_cap(sc.buffer_capacity)
    {
        if (fc.any_enabled())
            inj = std::make_unique<FaultInjector>(
                fc, cfg.fast_capacity_pages());
    }

    std::size_t
    free_fast() const
    {
        const std::size_t reserved =
            inj != nullptr ? inj->reserved_fast_pages(now) : 0;
        const std::size_t taken = used[0] + reserved;
        const std::size_t cap = cfg.fast_capacity_pages();
        return cap > taken ? cap - taken : 0;
    }

    void
    step(PageId page)
    {
        if (!allocated[page]) {
            int t = free_fast() > 0 ? 0 : 1;
            if (t == 1 && used[1] >= cfg.slow_capacity_pages())
                t = 0;
            ++used[t];
            allocated[page] = true;
            slow[page] = t == 1;
            // allocate() rewrites the whole flags byte, so a trap armed
            // on a never-touched page is dropped on first touch.
            trap[page] = false;
        }
        const int t = slow[page] ? 1 : 0;
        const auto tier = static_cast<Tier>(t);
        accessed[page] = true;
        const SimTimeNs base = cfg.tiers[t].load_latency_ns;
        now += inj != nullptr ? inj->effective_latency(tier, base, now)
                              : base;
        ++acc[t];
        if (trap[page]) {
            trap[page] = false;
            now += cfg.hint_fault_cost_ns;
            ++hint_faults;
        }
        if (inj != nullptr && inj->sample_suppressed(now)) {
            ++suppressed;
            return;
        }
        if (--countdown == 0) {
            countdown = period;
            ++recorded;
            if (buffer.size() < buffer_cap)
                buffer.push_back({page, tier});
            else
                ++dropped;
        }
    }
};

void
run_naive_model_scenario(std::string_view scenario, std::uint64_t seed)
{
    const MachineConfig cfg = small_machine();
    const FaultConfig faults = memsim::make_fault_scenario(scenario, 11);
    const PebsSampler::Config sampler_cfg{.period = 5,
                                          .buffer_capacity = 1 << 8};

    TieredMachine machine(cfg);
    machine.install_faults(faults);
    std::uint64_t machine_trap_count = 0;
    machine.set_fault_handler(
        [&](PageId, Tier) { ++machine_trap_count; });
    PebsSampler sampler(sampler_cfg);
    std::uint64_t machine_suppressed = 0;

    NaiveMachine model(cfg, faults, sampler_cfg);

    Rng stream(seed);
    Rng ops(derive_seed(seed, 2));
    std::vector<PageId> batch;
    std::vector<PebsSample> drained;

    for (int interval = 0; interval < 64; ++interval) {
        SCOPED_TRACE(testing::Message()
                     << "scenario=" << scenario << " seed=" << seed
                     << " interval=" << interval);
        const std::size_t n = 1 + stream.next_below(513);
        batch.clear();
        for (std::size_t i = 0; i < n; ++i)
            batch.push_back(
                static_cast<PageId>(stream.next_below(kPages)));

        for (const PageId page : batch)
            model.step(page);
        if (machine.faults_enabled())
            machine.access_batch_faulted(batch.data(), n, sampler,
                                         machine_suppressed);
        else
            machine.access_batch(batch.data(), n, sampler);

        // Arm traps identically (accesses only; no migrations, so the
        // replica injector's draw stream stays aligned).
        for (int i = 0; i < 8; ++i) {
            const auto page =
                static_cast<PageId>(ops.next_below(kPages));
            machine.set_trap(page);
            model.trap[page] = true;
        }

        ASSERT_EQ(machine.now(), model.now);
        EXPECT_EQ(machine.totals().accesses[0], model.acc[0]);
        EXPECT_EQ(machine.totals().accesses[1], model.acc[1]);
        EXPECT_EQ(machine.totals().hint_faults, model.hint_faults);
        EXPECT_EQ(machine_trap_count, model.hint_faults);
        EXPECT_EQ(machine.used_pages(Tier::kFast), model.used[0]);
        EXPECT_EQ(machine.used_pages(Tier::kSlow), model.used[1]);
        EXPECT_EQ(machine_suppressed, model.suppressed);
        EXPECT_EQ(sampler.recorded(), model.recorded);
        EXPECT_EQ(sampler.dropped(), model.dropped);
        for (PageId p = 0; p < kPages; ++p) {
            ASSERT_EQ(machine.is_allocated(p), model.allocated[p])
                << "page " << p;
            ASSERT_EQ(machine.accessed(p), model.accessed[p])
                << "page " << p;
            ASSERT_EQ(machine.has_trap(p), model.trap[p]) << "page " << p;
            if (model.allocated[p]) {
                ASSERT_EQ(machine.tier_of(p),
                          model.slow[p] ? Tier::kSlow : Tier::kFast)
                    << "page " << p;
            }
        }
        drained.clear();
        sampler.drain(drained, 1 << 12);
        ASSERT_EQ(drained.size(), model.buffer.size());
        for (std::size_t i = 0; i < drained.size(); ++i) {
            ASSERT_EQ(drained[i].page, model.buffer[i].page);
            ASSERT_EQ(drained[i].tier, model.buffer[i].tier);
        }
        model.buffer.clear();
        if (testing::Test::HasFailure())
            return;
    }
}

TEST(DiffModel, NaiveSingleStepModelMatchesBatchedMachine)
{
    for (const auto scenario : memsim::fault_scenario_names())
        run_naive_model_scenario(scenario, 23);
}

// ---------------------------------------------------------------------
// Policy-side structures: EmaBins + LruLists vs naive models.
// ---------------------------------------------------------------------

TEST(DiffModel, EmaBinsAndLruListsMatchNaiveModels)
{
    // Drive a batched machine, feed its drained samples to the real
    // EmaBins + LruLists (their hot paths are inlined for §9) and to
    // naive models: a plain count vector with a from-scratch histogram
    // rebuild, and four std::lists.
    const std::uint64_t seed = 31;
    TieredMachine machine(small_machine());
    PebsSampler sampler({.period = 3, .buffer_capacity = 1 << 12});

    stats::EmaBins bins(kPages, 4096);
    lru::LruLists lists(kPages);
    std::vector<std::uint32_t> naive_counts(kPages, 0);
    std::list<PageId> naive_lists[4];
    std::vector<bool> naive_referenced(kPages, false);

    const auto naive_list_of = [&](PageId page) {
        for (int l = 0; l < 4; ++l)
            for (const PageId p : naive_lists[l])
                if (p == page)
                    return l;
        return 4;  // kNone
    };
    const auto naive_touch = [&](PageId page, Tier tier) {
        const int active = tier == Tier::kFast ? 0 : 2;
        const int inactive = active + 1;
        const int current = naive_list_of(page);
        if (current == 4) {
            naive_referenced[page] = true;
            naive_lists[inactive].push_front(page);
            return;
        }
        naive_lists[current].remove(page);
        if (current == 0 || current == 2) {  // was on an active list
            naive_referenced[page] = true;
            naive_lists[active].push_front(page);
        } else if (naive_referenced[page]) {
            naive_referenced[page] = false;
            naive_lists[active].push_front(page);
        } else {
            naive_referenced[page] = true;
            naive_lists[inactive].push_front(page);
        }
    };

    Rng stream(seed);
    std::vector<PageId> batch;
    std::vector<PebsSample> drained;
    for (int interval = 0; interval < 48; ++interval) {
        SCOPED_TRACE(testing::Message()
                     << "seed=" << seed << " interval=" << interval);
        const std::size_t n = 1 + stream.next_below(1025);
        batch.clear();
        for (std::size_t i = 0; i < n; ++i) {
            const bool hot = stream.next_bool(0.6);
            batch.push_back(static_cast<PageId>(
                hot ? stream.next_below(64) : stream.next_below(kPages)));
        }
        machine.access_batch(batch.data(), n, sampler);
        drained.clear();
        sampler.drain(drained, 1 << 12);
        for (const auto& s : drained) {
            bins.record(s.page);
            if (naive_counts[s.page] < (1u << (stats::EmaBins::kBins - 1)))
                ++naive_counts[s.page];
            lists.touch(s.page, s.tier);
            naive_touch(s.page, s.tier);
        }
        if (bins.cooling_due()) {
            bins.cool();
            for (auto& c : naive_counts)
                c >>= 1;
        }
        // Exercise the aging/scan paths on both models every so often.
        if (interval % 8 == 7) {
            for (const Tier tier : {Tier::kFast, Tier::kSlow}) {
                const int active = tier == Tier::kFast ? 0 : 2;
                const int inactive = active + 1;
                const std::size_t scans = 16;
                const std::size_t deactivated =
                    lists.age_active(tier, scans);
                std::size_t naive_deactivated = 0;
                for (std::size_t i = 0;
                     i < scans && !naive_lists[active].empty(); ++i) {
                    const PageId page = naive_lists[active].back();
                    naive_lists[active].pop_back();
                    if (naive_referenced[page]) {
                        naive_referenced[page] = false;
                        naive_lists[active].push_front(page);
                    } else {
                        naive_lists[inactive].push_front(page);
                        ++naive_deactivated;
                    }
                }
                EXPECT_EQ(deactivated, naive_deactivated);
            }
        }

        // Compare: per-page EMA counts plus the bin histogram rebuilt
        // from scratch, then exact list order head -> tail.
        std::uint64_t naive_bins[stats::EmaBins::kBins] = {};
        for (PageId p = 0; p < kPages; ++p) {
            ASSERT_EQ(bins.count(p), naive_counts[p]) << "page " << p;
            ++naive_bins[stats::EmaBins::bin_of(naive_counts[p])];
        }
        for (int b = 0; b < stats::EmaBins::kBins; ++b)
            ASSERT_EQ(bins.bin_pages(b), naive_bins[b]) << "bin " << b;
        for (int l = 0; l < 4; ++l) {
            const auto list = static_cast<lru::ListId>(l);
            ASSERT_EQ(lists.size(list), naive_lists[l].size())
                << "list " << l;
            PageId page = lists.head(list);
            for (const PageId expected : naive_lists[l]) {
                ASSERT_EQ(page, expected) << "list " << l;
                ASSERT_EQ(lists.where(page), list);
                ASSERT_EQ(lists.referenced(page),
                          naive_referenced[page]);
                page = lists.next(page);
            }
            ASSERT_EQ(page, kInvalidPage) << "list " << l;
        }
        if (testing::Test::HasFailure())
            return;
    }
}

// ---------------------------------------------------------------------
// ArtMem promotion candidates: census-bounded walk vs a full walk.
// ---------------------------------------------------------------------

using core::ArtMemTestPeer;

/**
 * Forwards every hook to a real ArtMem and, before and after each
 * decision interval, compares its candidate selection with a naive
 * reference over a spread of thresholds and wants. The probes only
 * read policy state, so the run itself must stay identical to a plain
 * ArtMem run (checked by the caller).
 */
class CandidateLockstep final : public policies::Policy
{
  public:
    explicit CandidateLockstep(const core::ArtMemConfig& config)
        : inner_(config)
    {
    }

    std::string_view name() const override { return inner_.name(); }

    void
    init(memsim::TieredMachine& machine) override
    {
        Policy::init(machine);
        inner_.init(machine);
    }

    void
    on_samples(std::span<const PebsSample> samples) override
    {
        inner_.on_samples(samples);
    }

    void
    on_interval(SimTimeNs now) override
    {
        compare();
        inner_.on_interval(now);
        compare();
    }

    void
    on_tx_resolved(PageId page, Tier src, Tier dst, bool committed) override
    {
        inner_.on_tx_resolved(page, src, dst, committed);
    }

    void
    set_telemetry(telemetry::Telemetry* telemetry) override
    {
        Policy::set_telemetry(telemetry);
        inner_.set_telemetry(telemetry);
    }

    std::uint64_t comparisons() const { return comparisons_; }
    std::uint64_t candidates_seen() const { return candidates_seen_; }

  private:
    bool
    eligible(PageId page, std::uint32_t threshold) const
    {
        const auto& m = machine();
        return inner_.bins().count(page) >= threshold &&
               m.is_allocated(page) && m.tier_of(page) == Tier::kSlow &&
               !ArtMemTestPeer::backed_off(inner_, page) &&
               !m.tx_page_inflight(page);
    }

    /** Every page the selection may return, in its order of preference:
     *  recency (slow active then slow inactive, each head to tail), or
     *  for the frequency-only ablation, count descending. */
    std::vector<PageId>
    naive_order(std::uint32_t threshold) const
    {
        std::vector<PageId> all;
        const auto& lists = inner_.lists();
        if (inner_.config().use_sorting) {
            for (const lru::ListId list :
                 {lru::ListId::kSlowActive, lru::ListId::kSlowInactive}) {
                for (PageId page = lists.head(list); page != kInvalidPage;
                     page = lists.next(page)) {
                    if (eligible(page, threshold))
                        all.push_back(page);
                }
            }
            return all;
        }
        for (PageId page = 0; page < machine().page_count(); ++page) {
            if (eligible(page, threshold))
                all.push_back(page);
        }
        std::stable_sort(all.begin(), all.end(), [this](PageId a, PageId b) {
            return inner_.bins().count(a) > inner_.bins().count(b);
        });
        return all;
    }

    void
    compare()
    {
        if (testing::Test::HasFatalFailure())
            return;
        ASSERT_GT(verify::InvariantChecker::check_lru_census(
                      inner_.lists(), inner_.bins(), inner_.slow_census()),
                  0u);
        const std::uint32_t current = inner_.current_threshold();
        const int bin = stats::EmaBins::bin_of(current);
        std::vector<std::uint32_t> thresholds = {
            current, inner_.config().min_threshold,
            stats::EmaBins::bin_floor(bin), 1u << 15};
        if (bin + 1 < stats::EmaBins::kBins) {
            thresholds.push_back(stats::EmaBins::bin_floor(bin + 1) - 1);
            thresholds.push_back(stats::EmaBins::bin_floor(bin + 1));
        }
        for (const std::uint32_t threshold : thresholds) {
            const std::vector<PageId> reference = naive_order(threshold);
            ArtMemTestPeer::set_threshold(inner_, threshold);
            for (const std::size_t want :
                 {std::size_t{1}, std::size_t{7}, reference.size() + 1}) {
                std::vector<PageId> got;
                ArtMemTestPeer::collect(inner_, want, got);
                const std::size_t expected =
                    std::min(want, reference.size());
                ASSERT_EQ(got.size(), expected)
                    << "threshold " << threshold << " want " << want;
                for (std::size_t i = 0; i < got.size(); ++i) {
                    if (inner_.config().use_sorting) {
                        ASSERT_EQ(got[i], reference[i])
                            << "threshold " << threshold << " rank " << i;
                    } else {
                        // Equal counts may tie in any order: compare
                        // the count sequence and each pick's eligibility.
                        ASSERT_TRUE(eligible(got[i], threshold));
                        ASSERT_EQ(inner_.bins().count(got[i]),
                                  inner_.bins().count(reference[i]))
                            << "threshold " << threshold << " rank " << i;
                    }
                }
                candidates_seen_ += got.size();
                ++comparisons_;
            }
        }
        ArtMemTestPeer::set_threshold(inner_, current);
    }

    core::ArtMem inner_;
    std::uint64_t comparisons_ = 0;
    std::uint64_t candidates_seen_ = 0;
};

struct CandidateCase {
    const char* name;
    sim::RunSpec spec;
    bool use_sorting = true;
};

void
PrintTo(const CandidateCase& c, std::ostream* os)
{
    *os << c.name;
}

sim::RunSpec
candidate_spec(const char* workload, std::uint64_t accesses)
{
    sim::RunSpec spec;
    spec.workload = workload;
    spec.policy = "artmem";
    spec.ratio = {1, 4};
    spec.accesses = accesses;
    spec.seed = 8;
    return spec;
}

std::vector<CandidateCase>
candidate_cases()
{
    std::vector<CandidateCase> cases;
    cases.push_back({"s2", candidate_spec("s2", 2000000)});
    cases.push_back({"ycsb", candidate_spec("ycsb", 2000000)});
    {
        // The tenants16_tx benchmark shape: quotas, feedback admission,
        // write aborts and a 16-slot in-flight table.
        CandidateCase c{"tenants16_tx", candidate_spec("s2", 2000000)};
        c.spec.tenancy.tenants = 16;
        c.spec.tenancy.mix = {"s2", "ycsb", "s3", "btree"};
        c.spec.tenancy.quota_share = 0.1;
        c.spec.tenancy.admission = "feedback";
        c.spec.engine.tx.enabled = true;
        c.spec.engine.tx.seed = 8;
        c.spec.engine.tx.write_ratio = 0.1;
        c.spec.engine.tx.max_inflight = 16;
        cases.push_back(c);
    }
    {
        CandidateCase c{"fault_migration", candidate_spec("s2", 2000000)};
        c.spec.engine.faults = memsim::make_fault_scenario("migration", 1);
        cases.push_back(c);
    }
    {
        CandidateCase c{"no_sorting", candidate_spec("s2", 2000000)};
        c.use_sorting = false;
        cases.push_back(c);
    }
    return cases;
}

class CandidateWalk : public ::testing::TestWithParam<CandidateCase>
{
};

TEST_P(CandidateWalk, BoundedWalkMatchesFullWalkEveryInterval)
{
    const CandidateCase& c = GetParam();
    core::ArtMemConfig config;
    config.seed = c.spec.seed;  // as sim::make_policy("artmem", seed)
    config.use_sorting = c.use_sorting;
    CandidateLockstep lockstep(config);
    const auto checked = sim::run_experiment(c.spec, lockstep);
    ASSERT_FALSE(testing::Test::HasFatalFailure());
    EXPECT_GT(lockstep.comparisons(), 0u);
    EXPECT_GT(lockstep.candidates_seen(), 0u);

    // The probes must not have perturbed the run.
    core::ArtMem plain(config);
    const auto reference = sim::run_experiment(c.spec, plain);
    EXPECT_EQ(checked.runtime_ns, reference.runtime_ns);
    EXPECT_EQ(checked.totals.promoted_pages, reference.totals.promoted_pages);
    EXPECT_EQ(checked.totals.demoted_pages, reference.totals.demoted_pages);
}

INSTANTIATE_TEST_SUITE_P(
    Runs, CandidateWalk, ::testing::ValuesIn(candidate_cases()),
    [](const auto& suite_info) {
        return std::string(suite_info.param.name);
    });

// ---------------------------------------------------------------------
// AutoTiering exchange victims: fast-page index vs a page-id walk.
// ---------------------------------------------------------------------

using policies::AutoTieringTestPeer;

/** What one victim search chose. */
struct VictimPick {
    PageId victim = kInvalidPage;
    PageId cursor_after = 0;
    std::size_t examined = 0;
};

/**
 * The page-id walk the index replaced: visit ids cyclically from
 * @p cursor until @p victim_scan allocated fast-tier pages were
 * examined or every id was visited once; the first minimum fault count
 * wins and the cursor stops just past the last visited id.
 */
VictimPick
naive_victim_walk(const TieredMachine& m, const policies::AutoTiering& policy,
                  PageId cursor, std::size_t victim_scan)
{
    const std::size_t pages = m.page_count();
    VictimPick pick;
    std::uint32_t coldest_count = ~0u;
    for (std::size_t i = 0; i < pages && pick.examined < victim_scan; ++i) {
        const PageId page = cursor;
        cursor = static_cast<PageId>((cursor + 1) % pages);
        if (!m.is_allocated(page) || m.tier_of(page) != Tier::kFast)
            continue;
        ++pick.examined;
        const std::uint32_t count =
            AutoTieringTestPeer::fault_count(policy, page);
        if (count < coldest_count) {
            coldest_count = count;
            pick.victim = page;
        }
    }
    pick.cursor_after = cursor;
    return pick;
}

struct VictimCase {
    const char* name;
    sim::RunSpec spec;
    /** The run exchanges pages, so searches follow in-pass swaps. */
    bool exchanges = true;
};

void
PrintTo(const VictimCase& c, std::ostream* os)
{
    *os << c.name;
}

sim::RunSpec
victim_spec(const char* workload, int slow_parts)
{
    sim::RunSpec spec;
    spec.workload = workload;
    spec.policy = "autotiering";
    spec.ratio = {1, slow_parts};
    spec.accesses = 500000;
    spec.seed = 8;
    return spec;
}

std::vector<VictimCase>
victim_cases()
{
    std::vector<VictimCase> cases;
    // cc at 1:16 searches once per queued fault but, at this length,
    // never passes the CPM margin check (ROADMAP item 1's follow-up).
    cases.push_back({"cc_1_16", victim_spec("cc", 16), false});
    {
        // Pending exchanges keep both pages dual-resident until the
        // transaction resolves.
        VictimCase c{"ycsb_tx", victim_spec("ycsb", 4)};
        c.spec.accesses = 1000000;
        c.spec.engine.tx.enabled = true;
        c.spec.engine.tx.seed = 8;
        cases.push_back(c);
    }
    {
        VictimCase c{"s2_fault_migration", victim_spec("s2", 4)};
        c.spec.engine.faults = memsim::make_fault_scenario("migration", 1);
        cases.push_back(c);
    }
    {
        VictimCase c{"tenants4_quota", victim_spec("s2", 4)};
        c.spec.accesses = 1000000;
        c.spec.tenancy.tenants = 4;
        c.spec.tenancy.quota_share = 0.3;
        cases.push_back(c);
    }
    return cases;
}

class VictimIndex : public ::testing::TestWithParam<VictimCase>
{
};

TEST_P(VictimIndex, IndexedSearchMatchesPageWalkEveryCall)
{
    const VictimCase& c = GetParam();
    policies::AutoTiering checked;
    std::uint64_t searches = 0;
    std::uint64_t found = 0;
    AutoTieringTestPeer::observe_searches(
        checked, [&](PageId cursor, PageId victim, std::size_t examined) {
            if (testing::Test::HasFatalFailure())
                return;
            // The search only moved the cursor and charged time, so
            // the machine is in the state the search read.
            const VictimPick expect = naive_victim_walk(
                AutoTieringTestPeer::machine(checked), checked, cursor,
                AutoTieringTestPeer::victim_scan(checked));
            ASSERT_EQ(victim, expect.victim) << "search " << searches;
            ASSERT_EQ(AutoTieringTestPeer::victim_cursor(checked),
                      expect.cursor_after)
                << "search " << searches;
            ASSERT_EQ(examined, expect.examined) << "search " << searches;
            ++searches;
            found += victim != kInvalidPage ? 1 : 0;
        });
    const auto result = sim::run_experiment(c.spec, checked);
    ASSERT_FALSE(testing::Test::HasFatalFailure());
    EXPECT_GT(searches, 0u);
    EXPECT_GT(found, 0u);
    if (c.exchanges) {
        EXPECT_GT(result.totals.exchanges, 0u);
    }

    // The observer must not have perturbed the run.
    policies::AutoTiering plain;
    const auto reference = sim::run_experiment(c.spec, plain);
    EXPECT_EQ(result.runtime_ns, reference.runtime_ns);
    EXPECT_EQ(result.totals.overhead_ns, reference.totals.overhead_ns);
    EXPECT_EQ(result.totals.exchanges, reference.totals.exchanges);
    EXPECT_EQ(result.totals.promoted_pages, reference.totals.promoted_pages);
}

INSTANTIATE_TEST_SUITE_P(
    Runs, VictimIndex, ::testing::ValuesIn(victim_cases()),
    [](const auto& suite_info) {
        return std::string(suite_info.param.name);
    });

// ---------------------------------------------------------------------
// Zipf fast path: bucket-table lookup vs the closed form.
// ---------------------------------------------------------------------

TEST(DiffModel, ZipfTableMatchesClosedFormOnEveryDraw)
{
    // Small n (the table covers every rank), the paper-scale skews, and
    // the six (n, theta) pairs the workloads build: ycsb, ycsb_w, cc,
    // pr, sssp (default footprints at 2 MiB pages) and btree's leaf
    // blocks. Each case builds a full table inside the fixed walk, then
    // sweeps the table deterministically: both ends of every rank's
    // bracket, one ULP either side of each, the midpoint of every
    // rank's interval, and the smallest and largest double that index
    // every guide entry, one ULP either side of each. Then two identically
    // seeded RNGs consume the same uniform u: one feeds the
    // table-backed next(), one the closed form directly.
    const struct {
        std::uint64_t n;
        double theta;
    } cases[] = {
        {100, 0.99},   {4096, 0.99},   {4096, 0.5},  {1u << 20, 0.9},
        {14745, 0.99}, {13107, 0.999}, {35328, 0.9}, {12800, 0.75},
        {11468, 0.55}, {65536, 0.2},
    };
    // The table's rank cap (src/util/zipf.cpp kTableRanks).
    constexpr std::uint64_t kTableRanks = 4096;
    const auto bits = [](double d) { return std::bit_cast<std::uint64_t>(d); };
    const auto from = [](std::uint64_t b) { return std::bit_cast<double>(b); };
    for (const auto& c : cases) {
        SCOPED_TRACE(testing::Message()
                     << "n=" << c.n << " theta=" << c.theta);
        const ZipfianGenerator zipf(c.n, c.theta);
        ASSERT_EQ(zipf.table_ranks(), std::min(c.n - 1, kTableRanks));
        ASSERT_LE(zipf.table_walk_span(), ZipfianGenerator::kWalkSteps);

        const auto boundaries = zipf.table_boundaries();
        double prev = 0.0;
        for (std::size_t r = 0; r < boundaries.size(); ++r) {
            const std::uint64_t hi = bits(boundaries[r]);
            const std::uint64_t lo = hi - zipf.table_slack();
            for (const std::uint64_t end : {lo, hi}) {
                for (const std::uint64_t b : {end - 1, end, end + 1}) {
                    const double u = from(b);
                    ASSERT_EQ(zipf.rank_for(u), zipf.rank_of(u))
                        << "rank " << r << " u=" << u;
                }
            }
            const double mid = prev + (boundaries[r] - prev) / 2;
            ASSERT_EQ(zipf.rank_for(mid), r) << "midpoint of rank " << r;
            ASSERT_EQ(zipf.rank_of(mid), r) << "midpoint of rank " << r;
            prev = boundaries[r];
        }

        // Guide entry edges, found by a bit-pattern binary search for
        // the smallest double whose index reaches each entry (the index
        // is monotone in u); entry e's largest double is one under entry
        // e+1's smallest. The last entry takes the draws under the table
        // end whose product rounds up to the grid size.
        const double scale = zipf.table_guide_scale();
        const std::uint64_t end_bits = bits(boundaries.back());
        const auto first_reaching = [&](std::size_t e) {
            std::uint64_t lo = 0;
            std::uint64_t hi = end_bits;
            while (lo < hi) {
                const std::uint64_t mid = lo + (hi - lo) / 2;
                if (static_cast<std::size_t>(from(mid) * scale) >= e)
                    hi = mid;
                else
                    lo = mid + 1;
            }
            return lo;
        };
        const std::size_t entries = zipf.table_guide_entries();
        ASSERT_EQ(entries, 4 * boundaries.size() + 1);
        std::uint64_t smallest = 0;
        for (std::size_t e = 0; e < entries; ++e) {
            const std::uint64_t next =
                e + 1 < entries ? first_reaching(e + 1) : end_bits;
            if (next == smallest)
                continue;  // no double indexes entry e
            const std::uint64_t largest = next - 1;
            for (const std::uint64_t edge : {smallest, largest}) {
                const std::uint64_t below = edge == 0 ? 0 : edge - 1;
                for (const std::uint64_t b : {below, edge, edge + 1}) {
                    const double u = from(b);
                    ASSERT_EQ(zipf.rank_for(u), zipf.rank_of(u))
                        << "guide entry " << e << " u=" << u;
                }
            }
            smallest = next;
        }

        Rng fast(91);
        Rng oracle(91);
        for (int i = 0; i < 2000000; ++i) {
            const double u = oracle.next_double();
            const std::uint64_t want = zipf.rank_of(u);
            const std::uint64_t got = zipf.next(fast);
            ASSERT_EQ(got, want) << "draw " << i << " u=" << u;
        }
    }
}

}  // namespace
}  // namespace artmem
