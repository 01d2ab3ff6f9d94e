/**
 * @file
 * Behavioural tests for the seven baseline tiering policies, driven
 * through the full simulation engine on small machines.
 */
#include <gtest/gtest.h>

#include <map>

#include "policies/autonuma.hpp"
#include "policies/autotiering.hpp"
#include "policies/memtis.hpp"
#include "policies/multiclock.hpp"
#include "policies/nimble.hpp"
#include "policies/static_tiering.hpp"
#include "policies/tiering08.hpp"
#include "policies/tpp.hpp"
#include "sim/engine.hpp"
#include "sim/registry.hpp"
#include "workloads/masim.hpp"

#include "autotiering_peer.hpp"

namespace artmem::policies {
namespace {

constexpr Bytes kPage = 2ull << 20;

/**
 * A skewed workload over 4096 pages (8 GiB at 2 MiB pages): the 256
 * pages at the top of the address space receive 88% of accesses —
 * placed high so prefault puts them in the slow tier — with a sparse
 * background over the rest (per-page background heat must stay low or
 * every page looks warm to bit/fault-based policies).
 */
workloads::MasimSpec
skewed_spec(std::uint64_t accesses)
{
    workloads::MasimSpec spec;
    spec.name = "skew";
    spec.footprint = 4096 * kPage;
    workloads::MasimPhase phase;
    phase.accesses = accesses;
    phase.regions = {
        {3584 * kPage, 256 * kPage, 94.0, false},
        {0, 4096 * kPage, 6.0, false},
    };
    spec.phases.push_back(phase);
    return spec;
}

memsim::MachineConfig
half_machine()
{
    memsim::MachineConfig cfg;
    cfg.page_size = kPage;
    cfg.address_space = 4096 * kPage;
    cfg.tiers[0].capacity = 2048 * kPage;  // half fits
    cfg.tiers[1].capacity = 4200 * kPage;
    return cfg;
}

sim::RunResult
run_policy(Policy& policy, std::uint64_t accesses = 2000000)
{
    workloads::Masim gen(skewed_spec(accesses), kPage, 11);
    memsim::TieredMachine machine(half_machine());
    sim::EngineConfig engine;
    return sim::run_simulation(gen, policy, machine, engine);
}

double
static_ratio(std::uint64_t accesses = 2000000)
{
    StaticTiering policy;
    return run_policy(policy, accesses).fast_ratio;
}

TEST(StaticTiering, NeverMigrates)
{
    StaticTiering policy;
    const auto r = run_policy(policy);
    EXPECT_EQ(r.totals.migrated_pages(), 0u);
    // Hot region lives high -> mostly slow-tier accesses.
    EXPECT_LT(r.fast_ratio, 0.5);
}

/**
 * Every real policy must beat static's fast-tier ratio on the skewed
 * workload: hot pages start in the slow tier and should be promoted.
 */
class PolicyImprovesRatio
    : public ::testing::TestWithParam<std::string_view>
{
};

TEST_P(PolicyImprovesRatio, BeatsStaticOnSkewedWorkload)
{
    auto policy = sim::make_policy(GetParam());
    const auto r = run_policy(*policy);
    const double baseline = static_ratio();
    EXPECT_GT(r.fast_ratio, baseline + 0.15)
        << GetParam() << " ratio " << r.fast_ratio << " vs static "
        << baseline;
    EXPECT_GT(r.totals.promoted_pages + r.totals.exchanges, 0u);
}

INSTANTIATE_TEST_SUITE_P(
    AllSystems, PolicyImprovesRatio,
    ::testing::Values("autonuma", "tpp", "autotiering", "nimble",
                      "multiclock", "memtis", "tiering08", "artmem"),
    [](const auto& suite_info) {
        return std::string(suite_info.param);
    });

TEST(AutoNuma, PromotesViaTwoFaults)
{
    AutoNuma policy;
    const auto r = run_policy(policy);
    EXPECT_GT(r.totals.hint_faults, 0u);
    EXPECT_GT(r.totals.promoted_pages, 0u);
}

TEST(Tpp, MaintainsFreeHeadroom)
{
    Tpp::Config cfg;
    cfg.demotion_watermark = 0.05;
    Tpp policy(cfg);
    workloads::Masim gen(skewed_spec(2000000), kPage, 11);
    memsim::TieredMachine machine(half_machine());
    sim::EngineConfig engine;
    sim::run_simulation(gen, policy, machine, engine);
    // Decoupled allocation: TPP keeps free pages in the fast tier.
    EXPECT_GT(machine.free_pages(memsim::Tier::kFast), 0u);
}

TEST(AutoTiering, UsesExchangesWhenFastIsFull)
{
    AutoTiering policy;
    const auto r = run_policy(policy);
    EXPECT_GT(r.totals.exchanges + r.totals.promoted_pages, 0u);
}

/** 16 pages, 4 fast slots. */
memsim::MachineConfig
victim_machine()
{
    memsim::MachineConfig cfg;
    cfg.page_size = kPage;
    cfg.address_space = 16 * kPage;
    cfg.tiers[0].capacity = 4 * kPage;
    cfg.tiers[1].capacity = 16 * kPage;
    return cfg;
}

/**
 * Allocate every page: 0-3 fast, 4-15 slow. With @p split, page 1 then
 * moves to the slow tier and page 9 to the fast one, so the fast pages
 * are {0, 2, 3, 9}.
 */
void
prefault_victims(memsim::TieredMachine& machine, bool split)
{
    machine.prefault_range(0, 16);
    if (split) {
        ASSERT_TRUE(machine.migrate(1, memsim::Tier::kSlow).ok());
        ASSERT_TRUE(machine.migrate(9, memsim::Tier::kFast).ok());
    }
}

AutoTiering
victim_policy(std::size_t victim_scan)
{
    AutoTiering::Config cfg;
    cfg.victim_scan = victim_scan;
    return AutoTiering(cfg);
}

TEST(AutoTieringVictim, FewerFastPagesThanScanKeepsCursor)
{
    memsim::TieredMachine machine(victim_machine());
    ASSERT_NO_FATAL_FAILURE(prefault_victims(machine, true));
    auto policy = victim_policy(8);
    policy.init(machine);
    for (const PageId page : {0u, 2u, 3u, 9u})
        AutoTieringTestPeer::set_fault_count(policy, page, 3);
    AutoTieringTestPeer::set_fault_count(policy, 2, 1);
    AutoTieringTestPeer::set_victim_cursor(policy, 5);
    const auto before = machine.totals().overhead_ns;
    EXPECT_EQ(AutoTieringTestPeer::find_cold_fast_page(policy), 2u);
    // Four fast pages < victim_scan: the page walk went full circle.
    EXPECT_EQ(AutoTieringTestPeer::victim_cursor(policy), 5u);
    EXPECT_EQ(machine.totals().overhead_ns - before, 4u * 8u);
}

TEST(AutoTieringVictim, ExactlyScanFastPagesMovesCursorPastLast)
{
    memsim::TieredMachine machine(victim_machine());
    ASSERT_NO_FATAL_FAILURE(prefault_victims(machine, true));
    auto policy = victim_policy(4);
    policy.init(machine);
    AutoTieringTestPeer::set_fault_count(policy, 0, 2);
    AutoTieringTestPeer::set_fault_count(policy, 2, 2);
    AutoTieringTestPeer::set_fault_count(policy, 3, 5);
    AutoTieringTestPeer::set_fault_count(policy, 9, 5);
    // From 12 the search wraps to 0, 2, 3, 9 and stops past page 9.
    AutoTieringTestPeer::set_victim_cursor(policy, 12);
    EXPECT_EQ(AutoTieringTestPeer::find_cold_fast_page(policy), 0u);
    EXPECT_EQ(AutoTieringTestPeer::victim_cursor(policy), 10u);
    // From 6 it examines 9, 0, 2, 3: the cursor moves back to 4.
    AutoTieringTestPeer::set_victim_cursor(policy, 6);
    EXPECT_EQ(AutoTieringTestPeer::find_cold_fast_page(policy), 0u);
    EXPECT_EQ(AutoTieringTestPeer::victim_cursor(policy), 4u);
    // From 1 it examines 2, 3, 9, 0: the tie goes to the first minimum
    // in search order, and the cursor lands past page 0 again.
    AutoTieringTestPeer::set_victim_cursor(policy, 1);
    EXPECT_EQ(AutoTieringTestPeer::find_cold_fast_page(policy), 2u);
    EXPECT_EQ(AutoTieringTestPeer::victim_cursor(policy), 1u);
}

TEST(AutoTieringVictim, NoFastPagesReturnsInvalidAndChargesNothing)
{
    memsim::TieredMachine machine(victim_machine());
    auto policy = victim_policy(4);
    policy.init(machine);  // nothing allocated yet
    AutoTieringTestPeer::set_victim_cursor(policy, 7);
    EXPECT_EQ(AutoTieringTestPeer::find_cold_fast_page(policy), kInvalidPage);
    EXPECT_EQ(AutoTieringTestPeer::victim_cursor(policy), 7u);
    EXPECT_EQ(machine.totals().overhead_ns, 0u);
}

TEST(AutoTieringVictim, CursorPastLastFastPageWrapsToFirst)
{
    memsim::TieredMachine machine(victim_machine());
    ASSERT_NO_FATAL_FAILURE(prefault_victims(machine, true));
    auto policy = victim_policy(2);
    policy.init(machine);
    for (const PageId page : {0u, 2u, 3u, 9u})
        AutoTieringTestPeer::set_fault_count(policy, page, 4);
    AutoTieringTestPeer::set_fault_count(policy, 0, 1);
    // From 12 no fast page lies ahead: the search wraps to 0, then 2.
    AutoTieringTestPeer::set_victim_cursor(policy, 12);
    const auto before = machine.totals().overhead_ns;
    EXPECT_EQ(AutoTieringTestPeer::find_cold_fast_page(policy), 0u);
    EXPECT_EQ(AutoTieringTestPeer::victim_cursor(policy), 3u);
    EXPECT_EQ(machine.totals().overhead_ns - before, 2u * 8u);
    // From 9 it examines 9, wraps to 0 and stops past it.
    AutoTieringTestPeer::set_victim_cursor(policy, 9);
    EXPECT_EQ(AutoTieringTestPeer::find_cold_fast_page(policy), 0u);
    EXPECT_EQ(AutoTieringTestPeer::victim_cursor(policy), 1u);
}

TEST(AutoTieringVictim, ExchangeInsidePassIsSeenByNextSearch)
{
    memsim::TieredMachine machine(victim_machine());
    ASSERT_NO_FATAL_FAILURE(prefault_victims(machine, false));
    AutoTiering policy;
    policy.init(machine);
    // Fast tier full: faults on slow pages 8 and 9 queue for the pass.
    policy.on_hint_fault(8, memsim::Tier::kSlow);
    policy.on_hint_fault(9, memsim::Tier::kSlow);
    AutoTieringTestPeer::set_fault_count(policy, 8, 10);
    AutoTieringTestPeer::set_fault_count(policy, 9, 10);
    AutoTieringTestPeer::set_fault_count(policy, 0, 0);
    for (const PageId page : {1u, 2u, 3u})
        AutoTieringTestPeer::set_fault_count(policy, page, 5);
    std::vector<PageId> victims;
    AutoTieringTestPeer::observe_searches(
        policy, [&](PageId, PageId victim, std::size_t examined) {
            victims.push_back(victim);
            EXPECT_EQ(examined, 4u);
        });
    policy.on_interval(machine.now());
    // The second search must see page 0 slow and page 8 fast: a stale
    // index would pick page 0 again and the exchange would fail.
    EXPECT_EQ(victims, (std::vector<PageId>{0, 1}));
    EXPECT_EQ(machine.totals().exchanges, 2u);
    EXPECT_EQ(machine.tier_of(8), memsim::Tier::kFast);
    EXPECT_EQ(machine.tier_of(9), memsim::Tier::kFast);
    EXPECT_EQ(machine.tier_of(0), memsim::Tier::kSlow);
    EXPECT_EQ(machine.tier_of(1), memsim::Tier::kSlow);
}

TEST(Nimble, MigratesInBatches)
{
    Nimble::Config cfg;
    cfg.batch_pages = 16;
    Nimble policy(cfg);
    const auto r = run_policy(policy);
    EXPECT_GT(r.totals.promoted_pages, 0u);
}

TEST(MultiClock, StagesThroughCandidateList)
{
    MultiClock policy;
    const auto r = run_policy(policy);
    EXPECT_GT(r.totals.promoted_pages, 0u);
}

TEST(Memtis, CapacityThresholdTracksBins)
{
    Memtis policy;
    run_policy(policy);
    // With 64 hot pages and 256 fast slots, everything hot fits: the
    // threshold collapses toward the minimum and the hot set is fast.
    EXPECT_GE(policy.current_threshold(), 1u);
}

TEST(Memtis, ManualThresholdOverride)
{
    Memtis::Config cfg;
    cfg.manual_threshold = 1000000;  // absurd: nothing qualifies
    Memtis policy(cfg);
    const auto r = run_policy(policy);
    EXPECT_EQ(r.totals.promoted_pages, 0u);
    EXPECT_EQ(policy.current_threshold(), 1000000u);
}

TEST(Tiering08, ThresholdRespondsToDemand)
{
    Tiering08 policy;
    const auto r = run_policy(policy);
    EXPECT_GT(r.totals.promoted_pages, 0u);
}

TEST(Machine, OverheadAccountingSeparatesPolicyCpu)
{
    Memtis policy;
    const auto r = run_policy(policy);
    // MEMTIS walks every page each interval: measurable but bounded.
    EXPECT_GT(r.totals.overhead_ns, 0u);
    EXPECT_LT(static_cast<double>(r.totals.overhead_ns) /
                  static_cast<double>(r.runtime_ns),
              0.10);
}

TEST(Memtis, CoolingHalvesHotness)
{
    Memtis::Config cfg;
    cfg.cooling_period = 2000;
    Memtis policy(cfg);
    run_policy(policy, 500000);
    EXPECT_GT(policy.bins().cooling_events(), 0u);
}

TEST(AutoNuma, ScanThrottleBoundsFaultOverhead)
{
    AutoNuma policy;
    const auto r = run_policy(policy);
    // The adaptive scan rate must keep fault cost below ~15% of runtime.
    const double fault_ns = static_cast<double>(r.totals.hint_faults) * 500.0;
    EXPECT_LT(fault_ns / static_cast<double>(r.runtime_ns), 0.15);
}

TEST(Policies, MigrationConservation)
{
    // Property: for every policy, promoted - demoted (+/- exchanges,
    // which are balanced) equals the net change of fast-tier occupancy.
    for (const auto name : sim::policy_names()) {
        auto policy = sim::make_policy(name);
        workloads::Masim gen(skewed_spec(500000), kPage, 11);
        memsim::TieredMachine machine(half_machine());
        machine.prefault_range(0, machine.page_count());
        const auto fast_before = machine.used_pages(memsim::Tier::kFast);
        sim::EngineConfig engine;
        engine.prefault = false;  // already prefaulted above
        sim::run_simulation(gen, *policy, machine, engine);
        const auto fast_after = machine.used_pages(memsim::Tier::kFast);
        const auto& t = machine.totals();
        const long long net =
            static_cast<long long>(t.promoted_pages) -
            static_cast<long long>(t.demoted_pages);
        EXPECT_EQ(static_cast<long long>(fast_after) -
                      static_cast<long long>(fast_before),
                  net)
            << name;
        EXPECT_LE(fast_after, machine.capacity_pages(memsim::Tier::kFast))
            << name;
    }
}

/**
 * A workload over 97 pages (an odd count, so no walk's window divides
 * the page space) whose 12-page hot set moves from the top of the
 * address space to the middle and then to the bottom, so that every
 * page-order cursor wraps many times (AutoNUMA's two walks alone visit
 * about 25,800 pages, some 260 passes).
 */
workloads::MasimSpec
wrap_spec()
{
    workloads::MasimSpec spec;
    spec.name = "wrap";
    spec.footprint = 97 * kPage;
    for (const std::uint64_t hot : {85u, 40u, 0u}) {
        workloads::MasimPhase phase;
        phase.accesses = 300000;
        phase.regions = {
            {hot * kPage, 12 * kPage, 90.0, false},
            {0, spec.footprint, 10.0, false},
        };
        spec.phases.push_back(phase);
    }
    return spec;
}

memsim::MachineConfig
wrap_machine()
{
    memsim::MachineConfig cfg;
    cfg.page_size = kPage;
    cfg.address_space = 97 * kPage;
    cfg.tiers[0].capacity = 24 * kPage;
    cfg.tiers[1].capacity = 101 * kPage;
    return cfg;
}

/**
 * The policy under test, with scan rates and watermarks raised so that
 * every page-order walk runs on 97 pages: the defaults' 1-4%
 * watermarks round to zero free pages on a 24-page fast tier, and their
 * per-tick windows to a page or two.
 */
std::unique_ptr<Policy>
wrap_policy(std::string_view name)
{
    if (name == "autonuma") {
        AutoNuma::Config config;
        config.scan_fraction = 0.25;
        config.free_watermark = 0.25;
        return std::make_unique<AutoNuma>(config);
    }
    if (name == "tiering08") {
        Tiering08::Config config;
        config.scan_fraction = 0.25;
        config.free_watermark = 0.25;
        return std::make_unique<Tiering08>(config);
    }
    if (name == "multiclock") {
        MultiClock::Config config;
        config.hand_fraction = 0.25;
        config.free_watermark = 0.25;
        return std::make_unique<MultiClock>(config);
    }
    if (name == "tpp") {
        Tpp::Config config;
        config.scan_fraction = 0.25;
        config.age_fraction = 0.25;
        config.demotion_watermark = 0.25;
        return std::make_unique<Tpp>(config);
    }
    if (name == "autotiering") {
        AutoTiering::Config config;
        config.scan_fraction = 0.25;
        config.victim_scan = 5;
        return std::make_unique<AutoTiering>(config);
    }
    return sim::make_policy(name, 42);
}

struct WrapGolden {
    std::uint64_t runtime_ns;
    double fast_ratio;
    std::uint64_t promoted;
    std::uint64_t demoted;
    std::uint64_t exchanges;
    std::uint64_t hint_faults;
    std::uint64_t overhead_ns;
};

TEST(PageOrderScans, OddPageCountWrapsAreBitIdentical)
{
    // Values captured before the page-order walks lost their modulo
    // step; the charged overhead pins each walk's visit count.
    const std::map<std::string, WrapGolden> golden = {
        {"memtis", {166657958ull, 0.60616222222222227, 36ull, 36ull, 0ull,
                    0ull, 25220ull}},
        {"autotiering", {262759490ull, 0.20146666666666666, 0ull, 0ull,
                         62ull, 19660ull, 749360ull}},
        {"tpp", {371076576ull, 0.35365111111111114, 2658ull, 2664ull, 0ull,
                 18270ull, 342528ull}},
        {"autonuma", {231867818ull, 0.3242322222222222, 0ull, 1ull, 0ull,
                      16684ull, 206560ull}},
        {"multiclock", {228595234ull, 0.29966222222222222, 1ull, 1ull, 0ull,
                        0ull, 140736ull}},
        {"nimble", {223205626ull, 0.32484888888888891, 0ull, 0ull, 0ull,
                    0ull, 41710ull}},
        {"tiering08", {749553280ull, 0.076456666666666673, 8535ull, 8538ull,
                       0ull, 21517ull, 680120ull}},
        {"artmem", {208426689ull, 0.40050333333333332, 16ull, 16ull, 0ull,
                    0ull, 122948ull}},
    };
    std::vector<std::string_view> names = sim::baseline_names();
    names.push_back("artmem");
    for (const auto name : names) {
        const auto it = golden.find(std::string(name));
        ASSERT_NE(it, golden.end()) << "no golden values for " << name;
        auto policy = wrap_policy(name);
        workloads::Masim gen(wrap_spec(), kPage, 17);
        memsim::TieredMachine machine(wrap_machine());
        // Four times the default tick and decision rates: more walks per
        // simulated second, so more wraps.
        sim::EngineConfig engine;
        engine.tick_interval = 250000;
        engine.decision_interval = 2500000;
        const auto r = sim::run_simulation(gen, *policy, machine, engine);
        const WrapGolden& g = it->second;
        EXPECT_EQ(r.runtime_ns, g.runtime_ns) << name;
        EXPECT_EQ(r.fast_ratio, g.fast_ratio) << name;
        EXPECT_EQ(r.totals.promoted_pages, g.promoted) << name;
        EXPECT_EQ(r.totals.demoted_pages, g.demoted) << name;
        EXPECT_EQ(r.totals.exchanges, g.exchanges) << name;
        EXPECT_EQ(r.totals.hint_faults, g.hint_faults) << name;
        EXPECT_EQ(r.totals.overhead_ns, g.overhead_ns) << name;
    }
}

TEST(Registry, BuildsEveryPolicy)
{
    for (const auto name : sim::policy_names()) {
        auto policy = sim::make_policy(name);
        ASSERT_NE(policy, nullptr);
        EXPECT_EQ(policy->name(), name);
    }
    EXPECT_EQ(sim::baseline_names().size(), 7u);
}

}  // namespace
}  // namespace artmem::policies
