/**
 * @file
 * Tests for the ArtMem policy itself: initialization per Algorithm 1,
 * reward mechanics, threshold clamping, migration-scope behaviour,
 * ablation switches, reward modes, Q-table import/export, and the
 * slow-list census behind the promotion-candidate walk's early stop.
 */
#include <gtest/gtest.h>

#include <sstream>

#include "core/artmem.hpp"
#include "sim/engine.hpp"
#include "verify/invariant_checker.hpp"
#include "workloads/masim.hpp"
#include "workloads/simple.hpp"

#include "artmem_peer.hpp"

namespace artmem::core {
namespace {

constexpr Bytes kPage = 2ull << 20;

memsim::MachineConfig
machine_config(std::size_t fast_pages, std::size_t total_pages)
{
    memsim::MachineConfig cfg;
    cfg.page_size = kPage;
    cfg.address_space = total_pages * kPage;
    cfg.tiers[0].capacity = fast_pages * kPage;
    cfg.tiers[1].capacity = (total_pages + 8) * kPage;
    return cfg;
}

workloads::MasimSpec
hot_high_spec(std::uint64_t accesses, Bytes footprint = 512 * kPage)
{
    workloads::MasimSpec spec;
    spec.name = "hot-high";
    spec.footprint = footprint;
    workloads::MasimPhase phase;
    phase.accesses = accesses;
    phase.regions = {
        {footprint - 64 * kPage, 64 * kPage, 95.0, false},
        {0, footprint, 5.0, false},
    };
    spec.phases.push_back(phase);
    return spec;
}

TEST(ArtMemConfigValidation, RejectsBadConfigs)
{
    ArtMemConfig ok;
    EXPECT_NO_THROW(ArtMem{ok});
    // Death tests for fatal() exits.
    ArtMemConfig bad_sizes = ok;
    bad_sizes.migration_sizes_mib = {16, 32};  // missing the 0 action
    EXPECT_EXIT(ArtMem{bad_sizes}, ::testing::ExitedWithCode(1), "");
    ArtMemConfig bad_k = ok;
    bad_k.k = 0;
    EXPECT_EXIT(ArtMem{bad_k}, ::testing::ExitedWithCode(1), "");
    ArtMemConfig bad_thr = ok;
    bad_thr.min_threshold = 100;
    bad_thr.max_threshold = 10;
    EXPECT_EXIT(ArtMem{bad_thr}, ::testing::ExitedWithCode(1), "");
}

TEST(ArtMemInit, Algorithm1Initialization)
{
    ArtMem policy;
    memsim::TieredMachine machine(machine_config(4, 8));
    policy.init(machine);
    // Q(k, action 0) = 1, everything else 0 (Algorithm 1 line 1).
    const auto& q = policy.migration_agent().table();
    EXPECT_EQ(q.states(), 12);   // k=10 -> states 0..10 plus no-sample
    EXPECT_EQ(q.actions(), 10);  // 0 + 9 doubling sizes
    EXPECT_DOUBLE_EQ(q.at(10, 0), 1.0);
    EXPECT_DOUBLE_EQ(q.at(9, 0), 0.0);
    EXPECT_DOUBLE_EQ(q.at(10, 1), 0.0);
    const auto& t = policy.threshold_agent().table();
    EXPECT_EQ(t.actions(), 5);  // {-8,-4,0,+4,+8}
    EXPECT_EQ(policy.current_threshold(), 16u);  // heuristic minimum
}

TEST(ArtMemInit, QTableMemoryUnder10KiB)
{
    ArtMem policy;
    memsim::TieredMachine machine(machine_config(4, 8));
    policy.init(machine);
    EXPECT_LT(policy.migration_agent().table().memory_bytes() +
                  policy.threshold_agent().table().memory_bytes(),
              10u * 1024);
}

TEST(ArtMemRun, PromotesHotSetAndBeatsStatic)
{
    auto run = [](policies::Policy& policy) {
        workloads::Masim gen(hot_high_spec(3000000), kPage, 13);
        memsim::TieredMachine machine(machine_config(256, 512));
        sim::EngineConfig engine;
        return sim::run_simulation(gen, policy, machine, engine);
    };
    ArtMemConfig cfg;
    ArtMem artmem(cfg);
    const auto r = run(artmem);
    EXPECT_GT(r.totals.promoted_pages, 0u);
    EXPECT_GT(r.fast_ratio, 0.5);
    EXPECT_GT(artmem.periods(), 10u);
}

TEST(ArtMemRun, NoMigrationWhenAlreadyAllFast)
{
    // Footprint fits entirely in the fast tier: state stays k and the
    // primed Q(k, 0)=1 keeps choosing "no migration" (minus epsilon
    // exploration, which cannot move anything as there is no slow page).
    ArtMem policy;
    workloads::UniformRandom gen(64 * kPage, kPage, 500000, 3);
    memsim::TieredMachine machine(machine_config(128, 64));
    sim::EngineConfig engine;
    const auto r = sim::run_simulation(gen, policy, machine, engine);
    EXPECT_EQ(r.totals.migrated_pages(), 0u);
    EXPECT_DOUBLE_EQ(r.fast_ratio, 1.0);
}

TEST(ArtMemThreshold, StaysWithinClampRange)
{
    ArtMemConfig cfg;
    cfg.min_threshold = 16;
    cfg.max_threshold = 64;
    ArtMem policy(cfg);
    workloads::Masim gen(hot_high_spec(2000000), kPage, 13);
    memsim::TieredMachine machine(machine_config(256, 512));
    sim::EngineConfig engine;
    sim::run_simulation(gen, policy, machine, engine);
    EXPECT_GE(policy.current_threshold(), 16u);
    EXPECT_LE(policy.current_threshold(), 64u);
}

TEST(ArtMemAblation, HeuristicModeStillMigrates)
{
    ArtMemConfig cfg;
    cfg.use_rl = false;
    ArtMem policy(cfg);
    workloads::Masim gen(hot_high_spec(2000000), kPage, 13);
    memsim::TieredMachine machine(machine_config(256, 512));
    sim::EngineConfig engine;
    const auto r = sim::run_simulation(gen, policy, machine, engine);
    EXPECT_GT(r.totals.promoted_pages, 0u);
    EXPECT_GT(r.fast_ratio, 0.5);
}

TEST(ArtMemAblation, NoSortingUsesFrequencyOnly)
{
    ArtMemConfig cfg;
    cfg.use_sorting = false;
    ArtMem policy(cfg);
    workloads::Masim gen(hot_high_spec(2000000), kPage, 13);
    memsim::TieredMachine machine(machine_config(256, 512));
    sim::EngineConfig engine;
    const auto r = sim::run_simulation(gen, policy, machine, engine);
    EXPECT_GT(r.totals.promoted_pages, 0u);
}

TEST(ArtMemReward, LatencyModeRuns)
{
    ArtMemConfig cfg;
    cfg.reward_mode = RewardMode::kLatency;
    ArtMem policy(cfg);
    workloads::Masim gen(hot_high_spec(2000000), kPage, 13);
    memsim::TieredMachine machine(machine_config(256, 512));
    sim::EngineConfig engine;
    const auto r = sim::run_simulation(gen, policy, machine, engine);
    EXPECT_GT(r.totals.promoted_pages, 0u);
}

TEST(ArtMemSarsa, RunsAndMigrates)
{
    ArtMemConfig cfg;
    cfg.agent.algorithm = rl::Algorithm::kSarsa;
    ArtMem policy(cfg);
    workloads::Masim gen(hot_high_spec(2000000), kPage, 13);
    memsim::TieredMachine machine(machine_config(256, 512));
    sim::EngineConfig engine;
    const auto r = sim::run_simulation(gen, policy, machine, engine);
    EXPECT_GT(r.totals.promoted_pages, 0u);
}

TEST(ArtMemQTables, SaveLoadRoundTrip)
{
    ArtMem a;
    memsim::TieredMachine ma(machine_config(4, 8));
    a.init(ma);
    a.migration_agent().table().at(5, 3) = 0.75;
    a.threshold_agent().table().at(2, 1) = -0.5;
    std::stringstream ss;
    a.save_qtables(ss);

    ArtMem b;
    memsim::TieredMachine mb(machine_config(4, 8));
    b.init(mb);
    b.load_qtables(ss);
    EXPECT_DOUBLE_EQ(b.migration_agent().table().at(5, 3), 0.75);
    EXPECT_DOUBLE_EQ(b.threshold_agent().table().at(2, 1), -0.5);
}

TEST(ArtMemQTables, MalformedBlobFallsBackToColdStart)
{
    // A corrupt pretrained blob must not kill the run (it is operator
    // input, not an internal invariant): load_qtables() warns, reports
    // false, and leaves the cold-start tables untouched.
    ArtMem policy;
    memsim::TieredMachine machine(machine_config(4, 8));
    policy.init(machine);
    const auto rejects = [&](const std::string& blob) {
        std::istringstream in(blob);
        return !policy.load_qtables(in);
    };
    EXPECT_TRUE(rejects(""));                  // empty
    EXPECT_TRUE(rejects("not a qtable at all"));
    EXPECT_TRUE(rejects("qtable 12 10\n1 2"));  // truncated body
    // Right magic, wrong dimensions for both agents.
    rl::QTable small(2, 2);
    std::stringstream mismatched;
    small.save(mismatched);
    small.save(mismatched);
    EXPECT_TRUE(rejects(mismatched.str()));
    // A valid migration table followed by garbage must not be applied
    // half-way: the migration agent stays cold too.
    rl::QTable shaped(12, 10);
    shaped.at(4, 4) = 9.0;
    std::stringstream half;
    shaped.save(half);
    half << "garbage";
    EXPECT_TRUE(rejects(half.str()));
    EXPECT_DOUBLE_EQ(policy.migration_agent().table().at(4, 4), 0.0);
    // Cold-start signature intact (Algorithm 1 line 1).
    EXPECT_DOUBLE_EQ(policy.migration_agent().table().at(10, 0), 1.0);
}

TEST(ArtMemQTables, BadPretrainedBlobStillRuns)
{
    // The CLI path: set_pretrained_qtables() with a truncated blob is
    // installed at init() time; the run must proceed from a cold start
    // rather than dying mid-experiment.
    ArtMemConfig cfg;
    ArtMem policy(cfg);
    policy.set_pretrained_qtables("qtable 12 10\n0.25 truncated");
    workloads::Masim gen(hot_high_spec(500000), kPage, 13);
    memsim::TieredMachine machine(machine_config(256, 512));
    sim::EngineConfig engine;
    const auto r = sim::run_simulation(gen, policy, machine, engine);
    EXPECT_EQ(r.accesses, 500000u);
    EXPECT_GT(policy.periods(), 0u);
}

TEST(ArtMemGuard, NeverSwapsHotForHot)
{
    // Pattern-S4 style trap: the hot set exceeds the fast tier and all
    // hot pages have equal heat. Once the fast tier is full of hot
    // pages, the hot-victim guard must keep steady-state churn near
    // zero instead of endlessly swapping equal-heat pages.
    workloads::MasimSpec spec;
    spec.name = "s4-like";
    spec.footprint = 512 * kPage;
    workloads::MasimPhase phase;
    phase.accesses = 3000000;
    phase.regions = {
        {64 * kPage, 384 * kPage, 92.0, false},  // hot 384 > fast 256
        {0, 512 * kPage, 8.0, false},
    };
    spec.phases.push_back(phase);

    ArtMem policy;
    workloads::Masim gen(spec, kPage, 13);
    memsim::TieredMachine machine(machine_config(256, 512));
    sim::EngineConfig engine;
    engine.record_timeline = true;
    const auto r = sim::run_simulation(gen, policy, machine, engine);
    // Late-run migrations (final quarter) must be a small share of the
    // total: the system has settled.
    std::uint64_t late = 0, total = 0;
    for (std::size_t i = 0; i < r.timeline.size(); ++i) {
        const auto moved = r.timeline[i].promoted + r.timeline[i].demoted;
        total += moved;
        if (i >= r.timeline.size() * 3 / 4)
            late += moved;
    }
    if (total > 0) {
        EXPECT_LT(static_cast<double>(late) / static_cast<double>(total),
                  0.3);
    }
}

TEST(ArtMemPretrained, TablesInstalledAfterInit)
{
    ArtMem trainer;
    memsim::TieredMachine ma(machine_config(4, 8));
    trainer.init(ma);
    trainer.migration_agent().table().at(3, 2) = 42.0;
    std::stringstream blob;
    trainer.save_qtables(blob);

    ArtMem student;
    student.set_pretrained_qtables(blob.str());
    memsim::TieredMachine mb(machine_config(4, 8));
    student.init(mb);
    EXPECT_DOUBLE_EQ(student.migration_agent().table().at(3, 2), 42.0);
    // Re-init must re-install (fresh run semantics).
    memsim::TieredMachine mc(machine_config(4, 8));
    student.init(mc);
    EXPECT_DOUBLE_EQ(student.migration_agent().table().at(3, 2), 42.0);
}

TEST(ArtMemRewardModes, ProduceDistinctTrajectories)
{
    auto run_mode = [](RewardMode mode) {
        ArtMemConfig cfg;
        cfg.reward_mode = mode;
        ArtMem policy(cfg);
        workloads::Masim gen(hot_high_spec(2000000), kPage, 13);
        memsim::TieredMachine machine(machine_config(256, 512));
        sim::EngineConfig engine;
        return sim::run_simulation(gen, policy, machine, engine);
    };
    const auto ratio_based = run_mode(RewardMode::kAccessRatio);
    const auto latency_based = run_mode(RewardMode::kLatency);
    EXPECT_NE(ratio_based.runtime_ns, latency_based.runtime_ns);
}

TEST(ArtMemDeterminism, SameSeedSameOutcome)
{
    auto run_once = [](std::uint64_t seed) {
        ArtMemConfig cfg;
        cfg.seed = seed;
        ArtMem policy(cfg);
        workloads::Masim gen(hot_high_spec(1000000), kPage, 13);
        memsim::TieredMachine machine(machine_config(256, 512));
        sim::EngineConfig engine;
        return sim::run_simulation(gen, policy, machine, engine);
    };
    const auto a = run_once(7);
    const auto b = run_once(7);
    EXPECT_EQ(a.runtime_ns, b.runtime_ns);
    EXPECT_EQ(a.totals.migrated_pages(), b.totals.migrated_pages());
    const auto c = run_once(8);
    // Different exploration seed: almost surely a different trajectory.
    EXPECT_NE(a.runtime_ns, c.runtime_ns);
}

/** Feed @p times samples of slow-resident @p page to @p policy. */
void
sample_slow(ArtMem& policy, PageId page, std::size_t times)
{
    const std::vector<memsim::PebsSample> samples(
        times, memsim::PebsSample{page, memsim::Tier::kSlow});
    policy.on_samples(samples);
}

TEST(ArtMemCensus, StaleHotPageAtInactiveTailIsCollected)
{
    // 4 fast pages, 60 slow ones (prefault fills fast first).
    memsim::TieredMachine machine(machine_config(4, 64));
    machine.prefault_range(0, 64);
    ArtMem policy;
    policy.init(machine);
    sample_slow(policy, 10, 40);  // hot
    sample_slow(policy, 5, 40);   // hot
    sample_slow(policy, 12, 17);  // in the threshold's bin, below it
    // A committed demotion puts page 10 on the slow inactive head, still
    // hot; every other slow page then touches in once after it.
    policy.on_tx_resolved(10, memsim::Tier::kFast, memsim::Tier::kSlow,
                          true);
    for (PageId page = 4; page < 64; ++page) {
        if (page != 5 && page != 10 && page != 12)
            sample_slow(policy, page, 1);
    }
    const auto& lists = policy.lists();
    ASSERT_EQ(lists.tail(lru::ListId::kSlowInactive), 10u);
    ASSERT_EQ(lists.size(lru::ListId::kSlowActive), 2u);
    EXPECT_EQ(policy.slow_census()[1][stats::EmaBins::bin_of(40)], 1u);
    EXPECT_GT(verify::InvariantChecker::check_artmem(policy, machine), 0u);

    ArtMemTestPeer::set_threshold(policy, 20);
    std::vector<PageId> out;
    ArtMemTestPeer::collect(policy, 8, out);
    EXPECT_EQ(out, (std::vector<PageId>{5, 10}));
    out.clear();
    ArtMemTestPeer::collect(policy, 1, out);
    EXPECT_EQ(out, (std::vector<PageId>{5}));
}

TEST(ArtMemCensus, SaturatedCountKeepsTopBinAcrossCooling)
{
    // Counts saturate at 65536 (bin 16); cooling halves that to 32768,
    // which is still bin 16. A census shifted down one bin would lose
    // the page from the top bin and stop the walk before it.
    memsim::TieredMachine machine(machine_config(4, 64));
    machine.prefault_range(0, 64);
    ArtMemConfig cfg;
    cfg.cooling_period = 70000;
    ArtMem policy(cfg);
    policy.init(machine);
    constexpr int kTop = stats::EmaBins::kBins - 1;
    sample_slow(policy, 11, 40);     // 40 -> 20 drops one bin on cooling
    sample_slow(policy, 10, 70000);  // saturates, then cools
    ASSERT_EQ(policy.bins().cooling_events(), 1u);
    ASSERT_EQ(policy.bins().count(10), 1u << 15);
    ASSERT_EQ(policy.bins().count(11), 20u);
    EXPECT_EQ(policy.slow_census()[0][kTop], 1u);
    EXPECT_EQ(policy.slow_census()[0][kTop - 1], 0u);
    EXPECT_EQ(policy.slow_census()[0][stats::EmaBins::bin_of(20)], 1u);
    EXPECT_GT(verify::InvariantChecker::check_artmem(policy, machine), 0u);

    ArtMemTestPeer::set_threshold(policy, cfg.max_threshold);
    std::vector<PageId> out;
    ArtMemTestPeer::collect(policy, 8, out);
    EXPECT_EQ(out, (std::vector<PageId>{10}));
}

TEST(ArtMemCensus, ReinitResetsCensus)
{
    memsim::TieredMachine first(machine_config(4, 64));
    first.prefault_range(0, 64);
    ArtMem policy;
    policy.init(first);
    for (PageId page = 4; page < 64; ++page)
        sample_slow(policy, page, page % 3 == 0 ? 20 : 1);
    std::uint64_t censused = 0;
    for (const auto& row : policy.slow_census())
        for (const auto pages : row)
            censused += pages;
    ASSERT_EQ(censused, 60u);

    memsim::TieredMachine second(machine_config(4, 64));
    second.prefault_range(0, 64);
    policy.init(second);
    for (const auto& row : policy.slow_census())
        for (const auto pages : row)
            EXPECT_EQ(pages, 0u);
    EXPECT_GT(verify::InvariantChecker::check_artmem(policy, second), 0u);
}

}  // namespace
}  // namespace artmem::core
