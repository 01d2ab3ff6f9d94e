/**
 * @file
 * Transactional migration engine tests (DESIGN.md section 10): the
 * open/abort/commit state machine on TieredMachine, shadow-copy
 * capacity charging, non-exclusive dual residency with free flips and
 * on-demand reclaim, the deterministic write-abort draw stream, the
 * resolution callback, and the strict tx-off no-op contract.
 */
#include <gtest/gtest.h>

#include <string>
#include <tuple>
#include <utility>
#include <vector>

#include "memsim/fault_injector.hpp"
#include "memsim/tiered_machine.hpp"
#include "memsim/tx_migration.hpp"
#include "sim/engine.hpp"
#include "sim/experiment.hpp"
#include "util/cli.hpp"

namespace artmem::memsim {
namespace {

constexpr Bytes kPage = 2ull << 20;

/** Machine with @p fast_pages fast slots and room for @p total_pages. */
MachineConfig
small_machine(std::size_t fast_pages, std::size_t total_pages)
{
    MachineConfig config;
    config.address_space = total_pages * kPage;
    config.tiers[0].capacity = fast_pages * kPage;
    config.tiers[1].capacity = (total_pages + 4) * kPage;
    return config;
}

/** Enabled engine with deterministic defaults for the machine tests. */
TxConfig
tx_on(double write_ratio = 0.0)
{
    TxConfig tx;
    tx.enabled = true;
    tx.seed = 7;
    tx.write_ratio = write_ratio;
    return tx;
}

/** Generous sim-time advance: longer than any one copy window here. */
constexpr SimTimeNs kWholeWindow = 1'000'000'000;

TEST(TxStatusNames, AreStable)
{
    EXPECT_EQ(migrate_status_name(MigrateStatus::kTxOpened), "tx_opened");
    EXPECT_EQ(migrate_status_name(MigrateStatus::kTxInFlight),
              "tx_in_flight");
    EXPECT_EQ(migrate_status_name(MigrateStatus::kTxBusy), "tx_busy");
    EXPECT_EQ(migrate_status_name(MigrateStatus::kTxAbort), "tx_abort");
}

TEST(TxStatusPredicates, ClassifyTxOutcomes)
{
    EXPECT_TRUE(MigrationResult{MigrateStatus::kTxOpened}.pending());
    EXPECT_FALSE(MigrationResult{MigrateStatus::kTxOpened}.ok());
    EXPECT_FALSE(MigrationResult{MigrateStatus::kTxOpened}.busy());
    EXPECT_TRUE(MigrationResult{MigrateStatus::kTxInFlight}.busy());
    EXPECT_TRUE(MigrationResult{MigrateStatus::kTxBusy}.busy());
    for (const auto status :
         {MigrateStatus::kTxInFlight, MigrateStatus::kTxBusy,
          MigrateStatus::kTxAbort}) {
        EXPECT_TRUE(MigrationResult{status}.transient())
            << migrate_status_name(status);
    }
    EXPECT_TRUE(MigrationResult{MigrateStatus::kTxAbort}.faulted());
    EXPECT_FALSE(MigrationResult{MigrateStatus::kTxBusy}.faulted());
}

TEST(TxConfigValidate, RejectsBadRatesAndEmptyTable)
{
    TxConfig bad_rate;
    bad_rate.write_ratio = 1.5;
    EXPECT_EXIT(bad_rate.validate(), ::testing::ExitedWithCode(1), "");
    TxConfig negative;
    negative.write_ratio = -0.1;
    EXPECT_EXIT(negative.validate(), ::testing::ExitedWithCode(1), "");
    TxConfig empty;
    empty.max_inflight = 0;
    EXPECT_EXIT(empty.validate(), ::testing::ExitedWithCode(1), "");
}

TEST(TxCli, KnobWithoutMasterSwitchIsFatal)
{
    std::vector<std::string> argv_s = {"prog", "--tx-write-ratio=0.5"};
    std::vector<char*> argv;
    for (auto& a : argv_s)
        argv.push_back(a.data());
    const auto args =
        CliArgs::parse(static_cast<int>(argv.size()), argv.data());
    EXPECT_EXIT((void)sim::parse_tx_cli(args),
                ::testing::ExitedWithCode(1), "");
}

TEST(TxCli, ParsesAllKnobs)
{
    std::vector<std::string> argv_s = {
        "prog", "--tx-migration", "--tx-seed=11", "--tx-write-ratio=0.1",
        "--tx-max-inflight=3", "--tx-exclusive"};
    std::vector<char*> argv;
    for (auto& a : argv_s)
        argv.push_back(a.data());
    const auto args =
        CliArgs::parse(static_cast<int>(argv.size()), argv.data());
    const TxConfig tx = sim::parse_tx_cli(args);
    EXPECT_TRUE(tx.enabled);
    EXPECT_EQ(tx.seed, 11u);
    EXPECT_DOUBLE_EQ(tx.write_ratio, 0.1);
    EXPECT_EQ(tx.max_inflight, 3u);
    EXPECT_FALSE(tx.non_exclusive);
}

// --- tx off: the strict no-op contract -------------------------------

TEST(TxOff, MachineBehavesAtomically)
{
    TieredMachine m(small_machine(4, 12));
    m.prefault_range(0, 12);
    EXPECT_FALSE(m.tx_enabled());
    EXPECT_EQ(m.tx_config(), nullptr);
    // Migration completes inside the call, no window, no pending state.
    const auto r = m.migrate(0, Tier::kSlow);
    EXPECT_TRUE(r.ok());
    EXPECT_EQ(m.tier_of(0), Tier::kSlow);
    EXPECT_EQ(m.poll_tx(), 0u);
    EXPECT_EQ(m.tx_inflight_count(), 0u);
    EXPECT_EQ(m.tx_write_draws(), 0u);
    EXPECT_FALSE(m.tx_page_inflight(0));
    EXPECT_FALSE(m.tx_page_dual(0));
    const auto& t = m.totals();
    EXPECT_EQ(t.tx_opened, 0u);
    EXPECT_EQ(t.tx_committed, 0u);
    EXPECT_EQ(t.tx_aborted, 0u);
    EXPECT_EQ(t.tx_retries, 0u);
    EXPECT_EQ(t.tx_free_flips, 0u);
    EXPECT_EQ(t.tx_dual_drops, 0u);
    EXPECT_EQ(t.tx_dual_reclaims, 0u);
    EXPECT_EQ(t.failed_tx_busy, 0u);
}

TEST(TxOff, DisabledConfigRemovesTheEngine)
{
    TieredMachine m(small_machine(4, 12));
    m.install_tx(tx_on());
    EXPECT_TRUE(m.tx_enabled());
    m.install_tx(TxConfig{});  // enabled = false
    EXPECT_FALSE(m.tx_enabled());
}

// --- open -> commit lifecycle ----------------------------------------

TEST(TxLifecycle, OpenChargesShadowAndCommitFlipsResidency)
{
    TieredMachine m(small_machine(4, 12));
    m.install_tx(tx_on());
    m.prefault_range(0, 12);  // pages 0..3 fast, 4..11 slow
    const std::size_t fast_before = m.used_pages(Tier::kFast);
    const std::size_t slow_before = m.used_pages(Tier::kSlow);

    const auto r = m.migrate(0, Tier::kSlow);
    EXPECT_EQ(r.status, MigrateStatus::kTxOpened);
    EXPECT_TRUE(r.pending());
    // In flight: still primary in fast, shadow slot charged in slow.
    EXPECT_EQ(m.tier_of(0), Tier::kFast);
    EXPECT_TRUE(m.tx_page_inflight(0));
    EXPECT_TRUE(m.tx_page_shadow(0));
    EXPECT_EQ(m.tx_inflight_count(), 1u);
    EXPECT_EQ(m.used_pages(Tier::kFast), fast_before);
    EXPECT_EQ(m.used_pages(Tier::kSlow), slow_before + 1);
    EXPECT_EQ(m.totals().tx_opened, 1u);

    // The window has not closed: polling commits nothing.
    m.advance(10);
    EXPECT_EQ(m.poll_tx(), 0u);
    EXPECT_TRUE(m.tx_page_inflight(0));

    m.advance(kWholeWindow);
    EXPECT_EQ(m.poll_tx(), 1u);
    EXPECT_EQ(m.tier_of(0), Tier::kSlow);
    EXPECT_FALSE(m.tx_page_inflight(0));
    // Non-exclusive residency: the clean fast copy stays until wanted.
    EXPECT_TRUE(m.tx_page_dual(0));
    EXPECT_EQ(m.tx_reclaimable_pages(Tier::kFast), 1u);
    EXPECT_EQ(m.used_pages(Tier::kFast), fast_before);
    EXPECT_EQ(m.used_pages(Tier::kSlow), slow_before + 1);
    // ...but the dual slot counts as free for future allocations.
    EXPECT_EQ(m.free_pages(Tier::kFast), 1u);
    EXPECT_EQ(m.totals().tx_committed, 1u);
    EXPECT_EQ(m.totals().demoted_pages, 1u);
    EXPECT_GT(m.totals().migration_busy_ns, 0u);
}

TEST(TxLifecycle, ExclusiveModeReleasesTheSourceSlot)
{
    TieredMachine m(small_machine(4, 12));
    auto tx = tx_on();
    tx.non_exclusive = false;
    m.install_tx(tx);
    m.prefault_range(0, 12);
    ASSERT_TRUE(m.migrate(0, Tier::kSlow).pending());
    m.advance(kWholeWindow);
    EXPECT_EQ(m.poll_tx(), 1u);
    EXPECT_EQ(m.tier_of(0), Tier::kSlow);
    EXPECT_FALSE(m.tx_page_dual(0));
    EXPECT_EQ(m.used_pages(Tier::kFast), 3u);
    EXPECT_EQ(m.tx_reclaimable_pages(Tier::kFast), 0u);
}

TEST(TxLifecycle, AccessesDuringWindowServeFromSource)
{
    TieredMachine m(small_machine(4, 12));
    m.install_tx(tx_on());  // write_ratio 0: reads never abort
    m.prefault_range(0, 12);
    ASSERT_TRUE(m.migrate(0, Tier::kSlow).pending());
    const auto fast_acc = m.totals().accesses[0];
    for (int i = 0; i < 8; ++i)
        EXPECT_EQ(m.access(0), Tier::kFast);
    EXPECT_EQ(m.totals().accesses[0], fast_acc + 8);
    // A zero write rate short-circuits before the draw: reads on an
    // in-flight page consume nothing from the classification stream,
    // and the transaction commits untouched.
    EXPECT_EQ(m.tx_write_draws(), 0u);
    m.advance(kWholeWindow);
    EXPECT_EQ(m.poll_tx(), 1u);
    EXPECT_EQ(m.tier_of(0), Tier::kSlow);
}

TEST(TxLifecycle, SecondRequestOnInFlightPageIsRefused)
{
    TieredMachine m(small_machine(4, 12));
    m.install_tx(tx_on());
    m.prefault_range(0, 12);
    ASSERT_TRUE(m.migrate(0, Tier::kSlow).pending());
    const auto r = m.migrate(0, Tier::kSlow);
    // The primary is still fast, so the retry is not kSameTier; the
    // open transaction refuses it.
    EXPECT_EQ(r.status, MigrateStatus::kTxInFlight);
    EXPECT_TRUE(r.busy());
    EXPECT_EQ(m.totals().failed_tx_busy, 1u);
    EXPECT_EQ(m.tx_inflight_count(), 1u);
}

TEST(TxLifecycle, FullInflightTableRefusesWithTxBusy)
{
    TieredMachine m(small_machine(4, 12));
    auto tx = tx_on();
    tx.max_inflight = 1;
    m.install_tx(tx);
    m.prefault_range(0, 12);
    ASSERT_TRUE(m.migrate(0, Tier::kSlow).pending());
    const auto r = m.migrate(1, Tier::kSlow);
    EXPECT_EQ(r.status, MigrateStatus::kTxBusy);
    EXPECT_EQ(m.totals().failed_tx_busy, 1u);
    // Draining the table frees the slot.
    m.advance(kWholeWindow);
    EXPECT_EQ(m.poll_tx(), 1u);
    EXPECT_TRUE(m.migrate(1, Tier::kSlow).pending());
}

// --- write aborts ----------------------------------------------------

TEST(TxAbort, WriteDuringWindowAbortsAndRetryIsCounted)
{
    TieredMachine m(small_machine(4, 12));
    m.install_tx(tx_on(1.0));  // every access is a write
    m.prefault_range(0, 12);
    const std::size_t slow_used = m.used_pages(Tier::kSlow);
    ASSERT_TRUE(m.migrate(0, Tier::kSlow).pending());
    EXPECT_EQ(m.used_pages(Tier::kSlow), slow_used + 1);

    const SimTimeNs before = m.now();
    EXPECT_EQ(m.access(0), Tier::kFast);
    // The write killed the transaction: page stays put, shadow slot
    // released, wasted half-copy charged at the contention share.
    EXPECT_FALSE(m.tx_page_inflight(0));
    EXPECT_EQ(m.tx_inflight_count(), 0u);
    EXPECT_EQ(m.used_pages(Tier::kSlow), slow_used);
    EXPECT_EQ(m.tier_of(0), Tier::kFast);
    EXPECT_EQ(m.totals().tx_aborted, 1u);
    EXPECT_GT(m.totals().aborted_migration_ns, 0u);
    EXPECT_GT(m.now() - before,
              static_cast<SimTimeNs>(
                  m.config().tiers[0].load_latency_ns));
    EXPECT_EQ(m.tx_write_draws(), 1u);
    EXPECT_EQ(m.tx_write_hits(), 1u);

    // Nothing to commit; the abort was already resolved at the access.
    m.advance(kWholeWindow);
    EXPECT_EQ(m.poll_tx(), 0u);

    // Reopening the aborted page counts as a retry.
    ASSERT_TRUE(m.migrate(0, Tier::kSlow).pending());
    EXPECT_EQ(m.totals().tx_retries, 1u);
    EXPECT_EQ(m.totals().tx_opened, 2u);
}

TEST(TxAbort, DrawStreamIsDeterministic)
{
    // Same seed, same call sequence: identical abort schedule and
    // counters across two independent machines.
    auto run = [](std::uint64_t seed) {
        TieredMachine m(small_machine(4, 12));
        auto tx = tx_on(0.3);
        tx.seed = seed;
        m.install_tx(tx);
        m.prefault_range(0, 12);
        for (PageId p = 0; p < 4; ++p)
            (void)m.migrate(p, Tier::kSlow);
        for (int i = 0; i < 32; ++i)
            m.access(static_cast<PageId>(i % 4));
        m.advance(kWholeWindow);
        (void)m.poll_tx();
        return std::tuple{m.totals().tx_aborted, m.totals().tx_committed,
                          m.tx_write_draws(), m.tx_write_hits(), m.now()};
    };
    EXPECT_EQ(run(5), run(5));
    EXPECT_EQ(run(6), run(6));
}

// --- non-exclusive dual residency ------------------------------------

class TxDual : public ::testing::Test
{
  protected:
    TxDual() : machine_(small_machine(4, 12))
    {
        machine_.install_tx(tx_on());
        machine_.prefault_range(0, 12);
        // Demote page 0 and commit: primary slow, clean dual in fast.
        EXPECT_TRUE(machine_.migrate(0, Tier::kSlow).pending());
        machine_.advance(kWholeWindow);
        EXPECT_EQ(machine_.poll_tx(), 1u);
        EXPECT_TRUE(machine_.tx_page_dual(0));
    }

    TieredMachine machine_;
};

TEST_F(TxDual, PromotingBackIsAFreeFlip)
{
    const SimTimeNs before = machine_.now();
    const auto busy_before = machine_.totals().migration_busy_ns;
    const auto r = machine_.migrate(0, Tier::kFast);
    // The fast copy is still clean: adopt it, no copy, no device time.
    EXPECT_TRUE(r.ok());
    EXPECT_EQ(machine_.tier_of(0), Tier::kFast);
    EXPECT_EQ(machine_.now(), before);
    EXPECT_EQ(machine_.totals().migration_busy_ns, busy_before);
    EXPECT_EQ(machine_.totals().tx_free_flips, 1u);
    EXPECT_EQ(machine_.totals().promoted_pages, 1u);
    // Roles swapped: the secondary copy now lives in the slow tier.
    EXPECT_TRUE(machine_.tx_page_dual(0));
    EXPECT_EQ(machine_.tx_reclaimable_pages(Tier::kFast), 0u);
    EXPECT_EQ(machine_.tx_reclaimable_pages(Tier::kSlow), 1u);
}

TEST(TxDualWrite, WriteDropsTheSecondaryCopy)
{
    TieredMachine m(small_machine(4, 12));
    m.install_tx(tx_on(1.0));  // every access is a write
    m.prefault_range(0, 12);
    // Commit a demotion without touching the page mid-window: no
    // accesses means no draws, so even at rate 1.0 it lands cleanly.
    ASSERT_TRUE(m.migrate(0, Tier::kSlow).pending());
    m.advance(kWholeWindow);
    ASSERT_EQ(m.poll_tx(), 1u);
    ASSERT_TRUE(m.tx_page_dual(0));
    const std::size_t fast_used = m.used_pages(Tier::kFast);
    EXPECT_EQ(m.access(0), Tier::kSlow);
    EXPECT_FALSE(m.tx_page_dual(0));
    EXPECT_EQ(m.used_pages(Tier::kFast), fast_used - 1);
    EXPECT_EQ(m.tx_reclaimable_pages(Tier::kFast), 0u);
    EXPECT_EQ(m.totals().tx_dual_drops, 1u);
    EXPECT_EQ(m.tx_write_hits(), 1u);
    // The dropped copy cannot be free-flipped: promotion reopens a
    // full transaction.
    EXPECT_TRUE(m.migrate(0, Tier::kFast).pending());
}

TEST_F(TxDual, CapacityDemandReclaimsTheDualSlot)
{
    TieredMachine& m = machine_;
    // The fast tier is nominally full (3 exclusive + 1 dual copy); a
    // promotion must evict the clean dual copy rather than fail.
    ASSERT_EQ(m.used_pages(Tier::kFast), m.capacity_pages(Tier::kFast));
    ASSERT_EQ(m.free_pages(Tier::kFast), 1u);
    EXPECT_TRUE(m.migrate(4, Tier::kFast).pending());
    EXPECT_EQ(m.totals().tx_dual_reclaims, 1u);
    EXPECT_FALSE(m.tx_page_dual(0));
    EXPECT_EQ(m.tx_reclaimable_pages(Tier::kFast), 0u);
    EXPECT_EQ(m.used_pages(Tier::kFast), m.capacity_pages(Tier::kFast));
}

TEST(TxCapacity, FullDestinationWithoutDualsIsNoFreeSlot)
{
    TieredMachine m(small_machine(4, 12));
    m.install_tx(tx_on());
    m.prefault_range(0, 12);  // fast full, nothing reclaimable
    const auto r = m.migrate(4, Tier::kFast);
    EXPECT_EQ(r.status, MigrateStatus::kNoFreeSlot);
    EXPECT_EQ(m.totals().failed_no_slot, 1u);
    EXPECT_EQ(m.tx_inflight_count(), 0u);
    EXPECT_EQ(m.used_pages(Tier::kFast), 4u);
}

// --- exchanges -------------------------------------------------------

TEST(TxExchange, OneTransactionCoversThePairAndChargesNoShadow)
{
    TieredMachine m(small_machine(4, 12));
    m.install_tx(tx_on());
    m.prefault_range(0, 12);
    const std::size_t fast_used = m.used_pages(Tier::kFast);
    const std::size_t slow_used = m.used_pages(Tier::kSlow);
    const auto r = m.exchange(0, 4);  // fast <-> slow
    EXPECT_TRUE(r.pending());
    EXPECT_EQ(m.tx_inflight_count(), 1u);
    EXPECT_TRUE(m.tx_page_inflight(0));
    EXPECT_TRUE(m.tx_page_inflight(4));
    // Bounce-buffer copies: neither tier is charged a shadow slot.
    EXPECT_FALSE(m.tx_page_shadow(0));
    EXPECT_FALSE(m.tx_page_shadow(4));
    EXPECT_EQ(m.used_pages(Tier::kFast), fast_used);
    EXPECT_EQ(m.used_pages(Tier::kSlow), slow_used);

    m.advance(kWholeWindow);
    EXPECT_EQ(m.poll_tx(), 1u);
    EXPECT_EQ(m.tier_of(0), Tier::kSlow);
    EXPECT_EQ(m.tier_of(4), Tier::kFast);
    EXPECT_FALSE(m.tx_page_dual(0));
    EXPECT_FALSE(m.tx_page_dual(4));
    EXPECT_EQ(m.totals().exchanges, 1u);
    EXPECT_EQ(m.totals().tx_committed, 1u);
}

TEST(TxExchange, WriteToEitherPageAbortsBoth)
{
    TieredMachine m(small_machine(4, 12));
    m.install_tx(tx_on(1.0));
    m.prefault_range(0, 12);
    ASSERT_TRUE(m.exchange(0, 4).pending());
    // A write to the peer kills the whole pair transaction.
    EXPECT_EQ(m.access(4), Tier::kSlow);
    EXPECT_FALSE(m.tx_page_inflight(0));
    EXPECT_FALSE(m.tx_page_inflight(4));
    EXPECT_EQ(m.tx_inflight_count(), 0u);
    EXPECT_EQ(m.totals().tx_aborted, 1u);
    EXPECT_EQ(m.tier_of(0), Tier::kFast);
    EXPECT_EQ(m.tier_of(4), Tier::kSlow);
    // Both pages carry the aborted mark: the reopen retries both.
    ASSERT_TRUE(m.exchange(0, 4).pending());
    EXPECT_EQ(m.totals().tx_retries, 2u);
}

// --- resolution callback ---------------------------------------------

TEST(TxHandler, CommitEventsArriveInOpenOrder)
{
    TieredMachine m(small_machine(4, 12));
    m.install_tx(tx_on());
    m.prefault_range(0, 12);
    std::vector<std::pair<PageId, bool>> events;
    m.set_tx_handler([&](PageId page, Tier, Tier, bool committed) {
        events.emplace_back(page, committed);
    });
    ASSERT_TRUE(m.migrate(0, Tier::kSlow).pending());
    ASSERT_TRUE(m.migrate(1, Tier::kSlow).pending());
    ASSERT_TRUE(m.migrate(2, Tier::kSlow).pending());
    m.advance(kWholeWindow);
    EXPECT_EQ(m.poll_tx(), 3u);
    ASSERT_EQ(events.size(), 3u);
    // Same cost -> same commit_time; seq (open order) breaks the tie.
    EXPECT_EQ(events[0], (std::pair<PageId, bool>{0, true}));
    EXPECT_EQ(events[1], (std::pair<PageId, bool>{1, true}));
    EXPECT_EQ(events[2], (std::pair<PageId, bool>{2, true}));
}

TEST(TxHandler, AbortEventPrecedesLaterCommit)
{
    TieredMachine m(small_machine(4, 12));
    m.install_tx(tx_on(1.0));
    m.prefault_range(0, 12);
    std::vector<std::pair<PageId, bool>> events;
    m.set_tx_handler([&](PageId page, Tier, Tier, bool committed) {
        events.emplace_back(page, committed);
    });
    ASSERT_TRUE(m.migrate(0, Tier::kSlow).pending());
    ASSERT_TRUE(m.migrate(1, Tier::kSlow).pending());
    m.access(0);  // write -> abort page 0's transaction
    m.advance(kWholeWindow);
    EXPECT_EQ(m.poll_tx(), 1u);  // page 1 commits
    ASSERT_EQ(events.size(), 2u);
    EXPECT_EQ(events[0], (std::pair<PageId, bool>{0, false}));
    EXPECT_EQ(events[1], (std::pair<PageId, bool>{1, true}));
}

TEST(TxHandler, HandlerMayReopenTransactions)
{
    TieredMachine m(small_machine(4, 12));
    m.install_tx(tx_on(1.0));
    m.prefault_range(0, 12);
    int reopened = 0;
    m.set_tx_handler([&](PageId page, Tier, Tier dst, bool committed) {
        if (!committed && reopened == 0) {
            ++reopened;
            EXPECT_TRUE(m.migrate(page, dst).pending());
        }
    });
    ASSERT_TRUE(m.migrate(0, Tier::kSlow).pending());
    m.access(0);  // abort; resolution is queued for the next poll
    EXPECT_EQ(m.poll_tx(), 0u);
    EXPECT_EQ(reopened, 1);
    EXPECT_TRUE(m.tx_page_inflight(0));
    EXPECT_EQ(m.totals().tx_retries, 1u);
}

// --- abort-storm scenario interplay ----------------------------------

TEST(TxStorm, StormRateOverridesBaselineWriteRatio)
{
    // abort_storm drives the write rate to 0.75 during bursts even
    // when the baseline ratio is zero, so in-flight pages do consume
    // draws and do abort under the storm.
    TieredMachine m(small_machine(4, 12));
    m.install_faults(make_fault_scenario("abort_storm", 3));
    m.install_tx(tx_on());
    m.prefault_range(0, 12);
    std::uint64_t aborted = 0;
    for (int round = 0; round < 400 && aborted == 0; ++round) {
        // Keep a transaction open on page 0 whenever possible: dual
        // copies free-flip until a storm write drops the secondary,
        // after which the reopen is a real in-flight window.
        if (!m.tx_page_inflight(0))
            (void)m.migrate(0, other_tier(m.tier_of(0)));
        m.access(0);
        m.advance(100'000);  // walk across storm bursts
        (void)m.poll_tx();
        aborted = m.totals().tx_aborted;
    }
    EXPECT_GT(aborted, 0u);
    EXPECT_GT(m.tx_write_draws(), 0u);
}

// --- engine-level determinism ----------------------------------------

TEST(TxEngine, AbortStormRunsAreReproducible)
{
    auto run = [] {
        sim::RunSpec spec;
        spec.workload = "ycsb";
        spec.policy = "artmem";
        spec.ratio = {1, 4};
        spec.accesses = 800000;
        spec.seed = 42;
        spec.engine.faults = make_fault_scenario("abort_storm", 1);
        spec.engine.tx.enabled = true;
        spec.engine.tx.write_ratio = 0.05;
        spec.engine.check_invariants = true;
        return sim::run_experiment(spec);
    };
    const auto a = run();
    const auto b = run();
    EXPECT_EQ(a.runtime_ns, b.runtime_ns);
    EXPECT_EQ(a.fast_ratio, b.fast_ratio);
    EXPECT_EQ(a.totals.tx_opened, b.totals.tx_opened);
    EXPECT_EQ(a.totals.tx_committed, b.totals.tx_committed);
    EXPECT_EQ(a.totals.tx_aborted, b.totals.tx_aborted);
    EXPECT_EQ(a.totals.tx_retries, b.totals.tx_retries);
    // The storm must actually bite for this test to mean anything.
    EXPECT_GT(a.totals.tx_opened, 0u);
    EXPECT_GT(a.totals.tx_aborted, 0u);
}

TEST(TxEngine, AllPoliciesSurviveTxWithInvariantAudits)
{
    for (const auto policy : sim::policy_names()) {
        sim::RunSpec spec;
        spec.workload = "s2";
        spec.policy = std::string(policy);
        spec.ratio = {1, 4};
        spec.accesses = 120000;
        spec.seed = 42;
        spec.engine.tx.enabled = true;
        spec.engine.tx.write_ratio = 0.1;
        spec.engine.check_invariants = true;
        const auto r = sim::run_experiment(spec);
        EXPECT_GT(r.accesses, 0u) << policy;
        // The tx ledger must balance (audited per interval inside the
        // run); at exit the only unaccounted opens are the still
        // in-flight windows, so opened can exceed committed + aborted
        // but never fall short.
        EXPECT_GE(r.totals.tx_opened,
                  r.totals.tx_committed + r.totals.tx_aborted)
            << policy;
    }
}

}  // namespace
}  // namespace artmem::memsim
