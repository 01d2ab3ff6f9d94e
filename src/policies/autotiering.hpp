/**
 * @file
 * AutoTiering (USENIX ATC'21) emulation.
 *
 * Key designs reproduced: promotion is *opportunistic* — a slow-tier
 * page is promoted on its very first hint fault when the fast tier has
 * free space (OPM); when the fast tier is full, the faulting page's
 * NUMA-fault count is compared with the coldest fast-tier pages and the
 * two are *exchanged* (CPM swap migration). Pages are effectively sorted
 * by per-page fault counts. Fast at separating clearly hot from clearly
 * cold data; churns on warm data because single faults trigger moves
 * (Table 1: disadvantage "warm data").
 */
#ifndef ARTMEM_POLICIES_AUTOTIERING_HPP
#define ARTMEM_POLICIES_AUTOTIERING_HPP

#include <functional>
#include <vector>

#include "policies/policy.hpp"
#include "policies/scan_throttle.hpp"

namespace artmem::policies {

/** AutoTiering: opportunistic promotion + exchange migrations. */
class AutoTiering final : public Policy
{
  public:
    /** Tunables. */
    struct Config {
        /** Fraction of the address space trap-armed per tick. */
        double scan_fraction = 1.0 / 32.0;
        /** Halve fault counts every N intervals (history retention). */
        unsigned decay_every = 8;
        /** Pages examined when searching for a cold exchange victim. */
        std::size_t victim_scan = 128;
        /** Exchanges allowed per interval (swap-migration rate limit). */
        std::size_t exchange_limit = 32;
        /** CPU cost per page scanned (ns). */
        SimTimeNs scan_cost_ns = 8;
        /** Fault-rate target per tick for adaptive scan throttling. */
        std::uint64_t target_faults_per_tick = 150;
    };

    AutoTiering() = default;
    explicit AutoTiering(const Config& config) : config_(config) {}

    std::string_view name() const override { return "autotiering"; }

    void init(memsim::TieredMachine& machine) override;
    void on_hint_fault(PageId page, memsim::Tier tier) override;
    void on_tick(SimTimeNs now) override;
    void on_interval(SimTimeNs now) override;

  private:
    friend struct AutoTieringTestPeer;

    void rebuild_fast_index();
    PageId find_cold_fast_page();

    Config config_;
    std::vector<std::uint32_t> fault_count_;
    std::vector<PageId> exchange_queue_;
    /**
     * Sorted allocated fast-tier pages: the victim search's candidates.
     * Rebuilt at the first search of each exchange pass and after every
     * migrate()/exchange() inside it — nothing else changes tiers while
     * the pass runs.
     */
    std::vector<PageId> fast_pages_;
    bool fast_pages_stale_ = true;
    /** Test-only observer of each victim search: (cursor before the
     *  search, victim, pages examined). Null outside tests. */
    std::function<void(PageId, PageId, std::size_t)> on_victim_search_;
    ScanThrottle throttle_{1.0 / 32.0, 48};
    PageId scan_cursor_ = 0;
    PageId victim_cursor_ = 0;
    unsigned interval_count_ = 0;
};

}  // namespace artmem::policies

#endif  // ARTMEM_POLICIES_AUTOTIERING_HPP
