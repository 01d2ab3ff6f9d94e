#include "policies/autotiering.hpp"

#include <algorithm>

#include "util/cursor.hpp"

namespace artmem::policies {

void
AutoTiering::init(memsim::TieredMachine& machine)
{
    Policy::init(machine);
    fault_count_.assign(machine.page_count(), 0);
    exchange_queue_.clear();
    throttle_ =
        ScanThrottle(config_.scan_fraction, config_.target_faults_per_tick);
    scan_cursor_ = 0;
    victim_cursor_ = 0;
    // At most one slot per fast-tier page: the index never reallocates.
    fast_pages_.clear();
    fast_pages_.reserve(std::min(machine.page_count(),
                                 machine.capacity_pages(memsim::Tier::kFast)));
    fast_pages_stale_ = true;
    machine.set_fault_handler(
        [this](PageId page, memsim::Tier tier) { on_hint_fault(page, tier); });
}

void
AutoTiering::on_hint_fault(PageId page, memsim::Tier tier)
{
    throttle_.on_fault();
    ++fault_count_[page];
    if (tier != memsim::Tier::kSlow)
        return;
    auto& m = machine();
    if (m.free_pages(memsim::Tier::kFast) > 0) {
        // OPM: opportunistic promotion on the first fault. A transient
        // injected failure (aborted copy, contended destination) defers
        // the page to the exchange pass instead of dropping it; a pinned
        // page is dropped — retrying is futile.
        const auto result = m.migrate(page, memsim::Tier::kFast);
        if (result.transient())
            exchange_queue_.push_back(page);
    } else {
        // Fast tier full: defer to the interval's exchange pass.
        exchange_queue_.push_back(page);
    }
}

void
AutoTiering::on_tick(SimTimeNs now)
{
    (void)now;
    auto& m = machine();
    const std::size_t pages = m.page_count();
    auto window = std::max<std::size_t>(
        1, static_cast<std::size_t>(static_cast<double>(pages) *
                                    throttle_.tick()));
    for (std::size_t i = 0; i < window; ++i) {
        const PageId page = scan_cursor_;
        step_cursor(scan_cursor_, pages);
        if (m.is_allocated(page))
            m.set_trap(page);
    }
    m.charge_overhead(window * config_.scan_cost_ns);
}

void
AutoTiering::rebuild_fast_index()
{
    const auto& m = machine();
    fast_pages_.clear();
    const std::size_t pages = m.page_count();
    for (std::size_t i = 0; i < pages; ++i) {
        const auto page = static_cast<PageId>(i);
        if (m.is_allocated(page) &&
            m.tier_of_unchecked(page) == memsim::Tier::kFast)
            fast_pages_.push_back(page);
    }
    fast_pages_stale_ = false;
}

PageId
AutoTiering::find_cold_fast_page()
{
    // Sampled min-scan by fault count over the next victim_scan
    // fast-tier pages in page-id order from the cursor, wrapping: the
    // pages a walk over page ids would examine, without visiting the
    // slow and unallocated ids in between.
    if (fast_pages_stale_)
        rebuild_fast_index();
    const PageId start = victim_cursor_;
    const std::size_t fast = fast_pages_.size();
    const std::size_t examined = std::min(fast, config_.victim_scan);
    PageId coldest = kInvalidPage;
    if (examined > 0) {
        std::uint32_t coldest_count = ~0u;
        auto i = static_cast<std::size_t>(
            std::lower_bound(fast_pages_.begin(), fast_pages_.end(), start) -
            fast_pages_.begin());
        PageId page = kInvalidPage;
        for (std::size_t n = 0; n < examined; ++n, ++i) {
            if (i == fast)
                i = 0;
            page = fast_pages_[i];
            if (fault_count_[page] < coldest_count) {
                coldest_count = fault_count_[page];
                coldest = page;
            }
        }
        // A walk that examined victim_scan pages stops just past the
        // last one; with fewer fast pages it went full circle back to
        // the cursor.
        if (examined == config_.victim_scan) {
            victim_cursor_ = page;
            step_cursor(victim_cursor_, machine().page_count());
        }
    }
    machine().charge_overhead(examined * config_.scan_cost_ns);
    if (on_victim_search_)
        on_victim_search_(start, coldest, examined);
    return coldest;
}

void
AutoTiering::on_interval(SimTimeNs now)
{
    auto& m = machine();
    std::size_t exchanged = 0;
    fast_pages_stale_ = true;
    for (PageId page : exchange_queue_) {
        if (exchanged >= config_.exchange_limit)
            break;
        if (!m.is_allocated(page) ||
            m.tier_of(page) != memsim::Tier::kSlow) {
            continue;
        }
        if (m.free_pages(memsim::Tier::kFast) > 0) {
            const auto result = m.migrate(page, memsim::Tier::kFast);
            fast_pages_stale_ = true;
            if (result.ok() || result.pending())
                ++exchanged;
            continue;
        }
        const PageId victim = find_cold_fast_page();
        if (victim == kInvalidPage)
            break;
        // CPM: swap only when the candidate is clearly hotter than the
        // victim (a margin of one fault avoids ping-pong between pages
        // of equal heat).
        if (fault_count_[page] > fault_count_[victim] + 1) {
            const auto result = m.exchange(page, victim);
            fast_pages_stale_ = true;
            if (result.ok() || result.pending())
                ++exchanged;
        }
    }
    exchange_queue_.clear();

    // Age fault counts periodically so ordering follows recent behaviour.
    if (++interval_count_ % config_.decay_every == 0) {
        for (auto& c : fault_count_)
            c >>= 1;
    }
    if (auto* t = trace(telemetry::Category::kMigration)) {
        t->instant(telemetry::Category::kMigration, "policy_interval", now,
                   telemetry::Args()
                       .add("policy", name())
                       .add("exchanged",
                            static_cast<std::uint64_t>(exchanged))
                       .str());
    }
}

}  // namespace artmem::policies
