#include "policies/nimble.hpp"

#include <algorithm>

namespace artmem::policies {

void
Nimble::init(memsim::TieredMachine& machine)
{
    Policy::init(machine);
    hot_streak_.assign(machine.page_count(), 0);
    cold_streak_.assign(machine.page_count(), 0);
    interval_count_ = 0;
}

void
Nimble::on_interval(SimTimeNs now)
{
    if (++interval_count_ % config_.scan_every != 0)
        return;
    auto& m = machine();
    const std::size_t pages = m.page_count();

    promote_.clear();
    demote_.clear();
    for (PageId page = 0; page < pages; ++page) {
        if (!m.is_allocated(page))
            continue;
        const bool accessed = m.test_and_clear_accessed(page);
        if (accessed) {
            hot_streak_[page] =
                static_cast<std::uint8_t>(std::min(255, hot_streak_[page] + 1));
            cold_streak_[page] = 0;
        } else {
            cold_streak_[page] =
                static_cast<std::uint8_t>(std::min(255, cold_streak_[page] + 1));
            hot_streak_[page] = 0;
        }
        const bool fast = m.tier_of_unchecked(page) == memsim::Tier::kFast;
        if (!fast && hot_streak_[page] >= config_.hot_rounds)
            promote_.push_back(page);
        else if (fast && cold_streak_[page] >= config_.hot_rounds)
            demote_.push_back(page);
    }
    m.charge_overhead(pages * config_.scan_cost_ns);

    // Batched migration: longest-hot candidates first (the only ranking
    // one accessed bit per round can provide), demote just enough cold
    // pages to make room, then promote the batch. Coldest-longest first.
    std::sort(promote_.begin(), promote_.end(),
              [this](PageId a, PageId b) {
                  return hot_streak_[a] > hot_streak_[b];
              });
    if (promote_.size() > config_.batch_pages)
        promote_.resize(config_.batch_pages);
    std::sort(demote_.begin(), demote_.end(),
              [this](PageId a, PageId b) {
                  return cold_streak_[a] > cold_streak_[b];
              });
    std::size_t need = promote_.size() > m.free_pages(memsim::Tier::kFast)
                           ? promote_.size() -
                                 m.free_pages(memsim::Tier::kFast)
                           : 0;
    std::size_t demoted = 0;
    for (PageId page : demote_) {
        if (need == 0)
            break;
        const auto result = m.migrate(page, memsim::Tier::kSlow);
        if (result.ok() || result.pending()) {
            --need;
            ++demoted;
        }
    }
    std::size_t promoted = 0;
    for (PageId page : promote_) {
        const auto result = m.migrate(page, memsim::Tier::kFast);
        if (result.ok() || result.pending())
            ++promoted;
    }
    if (auto* t = trace(telemetry::Category::kMigration)) {
        t->instant(telemetry::Category::kMigration, "policy_interval", now,
                   telemetry::Args()
                       .add("policy", name())
                       .add("promoted",
                            static_cast<std::uint64_t>(promoted))
                       .add("demoted",
                            static_cast<std::uint64_t>(demoted))
                       .str());
    }
}

}  // namespace artmem::policies
