#include "policies/memtis.hpp"

#include <algorithm>

namespace artmem::policies {

void
Memtis::init(memsim::TieredMachine& machine)
{
    Policy::init(machine);
    bins_ = std::make_unique<stats::EmaBins>(machine.page_count(),
                                             config_.cooling_period);
    threshold_ = 1;
}

void
Memtis::on_samples(std::span<const memsim::PebsSample> samples)
{
    for (const auto& s : samples)
        bins_->record(s.page);
    if (bins_->cooling_due())
        bins_->cool();
}

void
Memtis::on_interval(SimTimeNs now)
{
    auto& m = machine();
    const std::uint32_t old_threshold = threshold_;
    threshold_ = config_.manual_threshold > 0
                     ? config_.manual_threshold
                     : bins_->capacity_threshold(
                           m.capacity_pages(memsim::Tier::kFast));
    if (threshold_ != old_threshold) {
        if (auto* t = trace(telemetry::Category::kThreshold)) {
            t->instant(telemetry::Category::kThreshold, "move", now,
                       telemetry::Args()
                           .add("threshold", threshold_)
                           .str());
        }
    }

    // Promote everything at or above the threshold; demote cold pages
    // (lowest counts first) to make room. No scope control beyond the
    // bandwidth-style rate limit.
    promote_.clear();
    demote_.clear();
    const std::size_t pages = m.page_count();
    // The classification pass walks every page each interval — the CPU
    // cost of MEMTIS's migration threads the paper measures at ~10x
    // ArtMem's (Section 6.3.3).
    m.charge_overhead(pages * 4);
    for (PageId page = 0; page < pages; ++page) {
        if (!m.is_allocated(page))
            continue;
        const bool hot = bins_->count(page) >= threshold_;
        const bool fast = m.tier_of_unchecked(page) == memsim::Tier::kFast;
        if (hot && !fast)
            promote_.push_back(page);
        else if (!hot && fast)
            demote_.push_back(page);
    }

    // Hottest candidates first; coldest victims first.
    std::sort(promote_.begin(), promote_.end(),
              [this](PageId a, PageId b) {
                  return bins_->count(a) > bins_->count(b);
              });
    std::sort(demote_.begin(), demote_.end(),
              [this](PageId a, PageId b) {
                  return bins_->count(a) < bins_->count(b);
              });

    std::size_t moved = 0;
    std::size_t victim = 0;
    bool out_of_victims = false;
    for (PageId page : promote_) {
        if (moved >= config_.migrate_limit)
            break;
        while (m.free_pages(memsim::Tier::kFast) == 0) {
            if (victim >= demote_.size()) {
                out_of_victims = true;
                break;
            }
            // Only a successful (or transactionally pending) demotion
            // counts against the rate limit; a failed one (pinned or
            // aborted under fault injection) moved nothing, so the
            // next victim is tried instead.
            const auto result =
                m.migrate(demote_[victim++], memsim::Tier::kSlow);
            if (result.ok() || result.pending())
                ++moved;
            if (result.pending())
                break;  // the slot frees at commit, not now
        }
        if (out_of_victims)
            break;  // nothing cold to evict
        const auto result = m.migrate(page, memsim::Tier::kFast);
        if (result.ok() || result.pending())
            ++moved;
    }
    if (auto* t = trace(telemetry::Category::kMigration)) {
        t->instant(telemetry::Category::kMigration, "policy_interval", now,
                   telemetry::Args()
                       .add("policy", name())
                       .add("threshold", threshold_)
                       .add("candidates",
                            static_cast<std::uint64_t>(promote_.size()))
                       .add("moved", static_cast<std::uint64_t>(moved))
                       .str());
    }
}

}  // namespace artmem::policies
