#include "memsim/tenant_ledger.hpp"

#include "util/logging.hpp"

namespace artmem::memsim {

TenantLedger::TenantLedger(std::uint32_t tenants, std::size_t page_count)
    : tenants_(tenants)
{
    if (tenants_ == 0)
        fatal("TenantLedger: tenant count must be positive");
    if (tenants_ > 65535)
        fatal("TenantLedger: tenant count ", tenants_,
              " exceeds the 16-bit ownership map");
    if (page_count == 0)
        fatal("TenantLedger: empty address space");
    owner_.assign(page_count, 0);
    used_.assign(static_cast<std::size_t>(tenants_) * kTierCount, 0);
    quota_.assign(tenants_, kNoQuota);
    pending_gain_.assign(tenants_, 0);
    totals_.assign(tenants_, Totals{});
    window_base_.assign(tenants_, Totals{});
}

void
TenantLedger::set_owner_span(PageId first, std::size_t pages,
                             std::uint32_t tenant)
{
    if (tenant >= tenants_)
        fatal("TenantLedger: tenant ", tenant, " out of range [0, ",
              tenants_, ")");
    if (first + pages > owner_.size())
        fatal("TenantLedger: span [", first, ", ", first + pages,
              ") exceeds the ", owner_.size(), "-page address space");
    for (std::size_t i = 0; i < pages; ++i)
        owner_[first + i] = static_cast<std::uint16_t>(tenant);
}

void
TenantLedger::set_quota(std::uint32_t tenant, std::size_t fast_pages)
{
    if (tenant >= tenants_)
        fatal("TenantLedger: tenant ", tenant, " out of range [0, ",
              tenants_, ")");
    quota_[tenant] = fast_pages;
}

TenantDecision
TenantLedger::check_migration(PageId page, Tier dst, bool charges_dst)
{
    if (dst != Tier::kFast)
        return TenantDecision::kAdmit;
    const std::uint32_t tenant = owner_[page];
    if (charges_dst && fast_claim(tenant) >= quota_[tenant]) {
        ++totals_[tenant].quota_denied;
        return TenantDecision::kQuotaDenied;
    }
    if (admission_ != nullptr) {
        if (!admission_->admit(tenant, dst)) {
            ++totals_[tenant].admission_denied;
            return TenantDecision::kAdmissionDenied;
        }
        ++totals_[tenant].admission_grants;
    }
    return TenantDecision::kAdmit;
}

TenantDecision
TenantLedger::check_exchange(PageId promoted, PageId demoted)
{
    const std::uint32_t gaining = owner_[promoted];
    if (gaining != owner_[demoted] &&
        fast_claim(gaining) >= quota_[gaining]) {
        ++totals_[gaining].quota_denied;
        return TenantDecision::kQuotaDenied;
    }
    if (admission_ != nullptr) {
        if (!admission_->admit(gaining, Tier::kFast)) {
            ++totals_[gaining].admission_denied;
            return TenantDecision::kAdmissionDenied;
        }
        ++totals_[gaining].admission_grants;
    }
    return TenantDecision::kAdmit;
}

double
TenantLedger::window_fast_ratio(std::uint32_t tenant) const
{
    const std::uint64_t fast = window_accesses(tenant, 0);
    const std::uint64_t total = fast + window_accesses(tenant, 1);
    return total == 0
               ? 1.0
               : static_cast<double>(fast) / static_cast<double>(total);
}

double
TenantLedger::aggregate_window_fast_ratio() const
{
    std::uint64_t fast = 0;
    std::uint64_t total = 0;
    for (std::uint32_t t = 0; t < tenants_; ++t) {
        fast += window_accesses(t, 0);
        total += window_accesses(t, 0) + window_accesses(t, 1);
    }
    return total == 0
               ? 1.0
               : static_cast<double>(fast) / static_cast<double>(total);
}

void
TenantLedger::interval_feedback()
{
    if (admission_ != nullptr)
        admission_->on_interval(*this);
    window_base_ = totals_;
}

}  // namespace artmem::memsim
