#include "memsim/pebs.hpp"

#include <algorithm>

#include "util/logging.hpp"

namespace artmem::memsim {

PebsSampler::PebsSampler(const Config& config)
    : period_(config.period), countdown_(config.period)
{
    if (config.period == 0)
        fatal("PebsSampler: period must be positive");
    if (config.buffer_capacity == 0)
        fatal("PebsSampler: buffer_capacity must be positive");
    slots_.resize(config.buffer_capacity);
}

std::size_t
PebsSampler::drain(std::vector<PebsSample>& out, std::size_t max_items)
{
    const std::size_t n = std::min(max_items, size_);
    const auto first = slots_.begin();
    const auto taken = first + static_cast<std::ptrdiff_t>(n);
    out.insert(out.end(), first, taken);
    std::copy(taken, first + static_cast<std::ptrdiff_t>(size_), first);
    size_ -= n;
    return n;
}

void
PebsSampler::set_period(std::uint32_t period)
{
    if (period == 0)
        fatal("PebsSampler: period must be positive");
    period_ = period;
    if (countdown_ > period_)
        countdown_ = period_;
}

}  // namespace artmem::memsim
