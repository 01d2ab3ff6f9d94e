/**
 * @file
 * Elementary generators (uniform random, sequential scan) used by the
 * tests, the MLC harness, and as mix-in components.
 */
#ifndef ARTMEM_WORKLOADS_SIMPLE_HPP
#define ARTMEM_WORKLOADS_SIMPLE_HPP

#include <algorithm>

#include "util/cursor.hpp"
#include "util/rng.hpp"
#include "workloads/generator.hpp"

namespace artmem::workloads {

/** Uniform random accesses over the whole footprint. */
class UniformRandom final : public AccessGenerator
{
  public:
    UniformRandom(Bytes footprint, Bytes page_size,
                  std::uint64_t total_accesses, std::uint64_t seed)
        : footprint_(footprint),
          pages_(static_cast<PageId>((footprint + page_size - 1) / page_size)),
          total_(total_accesses),
          rng_(seed)
    {
    }

    std::string_view name() const override { return "uniform"; }
    Bytes footprint() const override { return footprint_; }
    std::uint64_t total_accesses() const override { return total_; }

    std::size_t
    fill(std::span<PageId> out) override
    {
        const std::uint64_t budget = total_ - emitted_;
        const auto n = static_cast<std::size_t>(
            std::min<std::uint64_t>(budget, out.size()));
        for (std::size_t i = 0; i < n; ++i)
            out[i] = static_cast<PageId>(rng_.next_below(pages_));
        emitted_ += n;
        return n;
    }

  private:
    Bytes footprint_;
    PageId pages_;
    std::uint64_t total_;
    Rng rng_;
    std::uint64_t emitted_ = 0;
};

/** Repeated sequential sweeps over the footprint. */
class SequentialScan final : public AccessGenerator
{
  public:
    SequentialScan(Bytes footprint, Bytes page_size,
                   std::uint64_t total_accesses)
        : footprint_(footprint),
          pages_(static_cast<PageId>((footprint + page_size - 1) / page_size)),
          total_(total_accesses)
    {
    }

    std::string_view name() const override { return "sequential"; }
    Bytes footprint() const override { return footprint_; }
    std::uint64_t total_accesses() const override { return total_; }

    std::size_t
    fill(std::span<PageId> out) override
    {
        const std::uint64_t budget = total_ - emitted_;
        const auto n = static_cast<std::size_t>(
            std::min<std::uint64_t>(budget, out.size()));
        for (std::size_t i = 0; i < n; ++i) {
            out[i] = cursor_;
            step_cursor(cursor_, pages_);
        }
        emitted_ += n;
        return n;
    }

  private:
    Bytes footprint_;
    PageId pages_;
    std::uint64_t total_;
    PageId cursor_ = 0;
    std::uint64_t emitted_ = 0;
};

}  // namespace artmem::workloads

#endif  // ARTMEM_WORKLOADS_SIMPLE_HPP
