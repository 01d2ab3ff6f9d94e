/**
 * @file
 * PEBS-style hardware access sampling.
 *
 * The Performance Monitoring Unit is modelled as a countdown: one out of
 * every `period` observed memory loads is recorded, with its page and
 * serving tier, into a bounded buffer that the (simulated) ksampled
 * thread later drains. Overflowing records are dropped and counted, as
 * real PEBS buffers do. The paper initializes the period to 200 and
 * adjusts it dynamically to bound CPU overhead (Section 6.4).
 *
 * ksampled is an event on the simulated clock, so the buffer is
 * thread-confined: the thread that records samples is the one that
 * drains them, and the buffer is plain memory with no atomics.
 */
#ifndef ARTMEM_MEMSIM_PEBS_HPP
#define ARTMEM_MEMSIM_PEBS_HPP

#include <cstdint>
#include <vector>

#include "memsim/tier.hpp"
#include "util/types.hpp"

namespace artmem::memsim {

/** One PEBS record: which page was loaded and from which tier. */
struct PebsSample {
    PageId page;
    Tier tier;
};

/** Periodic sampler feeding a bounded FIFO buffer. */
class PebsSampler
{
  public:
    /** Sampler configuration. */
    struct Config {
        /** Record one of every `period` accesses. */
        std::uint32_t period = 200;
        /** Buffer slots before drops occur (exactly this many). */
        std::size_t buffer_capacity = 1 << 14;
    };

    explicit PebsSampler(const Config& config);

    /** Observe one access; may record it. Hot path. */
    void
    observe(PageId page, Tier tier)
    {
        if (--countdown_ == 0) {
            countdown_ = period_;
            ++recorded_;
            if (size_ < slots_.size())
                slots_[size_++] = PebsSample{page, tier};
            else
                ++dropped_;
        }
    }

    /**
     * Append the oldest min(@p max_items, pending) samples to @p out in
     * FIFO order; the rest stay buffered. @return number drained.
     */
    std::size_t drain(std::vector<PebsSample>& out, std::size_t max_items);

    /** Current sampling period. */
    std::uint32_t period() const { return period_; }

    /**
     * Change the sampling period (the paper tunes this at runtime to
     * trade accuracy against overhead). Takes effect on the next sample.
     */
    void set_period(std::uint32_t period);

    /** Samples recorded (including ones later dropped by the buffer). */
    std::uint64_t recorded() const { return recorded_; }

    /** Samples dropped due to a full buffer. */
    std::uint64_t dropped() const { return dropped_; }

  private:
    std::vector<PebsSample> slots_;  ///< Pending samples are [0, size_).
    std::size_t size_ = 0;
    std::uint32_t period_;
    std::uint32_t countdown_;
    std::uint64_t recorded_ = 0;
    std::uint64_t dropped_ = 0;
};

}  // namespace artmem::memsim

#endif  // ARTMEM_MEMSIM_PEBS_HPP
