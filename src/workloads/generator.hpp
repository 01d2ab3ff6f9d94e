/**
 * @file
 * Workload abstraction: a generator of page-granular memory accesses.
 *
 * Tiering policies only ever observe which pages a program touches and
 * in what order, so each of the paper's applications is reproduced as
 * an AccessGenerator that emits the page-access stream with that
 * application's characteristic pattern (locality, skew, phase changes).
 * The simulation engine pulls accesses in batches and feeds them to the
 * TieredMachine.
 */
#ifndef ARTMEM_WORKLOADS_GENERATOR_HPP
#define ARTMEM_WORKLOADS_GENERATOR_HPP

#include <span>
#include <string_view>

#include "util/types.hpp"

namespace artmem::workloads {

/** Produces a finite stream of page accesses. */
class AccessGenerator
{
  public:
    virtual ~AccessGenerator() = default;

    /** Workload identifier ("ycsb", "cc", "s1", ...). */
    virtual std::string_view name() const = 0;

    /** Virtual-address footprint in bytes (machine sizing). */
    virtual Bytes footprint() const = 0;

    /**
     * Fill @p out with the next page ids to access.
     *
     * Contract: every call writes exactly min(out.size(), remaining)
     * ids, where remaining is total_accesses() minus what earlier calls
     * wrote, so only the last non-empty batch can be short. The split
     * into batches therefore never depends on the generator, and a
     * stream materialised once replays through StreamReplay
     * (workloads/trace.hpp) batch-for-batch like live generation
     * (DESIGN.md §7).
     *
     * @return number written; 0 means the workload has finished.
     */
    virtual std::size_t fill(std::span<PageId> out) = 0;

    /**
     * Total accesses this generator will produce over its lifetime:
     * exactly the sum of everything fill() writes.
     */
    virtual std::uint64_t total_accesses() const = 0;
};

}  // namespace artmem::workloads

#endif  // ARTMEM_WORKLOADS_GENERATOR_HPP
