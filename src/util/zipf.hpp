/**
 * @file
 * Zipfian distribution sampler.
 *
 * Used by the YCSB-like key-value workload and the skewed-region
 * generators; memory access frequencies typically follow a Zipfian or
 * Pareto distribution (ArtMem paper Section 4.3, citing [8, 10]).
 *
 * The sampler's semantics are the Gray et al. closed form (rank_of()).
 * Because that form costs one libm pow() per draw and workload
 * generation dominates simulator wall time (DESIGN.md §9), construction
 * additionally builds an inverse-CDF table for the hottest ranks. Each
 * rank's upper boundary is seeded from the analytic inverse of the
 * closed form and then proven with a narrow bracket of double bit
 * patterns: rank_of(lo) <= r < rank_of(hi). The table keeps hi, and a
 * draw that lands inside a bracket (1e-9 of draws or fewer on the
 * workloads' generators) takes the closed form. A draw inside the
 * table indexes a guide grid for a start rank and then takes a fixed
 * number of branch-free steps over the boundaries; any other draw (and
 * any table whose verification failed) takes the closed form.
 * Both paths return bit-identical ranks for every representable u —
 * enforced by tests/test_diff_model.cpp, which cross-checks millions of
 * draws and sweeps every bracket end.
 */
#ifndef ARTMEM_UTIL_ZIPF_HPP
#define ARTMEM_UTIL_ZIPF_HPP

#include <bit>
#include <cstdint>
#include <span>
#include <vector>

#include "util/rng.hpp"

namespace artmem {

/**
 * Zipfian sampler over [0, n) with exponent theta, using the
 * Gray et al. "quick and portable" method popularized by YCSB's
 * ZipfianGenerator. Draws are O(1).
 */
class ZipfianGenerator
{
  public:
    /**
     * @param n     Number of items (must be >= 1).
     * @param theta Skew parameter in (0, 1); YCSB default is 0.99.
     */
    ZipfianGenerator(std::uint64_t n, double theta = 0.99);

    /** Draw the next item rank; rank 0 is the most popular item. */
    std::uint64_t next(Rng& rng) const { return rank_for(rng.next_double()); }

    /**
     * The rank next() returns for unit draw @p u: the table path when
     * @p u falls under the table, the closed form otherwise. Always
     * equal to rank_of(u).
     */
    std::uint64_t
    rank_for(double u) const
    {
        if (u < table_end_)
            return rank_from_table(u);
        return rank_of(u);
    }

    /**
     * The reference closed form: the rank the Gray et al. method
     * assigns to unit draw @p u. Public so the differential tests can
     * pit it against the table path.
     */
    std::uint64_t rank_of(double u) const;

    /** Number of items. */
    std::uint64_t item_count() const { return n_; }

    /** Skew exponent. */
    double theta() const { return theta_; }

    /** Ranks covered by the verified fast-path table (0 if disabled). */
    std::size_t table_ranks() const { return boundaries_.size(); }

    /**
     * Upper bracket end b[r] of every table rank: rank_of(b[r]) > r,
     * and rank_of(u) <= r for every u at least table_slack() bit
     * patterns below b[r].
     */
    std::span<const double> table_boundaries() const { return boundaries_; }

    /** Bracket width in ULPs shared by every table rank. */
    std::uint64_t table_slack() const { return slack_; }

    /**
     * Steps rank_from_table() takes after its guide lookup. A table
     * whose widest guide entry spans more boundaries than this is
     * dropped at construction.
     */
    static constexpr std::size_t kWalkSteps = 4;

    /** Guide entries a table draw can index (0 if disabled). */
    std::size_t table_guide_entries() const { return guide_.size(); }

    /** Guide entries per unit u: draw u indexes entry u * scale. */
    double table_guide_scale() const { return guide_scale_; }

    /** Boundaries the widest guide entry spans (<= kWalkSteps). */
    std::size_t table_walk_span() const { return walk_span_; }

  private:
    static double zeta(std::uint64_t n, double theta);

    void build_table();
    bool verify_table() const;

    /**
     * Table lookup for u < table_end_. guide_[g] counts the boundaries
     * below every draw that indexes entry g, so it never exceeds the
     * rank of u, and build_table() proved that no entry holds more
     * than kWalkSteps boundaries: the fixed walk below ends on the
     * first boundary above u. It cannot run past the table because
     * u < table_end_ == boundaries_.back(). Then u >= boundaries_[r-1]
     * proves rank >= r, and u at least slack_ ULPs under
     * boundaries_[r] proves rank <= r; a u inside the bracket takes the
     * closed form.
     */
    std::uint64_t
    rank_from_table(double u) const
    {
        std::size_t r = guide_[static_cast<std::size_t>(u * guide_scale_)];
        for (std::size_t step = 0; step < kWalkSteps; ++step)
            r += boundaries_[r] <= u;
        if (std::bit_cast<std::uint64_t>(u) + slack_ <=
            std::bit_cast<std::uint64_t>(boundaries_[r]))
            return r;
        return rank_of(u);
    }

    std::uint64_t n_;
    double theta_;
    double alpha_;
    double zetan_;
    double eta_;
    double zeta2theta_;
    /** 1.0 + 0.5^theta, the rank-1 cutoff of the closed form. */
    double threshold12_;
    /** boundaries_[r]: upper end of rank r's proven bracket. */
    std::vector<double> boundaries_;
    /** Bracket width in ULPs: the max over every table rank. */
    std::uint64_t slack_ = 0;
    /** boundaries_.back(), or 0.0 (no u routes to the table) if none. */
    double table_end_ = 0.0;
    /**
     * Per-entry start rank over a uniform u grid covering the table,
     * with one extra entry for the draws just under table_end_ whose
     * product with guide_scale_ rounds up to the grid size.
     */
    std::vector<std::uint16_t> guide_;
    /** Grid entries per unit u: grid size / table_end_. */
    double guide_scale_ = 0.0;
    /** Boundaries the widest guide entry spans. */
    std::size_t walk_span_ = 0;
};

}  // namespace artmem

#endif  // ARTMEM_UTIL_ZIPF_HPP
