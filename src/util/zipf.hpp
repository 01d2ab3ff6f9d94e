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
 * table indexes a guide grid for a start rank and linearly scans at
 * most a couple of boundaries; any other draw (and any table whose
 * verification failed) takes the closed form.
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

  private:
    static double zeta(std::uint64_t n, double theta);

    void build_table();
    bool verify_table() const;

    /**
     * Table lookup for u < table_end_. The guide grid gives a start
     * rank; the scan below is correct for any start hint (it walks to
     * the first boundary above u in both directions), so floating
     * rounding in the guide index cannot change the result — only add
     * a step to the scan. Then u >= boundaries_[r-1] proves rank >= r,
     * and u at least slack_ ULPs under boundaries_[r] proves rank <= r;
     * a u inside the bracket takes the closed form.
     */
    std::uint64_t
    rank_from_table(double u) const
    {
        auto g = static_cast<std::size_t>(u * guide_scale_);
        if (g >= guide_.size())
            g = guide_.size() - 1;
        std::size_t r = guide_[g];
        while (r > 0 && boundaries_[r - 1] > u)
            --r;
        while (boundaries_[r] <= u)
            ++r;
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
    /** Per-entry start rank over a uniform u grid covering the table. */
    std::vector<std::uint16_t> guide_;
    /** Guide entries per unit u: guide_.size() / table_end_. */
    double guide_scale_ = 0.0;
};

/**
 * A "scrambled" Zipfian: Zipfian ranks hashed across the key space, so
 * the popular items are spread uniformly over the address range, as in
 * YCSB's ScrambledZipfianGenerator.
 */
class ScrambledZipfianGenerator
{
  public:
    ScrambledZipfianGenerator(std::uint64_t n, double theta = 0.99);

    /** Draw the next item id in [0, n). */
    std::uint64_t next(Rng& rng);

  private:
    ZipfianGenerator base_;
    std::uint64_t n_;
};

}  // namespace artmem

#endif  // ARTMEM_UTIL_ZIPF_HPP
