#include "util/zipf.hpp"

#include <algorithm>
#include <bit>
#include <cmath>
#include <limits>

#include "util/logging.hpp"

namespace artmem {

namespace {

/**
 * Positive finite doubles compare the same way their IEEE-754 bit
 * patterns do, so a bracket of k ULPs around u is a bit-pattern range
 * and every representable double in [0, 1) is one uint64 step apart.
 */
std::uint64_t
to_bits(double d)
{
    return std::bit_cast<std::uint64_t>(d);
}

double
from_bits(std::uint64_t b)
{
    return std::bit_cast<double>(b);
}

/** Ranks covered by the fast-path table (capped by the item count). */
constexpr std::size_t kTableRanks = 4096;

/**
 * Guide entries per table rank, uniform over [0, table end). Even in
 * the densest tail of the table an entry then spans only a boundary or
 * two, inside the lookup's fixed ZipfianGenerator::kWalkSteps.
 */
constexpr std::size_t kGuidePerRank = 4;

// A guide entry holds a rank index in [0, kTableRanks].
static_assert(kTableRanks <= std::numeric_limits<std::uint16_t>::max(),
              "table rank cap must fit the guide entry type");

/**
 * First bracket half-width in ULPs around a boundary guess, its growth
 * when the proof fails, and the widest half-width tried before the
 * table stops at that rank. The analytic guess lands within 64 ULPs of
 * the true boundary for over 99% of ranks on every workload's (n,
 * theta), so most ranks are proven by the first bracket.
 */
constexpr std::uint64_t kBracketUlps = 64;
constexpr std::uint64_t kBracketGrowth = 16;
constexpr std::uint64_t kMaxBracketUlps = kBracketUlps << 16;

/** Seeded bit-pattern probes under the table during verification. */
constexpr std::size_t kSprayProbes = 16384;

}  // namespace

double
ZipfianGenerator::zeta(std::uint64_t n, double theta)
{
    double sum = 0.0;
    // Direct summation; n is bounded in our use (region/item counts).
    for (std::uint64_t i = 1; i <= n; ++i)
        sum += 1.0 / std::pow(static_cast<double>(i), theta);
    return sum;
}

ZipfianGenerator::ZipfianGenerator(std::uint64_t n, double theta)
    : n_(n), theta_(theta)
{
    if (n == 0)
        fatal("ZipfianGenerator requires at least one item");
    if (theta <= 0.0 || theta >= 1.0)
        fatal("ZipfianGenerator theta must be in (0,1), got ", theta);
    alpha_ = 1.0 / (1.0 - theta_);
    zetan_ = zeta(n_, theta_);
    zeta2theta_ = zeta(2, theta_);
    eta_ = (1.0 - std::pow(2.0 / static_cast<double>(n_), 1.0 - theta_)) /
           (1.0 - zeta2theta_ / zetan_);
    // Caching 0.5^theta is exact: pow() is a pure function of its
    // arguments, so the cached double is bit-identical to the per-draw
    // recomputation the closed form used to do.
    threshold12_ = 1.0 + std::pow(0.5, theta_);
    build_table();
}

std::uint64_t
ZipfianGenerator::rank_of(double u) const
{
    const double uz = u * zetan_;
    if (uz < 1.0)
        return 0;
    if (uz < threshold12_)
        return 1;
    const auto rank = static_cast<std::uint64_t>(
        static_cast<double>(n_) * std::pow(eta_ * u - eta_ + 1.0, alpha_));
    return rank >= n_ ? n_ - 1 : rank;
}

void
ZipfianGenerator::build_table()
{
    // Rank n-1 has no upper boundary below u = 1.0, so at most n-1
    // boundaries exist; n == 1 keeps the closed form alone (its uz < 1
    // branch already makes that case cheap).
    const std::size_t ranks = static_cast<std::size_t>(
        std::min<std::uint64_t>(n_ - 1, kTableRanks));
    if (ranks == 0)
        return;

    const std::uint64_t one_bits = to_bits(1.0);
    boundaries_.reserve(ranks);
    for (std::size_t r = 0; r < ranks; ++r) {
        // Seed the boundary (the smallest u whose closed-form rank
        // exceeds r) from the analytic inverse of rank_of(): its two
        // cutoffs for ranks 0 and 1, and solving
        // n * (eta*u - eta + 1)^alpha = r + 1 for u beyond them.
        const double guess =
            r == 0   ? 1.0 / zetan_
            : r == 1 ? threshold12_ / zetan_
                     : 1.0 + std::expm1((1.0 - theta_) *
                                        std::log(static_cast<double>(r + 1) /
                                                 static_cast<double>(n_))) /
                                 eta_;
        if (!(guess > 0.0 && guess < 1.0))
            break;
        // Prove a bracket around the guess, widening it on failure:
        // rank_of(lo) <= r < rank_of(hi). Under weak monotonicity
        // (verified below) every u <= lo has rank <= r and every
        // u >= hi rank > r; a rank whose bracket cannot be proven ends
        // the table.
        const std::uint64_t g = to_bits(guess);
        bool proven = false;
        std::uint64_t lo = 0;
        std::uint64_t hi = 0;
        for (std::uint64_t w = kBracketUlps; w <= kMaxBracketUlps;
             w *= kBracketGrowth) {
            lo = g > w ? g - w : 0;
            hi = g + w;
            if (hi >= one_bits)
                break;
            if (rank_of(from_bits(lo)) <= r && rank_of(from_bits(hi)) > r) {
                proven = true;
                break;
            }
        }
        if (!proven)
            break;
        boundaries_.push_back(from_bits(hi));
        slack_ = std::max(slack_, hi - lo);
    }
    if (boundaries_.empty())
        return;

    // The table rank of u is the first index whose boundary exceeds it:
    // an upper-bound search. The guide grid turns that search into an
    // indexed jump plus a fixed walk. A draw u indexes entry
    // index(u) = u * guide_scale_, which is monotone in u (rounding
    // preserves order), so a boundary b lies below every draw of entry
    // e exactly when index(b) < e, and only boundaries with index(b) == e
    // can lie between a draw of e and the start. guide_[e] counts the
    // former: never above the rank of any draw of e. The most
    // boundaries sharing one index bounds the walk. The grid has one
    // entry more than kGuidePerRank per rank: draws just under
    // table_end_ can round up to index entries.
    table_end_ = boundaries_.back();
    const std::size_t entries = kGuidePerRank * boundaries_.size();
    guide_scale_ = static_cast<double>(entries) / table_end_;
    guide_.resize(entries + 1);
    walk_span_ = 0;
    std::size_t r = 0;
    for (std::size_t e = 0; e <= entries; ++e) {
        guide_[e] = static_cast<std::uint16_t>(
            std::min(r, boundaries_.size() - 1));
        const std::size_t start = r;
        while (r < boundaries_.size() &&
               static_cast<std::size_t>(boundaries_[r] * guide_scale_) <= e)
            ++r;
        walk_span_ = std::max(walk_span_, r - start);
    }

    if (walk_span_ > kWalkSteps || !verify_table()) {
        boundaries_.clear();
        guide_.clear();
        slack_ = 0;
        table_end_ = 0.0;
        guide_scale_ = 0.0;
        walk_span_ = 0;
    }
}

bool
ZipfianGenerator::verify_table() const
{
    // The bracket proofs and the lookup are only correct if rank_of()
    // is weakly monotone over the double bit space — true for a
    // correctly-rounded pow(), but not guaranteed by the standard — so
    // check the table against the closed form, and let the caller drop
    // the whole table (falling back to the closed form, which is always
    // correct) on any mismatch:
    //  - the boundaries ascend;
    //  - both sides of each boundary: rank_of(b) > r, and rank_of() is
    //    <= r at b minus the shared slack_ ULPs (not only the rank's
    //    own, possibly narrower, bracket);
    //  - the table path equals the closed form at both bracket ends;
    //  - one value-uniform probe inside each rank's interval;
    //  - a seeded spray of kSprayProbes bit patterns under the table.
    // The spray is fixed rather than scaled with the rank count:
    // uniform bit patterns put nearly all probes in rank 0 (99.7% at
    // ycsb's n and theta, about a dozen at u >= 0.5), so more of them
    // buy no tail coverage and only slow construction; the per-rank
    // value-uniform probe is what reaches every rank.
    // tests/test_diff_model.cpp additionally cross-checks millions of
    // live draws and every bracket end.
    std::uint64_t probe_state = 0x5a1fb00c0ffee123ull;
    double prev = 0.0;
    for (std::size_t r = 0; r < boundaries_.size(); ++r) {
        const double hi = boundaries_[r];
        if (hi < prev)
            return false;
        const std::uint64_t hi_bits = to_bits(hi);
        const double lo = from_bits(hi_bits > slack_ ? hi_bits - slack_ : 0);
        const std::uint64_t hi_rank = rank_of(hi);
        const std::uint64_t lo_rank = rank_of(lo);
        if (hi_rank <= r || lo_rank > r)
            return false;
        if (rank_for(hi) != hi_rank || rank_for(lo) != lo_rank)
            return false;
        const double unit =
            static_cast<double>(splitmix64(probe_state) >> 11) * 0x1.0p-53;
        const double u = prev + (hi - prev) * unit;
        if (rank_for(u) != rank_of(u))
            return false;
        prev = hi;
    }
    const std::uint64_t end_bits = to_bits(table_end_);
    for (std::size_t i = 0; i < kSprayProbes; ++i) {
        const double u = from_bits(splitmix64(probe_state) % end_bits);
        if (rank_for(u) != rank_of(u))
            return false;
    }
    return true;
}

}  // namespace artmem
