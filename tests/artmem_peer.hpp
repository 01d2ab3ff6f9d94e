/**
 * @file
 * Test-only back door into ArtMem (the friend declared in
 * core/artmem.hpp): drive the private promotion-candidate walk, read the
 * per-page backoff state it consults, and corrupt the slow-list census.
 * Shared by the test files that need it so the peer has one definition.
 */
#ifndef ARTMEM_TESTS_ARTMEM_PEER_HPP
#define ARTMEM_TESTS_ARTMEM_PEER_HPP

#include <cstdint>
#include <vector>

#include "core/artmem.hpp"

namespace artmem::core {

struct ArtMemTestPeer {
    /** Run the bounded promotion-candidate walk into @p out. */
    static std::size_t collect(ArtMem& artmem, std::size_t want,
                               std::vector<PageId>& out)
    {
        return artmem.collect_promotion_candidates(want, out);
    }

    /** True while @p page sits out a failure backoff window. */
    static bool backed_off(const ArtMem& artmem, PageId page)
    {
        return artmem.backed_off(page);
    }

    /** Force the hotness threshold (restore it after probing). */
    static void set_threshold(ArtMem& artmem, std::uint32_t threshold)
    {
        artmem.threshold_ = threshold;
    }

    /** Add @p delta to one census bin without touching the lists. */
    static void skew_census(ArtMem& artmem, std::size_t row, int bin,
                            int delta)
    {
        // Unsigned wrap-around makes a negative delta a subtraction.
        artmem.slow_census_[row][static_cast<std::size_t>(bin)] +=
            static_cast<std::uint64_t>(delta);
    }
};

}  // namespace artmem::core

#endif  // ARTMEM_TESTS_ARTMEM_PEER_HPP
