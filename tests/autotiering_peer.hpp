/**
 * @file
 * Test-only back door into AutoTiering (the friend declared in
 * policies/autotiering.hpp): drive the private exchange-victim search,
 * read and set the cursor and fault counts it consults, and observe
 * every search the exchange pass makes. Shared by the test files that
 * need it so the peer has one definition.
 */
#ifndef ARTMEM_TESTS_AUTOTIERING_PEER_HPP
#define ARTMEM_TESTS_AUTOTIERING_PEER_HPP

#include <cstdint>
#include <functional>
#include <utility>

#include "policies/autotiering.hpp"

namespace artmem::policies {

struct AutoTieringTestPeer {
    /** Observer called after each search: (cursor before, victim,
     *  pages examined). */
    using SearchObserver = std::function<void(PageId, PageId, std::size_t)>;

    /** Run one victim search, as the exchange pass does. */
    static PageId find_cold_fast_page(AutoTiering& policy)
    {
        return policy.find_cold_fast_page();
    }

    static PageId victim_cursor(const AutoTiering& policy)
    {
        return policy.victim_cursor_;
    }

    static void set_victim_cursor(AutoTiering& policy, PageId cursor)
    {
        policy.victim_cursor_ = cursor;
    }

    static std::uint32_t fault_count(const AutoTiering& policy, PageId page)
    {
        return policy.fault_count_[page];
    }

    static void set_fault_count(AutoTiering& policy, PageId page,
                                std::uint32_t count)
    {
        policy.fault_count_[page] = count;
    }

    /** The machine the policy is attached to. */
    static const memsim::TieredMachine& machine(const AutoTiering& policy)
    {
        return policy.machine();
    }

    static std::size_t victim_scan(const AutoTiering& policy)
    {
        return policy.config_.victim_scan;
    }

    /** Install (or, with an empty function, remove) the observer. */
    static void observe_searches(AutoTiering& policy, SearchObserver observer)
    {
        policy.on_victim_search_ = std::move(observer);
    }
};

}  // namespace artmem::policies

#endif  // ARTMEM_TESTS_AUTOTIERING_PEER_HPP
