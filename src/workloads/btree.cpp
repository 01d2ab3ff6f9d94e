#include "workloads/btree.hpp"

#include <algorithm>

#include "util/logging.hpp"

namespace artmem::workloads {

Btree::Btree(const Params& params, Bytes page_size, std::uint64_t seed)
    : params_(params), page_size_(page_size), rng_(seed)
{
    if (params_.fanout < 2)
        fatal("Btree: fanout must be at least 2");
    if (params_.node_size == 0 || params_.node_size > page_size_)
        fatal("Btree: node_size must be in (0, page_size]");
    // Build levels top-down until the cumulative size fills the
    // footprint; the last (largest) level becomes the leaves.
    Bytes used = 0;
    std::uint64_t nodes = 1;
    while (true) {
        const Bytes level_bytes = nodes * params_.node_size;
        if (used + level_bytes > params_.footprint) {
            // Truncate the final level to exactly fill the footprint.
            const std::uint64_t fit =
                (params_.footprint - used) / params_.node_size;
            if (fit > 0) {
                level_base_.push_back(used);
                level_nodes_.push_back(fit);
            }
            break;
        }
        level_base_.push_back(used);
        level_nodes_.push_back(nodes);
        used += level_bytes;
        nodes *= params_.fanout;
    }
    if (level_base_.size() < 2)
        fatal("Btree: footprint too small for one inner level + leaves");
    // Every lookup emits one access per level, so the stream ends at
    // the first whole descent that reaches the budget.
    const std::uint64_t depth = level_base_.size();
    const std::uint64_t lookups = params_.total_accesses / depth +
                                  (params_.total_accesses % depth != 0);
    if (lookups > UINT64_MAX / depth)
        fatal("Btree: ", params_.total_accesses,
              " accesses overflow when rounded up to whole lookups");
    total_ = lookups * depth;
    leaf_count_ = level_nodes_.back();
    // Key skew is applied over coarse leaf blocks so the Zipfian zeta
    // precomputation stays cheap even with millions of leaves.
    leaf_blocks_ = std::min<std::uint64_t>(leaf_count_, 1u << 16);
    block_size_ = (leaf_count_ + leaf_blocks_ - 1) / leaf_blocks_;
    const double theta = std::clamp(params_.key_theta, 1e-9, 0.999);
    zipf_ = std::make_unique<ZipfianGenerator>(leaf_blocks_, theta);
    pending_.resize(depth);
    pending_pos_ = depth;
}

void
Btree::descend(std::uint64_t leaf, std::span<PageId> path) const
{
    // Ancestors bottom-up, one division per level:
    // floor(floor(x / a) / a) == floor(x / a^2).
    std::uint64_t ancestor = leaf;
    for (std::size_t level = path.size() - 1;; --level) {
        std::uint64_t node = ancestor;
        if (node >= level_nodes_[level])
            node %= level_nodes_[level];
        const Bytes addr = level_base_[level] + node * params_.node_size;
        path[level] = static_cast<PageId>(addr / page_size_);
        if (level == 0)
            break;
        ancestor /= params_.fanout;
    }
}

std::size_t
Btree::fill(std::span<PageId> out)
{
    // Finish the descent the previous batch split first.
    const std::size_t carried =
        std::min(pending_.size() - pending_pos_, out.size());
    std::copy_n(pending_.begin() + static_cast<std::ptrdiff_t>(pending_pos_),
                carried, out.begin());
    pending_pos_ += carried;
    std::size_t produced = carried;
    const std::size_t depth = level_base_.size();
    while (produced < out.size() && emitted_ < total_) {
        // One lookup: root-to-leaf descent toward a (skewed-)random leaf.
        const std::uint64_t block = zipf_->next(rng_);
        const std::uint64_t leaf = std::min<std::uint64_t>(
            block * block_size_ + rng_.next_below(block_size_),
            leaf_count_ - 1);
        // A descent that fits goes straight into the batch; one split
        // by the batch end goes through pending_.
        const bool whole = out.size() - produced >= depth;
        PageId* path = whole ? out.data() + produced : pending_.data();
        descend(leaf, {path, depth});
        emitted_ += depth;
        if (whole) {
            produced += depth;
            continue;
        }
        pending_pos_ = out.size() - produced;
        std::copy_n(pending_.begin(), pending_pos_, out.begin() + produced);
        produced = out.size();
    }
    return produced;
}

}  // namespace artmem::workloads
