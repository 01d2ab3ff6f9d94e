#include "workloads/masim.hpp"

#include <algorithm>
#include <cmath>
#include <sstream>

#include "util/logging.hpp"

namespace artmem::workloads {

Masim::Masim(MasimSpec spec, Bytes page_size, std::uint64_t seed)
    : spec_(std::move(spec)), page_size_(page_size), rng_(seed)
{
    if (page_size_ == 0)
        fatal("Masim: page_size must be positive");
    if (spec_.footprint == 0 || spec_.phases.empty())
        fatal("Masim '", spec_.name, "': footprint and phases required");
    for (std::size_t i = 0; i < spec_.phases.size(); ++i) {
        const MasimPhase& phase = spec_.phases[i];
        if (phase.accesses == 0 || phase.regions.empty())
            fatal("Masim '", spec_.name, "': empty phase");
        double weight_sum = 0.0;
        for (const auto& r : phase.regions) {
            if (r.size == 0 || r.weight <= 0.0)
                fatal("Masim '", spec_.name, "': degenerate region");
            if (r.size > spec_.footprint ||
                r.offset > spec_.footprint - r.size)
                fatal("Masim '", spec_.name,
                      "': region exceeds footprint");
            weight_sum += r.weight;
        }
        // prepare_phase() sums the weights in the same order; an
        // infinite sum would send every pick to the last region.
        if (!std::isfinite(weight_sum))
            fatal("Masim '", spec_.name, "': phase ", i,
                  " region weights do not sum to a finite total");
        if (phase.accesses > UINT64_MAX - total_)
            fatal("Masim '", spec_.name,
                  "': phase accesses overflow a 64-bit total");
        total_ += phase.accesses;
    }
    prepare_phase(0);
}

void
Masim::prepare_phase(std::size_t index)
{
    phase_index_ = index;
    prepared_.clear();
    if (index >= spec_.phases.size()) {
        remaining_in_phase_ = 0;
        return;
    }
    const MasimPhase& phase = spec_.phases[index];
    remaining_in_phase_ = phase.accesses;
    weight_sum_ = 0.0;
    for (const auto& r : phase.regions) {
        PreparedRegion p;
        p.first_page = static_cast<PageId>(r.offset / page_size_);
        const Bytes last = r.offset + r.size - 1;
        p.page_span =
            static_cast<PageId>(last / page_size_) - p.first_page + 1;
        weight_sum_ += r.weight;
        p.cumulative_weight = weight_sum_;
        p.sequential = r.sequential;
        prepared_.push_back(p);
    }
}

std::size_t
Masim::fill(std::span<PageId> out)
{
    std::size_t produced = 0;
    while (produced < out.size()) {
        if (remaining_in_phase_ == 0) {
            if (phase_index_ + 1 >= spec_.phases.size())
                break;
            prepare_phase(phase_index_ + 1);
            continue;
        }
        // One chunk stays inside the phase, so the region set is fixed
        // and the RNG can live in a register until the chunk ends.
        const std::size_t chunk = static_cast<std::size_t>(
            std::min<std::uint64_t>(remaining_in_phase_,
                                    out.size() - produced));
        const std::size_t last = prepared_.size() - 1;
        Rng rng = rng_;
        for (std::size_t i = 0; i < chunk; ++i) {
            // Pick a region by weight. The cumulative weights never
            // decrease, so the count of regions before the last whose
            // weight the pick is not under is the index of the first
            // region with pick < weight, or the last region's if none
            // of the others has one.
            const double pick = rng.next_double() * weight_sum_;
            std::size_t index = 0;
            for (std::size_t k = 0; k < last; ++k)
                index += !(pick < prepared_[k].cumulative_weight);
            PreparedRegion& region = prepared_[index];
            PageId page;
            if (region.sequential) {
                page = region.first_page + region.cursor;
                const PageId next = region.cursor + 1;
                region.cursor = next == region.page_span ? 0 : next;
            } else {
                page = region.first_page +
                       static_cast<PageId>(rng.next_below(region.page_span));
            }
            out[produced + i] = page;
        }
        rng_ = rng;
        produced += chunk;
        remaining_in_phase_ -= chunk;
    }
    return produced;
}

MasimSpec
Masim::parse_spec(const KvConfig& config)
{
    MasimSpec spec;
    spec.name = config.get_string("name", "masim");
    spec.footprint =
        config.get_count("footprint_mib", 0, UINT64_MAX >> 20) << 20;
    const std::uint64_t phase_count = config.get_count("phases", 0);
    if (phase_count == 0)
        fatal("masim spec: 'phases' must be positive");
    // Reject keys the schema does not define: a typo like
    // "phase0.acesses = 1000" would otherwise silently fall back to the
    // default and produce a mysteriously different workload.
    for (const auto& key : config.keys()) {
        bool known = key == "name" || key == "footprint_mib" ||
                     key == "phases";
        if (!known && key.rfind("phase", 0) == 0) {
            const std::size_t dot = key.find('.');
            if (dot != std::string::npos) {
                const std::string index = key.substr(5, dot - 5);
                const std::string field = key.substr(dot + 1);
                const bool index_ok =
                    !index.empty() &&
                    index.find_first_not_of("0123456789") == std::string::npos;
                known = index_ok &&
                        (field == "accesses" || field == "regions" ||
                         (field.rfind("region", 0) == 0 &&
                          field.size() > 6 &&
                          field.find_first_not_of("0123456789", 6) ==
                              std::string::npos));
            }
        }
        if (!known)
            fatal("masim spec: unknown key '", key,
                  "' (expected name, footprint_mib, phases, ",
                  "phase<N>.accesses, phase<N>.regions, phase<N>.region<M>)");
    }
    for (std::uint64_t i = 0; i < phase_count; ++i) {
        const std::string prefix = "phase" + std::to_string(i) + ".";
        MasimPhase phase;
        phase.accesses = config.get_count(prefix + "accesses", 0);
        const std::uint64_t regions = config.get_count(prefix + "regions", 0);
        for (std::uint64_t r = 0; r < regions; ++r) {
            const auto key = prefix + "region" + std::to_string(r);
            const auto text = config.get(key);
            if (!text)
                fatal("masim spec: missing ", key);
            std::istringstream in(*text);
            double offset_mib = 0, size_mib = 0, weight = 0;
            std::string seq;
            if (!(in >> offset_mib >> size_mib >> weight))
                fatal("masim spec: malformed ", key, ": '", *text,
                      "' (expected '<offset_mib> <size_mib> <weight> ",
                      "[seq|rand]')");
            in >> seq;
            if (!seq.empty() && seq != "seq" && seq != "rand")
                fatal("masim spec: ", key, ": unknown access mode '", seq,
                      "' (expected seq or rand)");
            std::string trailing;
            if (in >> trailing)
                fatal("masim spec: ", key, ": trailing garbage '", trailing,
                      "'");
            // The casts to Bytes below are defined only for values in
            // [0, 2^64) bytes, i.e. [0, 2^44) MiB.
            for (const double mib : {offset_mib, size_mib}) {
                if (!(mib >= 0.0 && mib < 0x1p44))
                    fatal("masim spec: ", key, ": offset and size must be ",
                          "in [0, 2^44) MiB, got '", *text, "'");
            }
            if (!std::isfinite(weight) || weight < 0.0)
                fatal("masim spec: ", key, ": weight must be finite and ",
                      "non-negative, got '", *text, "'");
            MasimRegion region;
            region.offset = static_cast<Bytes>(offset_mib * (1 << 20));
            region.size = static_cast<Bytes>(size_mib * (1 << 20));
            region.weight = weight;
            region.sequential = seq == "seq";
            phase.regions.push_back(region);
        }
        spec.phases.push_back(std::move(phase));
    }
    return spec;
}

}  // namespace artmem::workloads
