/**
 * @file
 * MetricsRegistry: named counters, gauges, and fixed-bucket histograms
 * for the deterministic telemetry subsystem (DESIGN.md §8).
 *
 * Determinism contract: a registry is a single-threaded shard. Every
 * simulation job owns exactly one (created per run by the engine), so
 * updates are plain unsynchronized increments — the lock-free fast
 * path. Parallel sweeps merge the per-job registries *in job order* after
 * all jobs finish, and every emission walks metrics in registration
 * order, so `--jobs N` output is byte-identical to `--jobs 1`.
 *
 * Empty-shard safety: a gauge that was registered but never set (or a
 * histogram never observed) contributes nothing to a merge — its
 * zero-initialized min/max must never poison the merged extrema (the
 * OnlineStats::merge contract, tested directly in test_util.cpp and
 * test_telemetry.cpp).
 */
#ifndef ARTMEM_TELEMETRY_METRICS_HPP
#define ARTMEM_TELEMETRY_METRICS_HPP

#include <cstdint>
#include <iosfwd>
#include <map>
#include <string>
#include <string_view>
#include <utility>
#include <vector>

#include "util/stats.hpp"

namespace artmem::telemetry {

/** Single-threaded metrics shard; see the file header for the model. */
class MetricsRegistry
{
  public:
    /** Handle returned by registration; indexes the metric's kind. */
    using Id = std::size_t;

    /** Register (or look up) a monotonically increasing counter. */
    Id counter(std::string_view name);

    /** Register (or look up) a gauge: last value + online extrema. */
    Id gauge(std::string_view name);

    /**
     * Register (or look up) a histogram with the given inclusive upper
     * bucket bounds (ascending; an implicit +inf bucket is appended).
     * Re-registration with different bounds is a caller bug (panic).
     */
    Id histogram(std::string_view name, std::vector<double> upper_bounds);

    /** Increment a counter. Hot path: one add on a flat vector. */
    void add(Id id, std::uint64_t delta = 1) { counters_[id].value += delta; }

    /** Set a gauge (records the observation into its OnlineStats). */
    void set(Id id, double value);

    /** Observe one histogram sample. */
    void observe(Id id, double value);

    /** Counter value by name (0 if absent — absent metrics read as idle). */
    std::uint64_t counter_value(std::string_view name) const;

    /** Gauge observation stats by name (nullptr if absent). */
    const OnlineStats* gauge_stats(std::string_view name) const;

    /** Total histogram observations by name (0 if absent). */
    std::uint64_t histogram_count(std::string_view name) const;

    /** True when nothing has been registered. */
    bool empty() const
    {
        return counters_.empty() && gauges_.empty() && histograms_.empty();
    }

    /**
     * Merge another shard into this one. Metrics are matched by name;
     * names unknown here are appended in @p shard's registration order,
     * so merging registries in job order yields one deterministic registry.
     * Counters add, gauges merge their OnlineStats (taking the shard's
     * last value when it has one), histogram buckets add bucket-wise
     * (panic on mismatched bounds).
     */
    void merge(const MetricsRegistry& shard);

    /**
     * Emit the whole registry as one JSON document, metrics in
     * registration order. Byte-deterministic for identical content.
     */
    void write_json(std::ostream& os) const;

    /**
     * Flattened {metric, value} rows for a ResultSink summary table:
     * counters as integers, gauges as "last (min/mean/max)", histograms
     * as their total count. Registration order.
     */
    std::vector<std::pair<std::string, std::string>> summary_rows() const;

  private:
    struct Counter {
        std::string name;
        std::uint64_t value = 0;
    };
    struct Gauge {
        std::string name;
        double last = 0.0;
        OnlineStats stats;
    };
    struct Histogram {
        std::string name;
        std::vector<double> bounds;
        std::vector<std::uint64_t> buckets;  ///< bounds.size() + 1 slots.
        std::uint64_t total = 0;
        double sum = 0.0;
    };

    enum class Kind : std::uint8_t { kCounter, kGauge, kHistogram };

    Id lookup_or_register(std::string_view name, Kind kind);

    std::vector<Counter> counters_;
    std::vector<Gauge> gauges_;
    std::vector<Histogram> histograms_;
    /** Name -> (kind, index). std::map: deterministic, and the custom
     *  lint bans unordered containers anyway. */
    std::map<std::string, std::pair<Kind, Id>, std::less<>> index_;
};

}  // namespace artmem::telemetry

#endif  // ARTMEM_TELEMETRY_METRICS_HPP
