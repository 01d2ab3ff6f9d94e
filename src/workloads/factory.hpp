/**
 * @file
 * Name-based workload factory used by the CLI, the bench harnesses and
 * the examples: maps the Table 3 workload names (plus the S1-S4
 * patterns) to configured AccessGenerator instances, and the file-backed
 * forms masim:PATH (a MASIM config, paper Section 3) and trace:PATH (a
 * recorded access trace) to generators that read PATH.
 */
#ifndef ARTMEM_WORKLOADS_FACTORY_HPP
#define ARTMEM_WORKLOADS_FACTORY_HPP

#include <memory>
#include <string_view>
#include <vector>

#include "workloads/generator.hpp"

namespace artmem::workloads {

/** Prefix of a MASIM config workload: "masim:configs/s1.cfg". */
inline constexpr std::string_view kMasimPrefix = "masim:";

/** Prefix of a recorded-trace workload: "trace:s2.trace". */
inline constexpr std::string_view kTracePrefix = "trace:";

/** True for masim:PATH and trace:PATH, whose access count is the file's. */
inline bool
is_file_backed(std::string_view name)
{
    return name.starts_with(kMasimPrefix) || name.starts_with(kTracePrefix);
}

/** All built-in workload names (the file-backed forms need a path). */
std::vector<std::string_view> workload_names();

/** The eight Table 3 application names (no synthetic patterns). */
std::vector<std::string_view> app_workload_names();

/**
 * Build a workload by name ("ycsb", "cc", "sssp", "pr", "xsbench",
 * "dlrm", "btree", "liblinear", "s1".."s4", "uniform", "sequential"),
 * or from a file: "masim:PATH" runs the MASIM config at PATH and
 * "trace:PATH" replays the trace at PATH, whose recorded page size must
 * equal @p page_size. fatal() on unknown names and unreadable or
 * malformed files.
 *
 * @param name           Workload name.
 * @param page_size      Machine page size.
 * @param total_accesses Access budget (file-backed workloads take the
 *                       count from the file instead).
 * @param seed           RNG seed.
 */
std::unique_ptr<AccessGenerator> make_workload(std::string_view name,
                                               Bytes page_size,
                                               std::uint64_t total_accesses,
                                               std::uint64_t seed);

}  // namespace artmem::workloads

#endif  // ARTMEM_WORKLOADS_FACTORY_HPP
