#include "sim/experiment.hpp"

#include "util/config.hpp"
#include "util/logging.hpp"

namespace artmem::sim {

RatioSpec
RatioSpec::parse(const std::string& text)
{
    const auto colon = text.find(':');
    if (colon == std::string::npos)
        fatal("--ratio expects fast:slow, got '", text, "'");
    const auto part = [&](const std::string& digits) {
        const long long value = parse_int(digits, "--ratio part");
        if (value <= 0 || value > (1LL << 30))
            fatal("--ratio parts must be in [1, 2^30], got '", text, "'");
        return static_cast<int>(value);
    };
    return {part(text.substr(0, colon)), part(text.substr(colon + 1))};
}

std::vector<RatioSpec>
paper_ratios()
{
    return {{2, 1}, {1, 1}, {1, 2}, {1, 4}, {1, 8}, {1, 16}};
}

memsim::MachineConfig
make_machine_config(Bytes footprint, Bytes fast_bytes, Bytes page_size)
{
    if (footprint == 0)
        fatal("make_machine_config: footprint must be positive");
    memsim::MachineConfig config;
    config.page_size = page_size;
    const Bytes aligned =
        (footprint + page_size - 1) / page_size * page_size;
    config.address_space = aligned;
    // At least one fast page so the model stays two-tiered.
    config.tiers[0].capacity =
        std::max<Bytes>(page_size, fast_bytes / page_size * page_size);
    // The slow tier can always absorb the whole footprint (512 GB PM in
    // the paper's testbed vs <= 290 GB footprints).
    config.tiers[1].capacity = aligned + page_size;
    return config;
}

memsim::MachineConfig
make_machine_config(Bytes footprint, const RatioSpec& ratio, Bytes page_size)
{
    const auto fast_bytes = static_cast<Bytes>(
        static_cast<double>(footprint) * ratio.fast_fraction());
    return make_machine_config(footprint, fast_bytes, page_size);
}

memsim::TxConfig
parse_tx_cli(const CliArgs& args)
{
    memsim::TxConfig tx;
    tx.enabled = args.get_bool("tx-migration", false);
    for (const auto name : kTxFlags) {
        if (!tx.enabled && name != "tx-migration" &&
            args.has(std::string(name)))
            fatal("--", name, " requires --tx-migration");
    }
    if (!tx.enabled)
        return tx;
    tx.seed = static_cast<std::uint64_t>(
        args.get_int("tx-seed", static_cast<long long>(tx.seed)));
    tx.write_ratio = args.get_double("tx-write-ratio", tx.write_ratio);
    tx.max_inflight = static_cast<std::size_t>(
        args.get_count("tx-max-inflight", tx.max_inflight, SIZE_MAX));
    tx.non_exclusive = !args.get_bool("tx-exclusive", false);
    tx.validate();
    return tx;
}

RunResult
run_experiment(const RunSpec& spec)
{
    auto policy = make_policy(spec.policy, spec.seed);
    return run_experiment(spec, *policy);
}

std::unique_ptr<workloads::AccessGenerator>
make_experiment_workload(const RunSpec& spec)
{
    return workloads::make_workload(spec.workload, kExperimentPageSize,
                                    spec.accesses, spec.seed);
}

RunResult
run_experiment(const RunSpec& spec, policies::Policy& policy)
{
    spec.tenancy.validate();
    // Multi-tenant runs interleave N per-tenant generators; the plain
    // path is untouched at tenants <= 1 (scripts/ci.sh diffs
    // --tenants=1 against the seed goldens).
    if (!spec.tenancy.enabled()) {
        auto gen = make_experiment_workload(spec);
        return run_experiment_on(spec, *gen, policy);
    }
    auto set = tenancy::make_tenant_set(spec.tenancy, spec.workload,
                                        kExperimentPageSize, spec.accesses,
                                        spec.seed);
    const auto machine_config = make_machine_config(
        set->footprint(), spec.ratio, kExperimentPageSize);
    memsim::TieredMachine machine(machine_config);
    machine.install_tenants(tenancy::make_tenant_ledger(
        spec.tenancy, *set, machine.page_count(),
        machine_config.fast_capacity_pages()));
    return run_simulation(*set, policy, machine, spec.engine);
}

RunResult
run_experiment_on(const RunSpec& spec, workloads::AccessGenerator& workload,
                  policies::Policy& policy)
{
    spec.tenancy.validate();
    if (spec.tenancy.enabled())
        fatal("run_experiment_on: a multi-tenant run builds its own "
              "TenantSet; use run_experiment");
    memsim::TieredMachine machine(make_machine_config(
        workload.footprint(), spec.ratio, kExperimentPageSize));
    return run_simulation(workload, policy, machine, spec.engine);
}

}  // namespace artmem::sim
