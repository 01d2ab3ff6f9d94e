/**
 * @file
 * Figure 16c + Section 6.3.10 reproduction: adaptability to highly
 * irregular access patterns, produced by co-running workloads from
 * different domains. Two-workload mixes get 32 GiB of DRAM, the
 * three-workload mix 64 GiB. Paper: ArtMem beats the second-best
 * system by ~11% on average thanks to accurate page classification.
 */
#include "bench_common.hpp"
#include "tenancy/tenant_set.hpp"
#include "workloads/factory.hpp"

namespace {

using namespace artmem;

std::unique_ptr<workloads::AccessGenerator>
make_mix(const std::vector<std::string>& names, Bytes page,
         std::uint64_t accesses, std::uint64_t seed)
{
    // Co-running processes: stacked address spaces, interleaved in equal
    // 256-access quanta.
    std::vector<std::unique_ptr<workloads::AccessGenerator>> children;
    for (std::size_t i = 0; i < names.size(); ++i) {
        children.push_back(workloads::make_workload(
            names[i], page, accesses / names.size(), seed + i));
    }
    std::vector<std::size_t> weights(children.size(), 1);
    return std::make_unique<tenancy::TenantSet>(
        std::move(children), std::move(weights), page, 256, 0);
}

}  // namespace

int
main(int argc, char** argv)
{
    using namespace artmem::bench;
    const auto opt = BenchOptions::parse(argc, argv, 6000000);

    constexpr Bytes kPage = 2ull << 20;
    const std::vector<std::string> systems = {
        "memtis",     "autotiering", "tpp",      "autonuma",
        "multiclock", "nimble",      "tiering08", "artmem"};

    struct Mix {
        std::vector<std::string> names;
        Bytes dram;
    };
    const Mix mixes[] = {
        {{"sssp", "xsbench"}, 32ull << 30},
        {{"sssp", "ycsb"}, 32ull << 30},
        {{"sssp", "xsbench", "ycsb"}, 64ull << 30},
    };

    std::cout << "Figure 16c: mixed-workload adaptability (runtime "
                 "normalized to static; lower is better)\naccesses="
              << opt.accesses << " seed=" << opt.seed << "\n\n";

    sweep::SweepSpec sweepspec;
    for (const auto& mix : mixes) {
        std::string label = mix.names[0];
        for (std::size_t i = 1; i < mix.names.size(); ++i)
            label += "+" + mix.names[i];
        auto add_job = [&](const std::string& system) {
            sweepspec.add_run(
                {label, system},
                [mix, system, &opt] {
                    auto gen =
                        make_mix(mix.names, kPage, opt.accesses, opt.seed);
                    auto mc = sim::make_machine_config(gen->footprint(),
                                                       mix.dram, kPage);
                    memsim::TieredMachine machine(mc);
                    auto policy = sim::make_policy(system, opt.seed);
                    sim::EngineConfig engine;
                    return sim::run_simulation(*gen, *policy, machine,
                                               engine);
                });
        };
        add_job("static");
        for (const auto& system : systems)
            add_job(system);
    }
    const auto runs = make_runner(opt).run(sweepspec);

    std::vector<std::string> headers = {"mix", "dram"};
    for (const auto& s : systems)
        headers.push_back(s);
    sweep::ResultSink table(std::move(headers));

    std::size_t job = 0;
    for (const auto& mix : mixes) {
        const auto& base = runs[job++];
        std::string label = mix.names[0];
        for (std::size_t i = 1; i < mix.names.size(); ++i)
            label += "+" + mix.names[i];
        auto& row = table.row().cell(label).cell(
            std::to_string(mix.dram >> 30) + "G");
        for (std::size_t s = 0; s < systems.size(); ++s)
            row.cell(normalized_runtime(runs[job++], base), 3);
    }
    emit(table, opt);
    std::cout << "\nExpected: ArtMem lowest (paper: ~11% ahead of the "
                 "second-best method).\n";
    return 0;
}
