/**
 * @file
 * Unit tests for the workload generators: MASIM, the S1-S4 patterns,
 * YCSB, graph emulations, B-tree, app specs, trace capture and replay,
 * and the factory (built-in and file-backed names).
 */
#include <gtest/gtest.h>

#include <fstream>
#include <map>

#include "tenancy/tenancy.hpp"
#include "tenancy/tenant_set.hpp"
#include "workloads/apps.hpp"
#include "workloads/btree.hpp"
#include "workloads/factory.hpp"
#include "workloads/graph.hpp"
#include "workloads/masim.hpp"
#include "workloads/patterns.hpp"
#include "workloads/simple.hpp"
#include "workloads/trace.hpp"
#include "workloads/ycsb.hpp"

namespace artmem::workloads {
namespace {

constexpr Bytes kPage = 2ull << 20;

/** Drain a generator fully, returning per-page access counts. */
std::map<PageId, std::uint64_t>
histogram(AccessGenerator& gen)
{
    std::map<PageId, std::uint64_t> counts;
    std::vector<PageId> buf(4096);
    std::size_t n;
    std::uint64_t total = 0;
    while ((n = gen.fill(buf)) > 0) {
        for (std::size_t i = 0; i < n; ++i)
            ++counts[buf[i]];
        total += n;
        EXPECT_LE(total, gen.total_accesses() + buf.size()) << "runaway";
        if (total > gen.total_accesses() + buf.size())
            break;
    }
    std::uint64_t sum = 0;
    for (const auto& [page, c] : counts)
        sum += c;
    EXPECT_EQ(sum, gen.total_accesses());
    return counts;
}

/** Drain a generator fully, returning the access stream in order. */
std::vector<PageId>
drain(AccessGenerator& gen)
{
    std::vector<PageId> stream;
    std::vector<PageId> buf(777);
    std::size_t n;
    while ((n = gen.fill(buf)) > 0)
        stream.insert(stream.end(), buf.begin(), buf.begin() + n);
    return stream;
}

/**
 * Drain @p gen in batches of @p batch, checking the AccessGenerator
 * contract on every call: fill() writes min(batch, remaining) ids, so
 * only the last batch is short, and the stream ends at exactly
 * total_accesses().
 */
std::vector<PageId>
drain_checked(AccessGenerator& gen, std::size_t batch)
{
    const std::uint64_t total = gen.total_accesses();
    std::vector<PageId> stream;
    std::vector<PageId> buf(batch);
    while (true) {
        const std::size_t n = gen.fill(buf);
        const std::uint64_t want =
            std::min<std::uint64_t>(batch, total - stream.size());
        EXPECT_EQ(n, want) << gen.name() << " batch " << batch
                           << " after " << stream.size() << " accesses";
        if (n == 0 || n != want)
            break;
        stream.insert(stream.end(), buf.begin(), buf.begin() + n);
    }
    EXPECT_EQ(stream.size(), total) << gen.name() << " batch " << batch;
    return stream;
}

TEST(Masim, RespectsBudgetAndFootprint)
{
    MasimSpec spec;
    spec.name = "t";
    spec.footprint = 64ull << 20;  // 32 pages
    MasimPhase phase;
    phase.accesses = 1000;
    phase.regions = {{0, 64ull << 20, 1.0, false}};
    spec.phases.push_back(phase);
    Masim gen(spec, kPage, 1);
    auto counts = histogram(gen);
    for (const auto& [page, c] : counts)
        EXPECT_LT(page, 32u);
}

TEST(Masim, WeightsDriveDistribution)
{
    MasimSpec spec;
    spec.name = "t";
    spec.footprint = 100 * kPage;
    MasimPhase phase;
    phase.accesses = 100000;
    phase.regions = {
        {0, 10 * kPage, 90.0, false},      // pages 0..9: 90%
        {10 * kPage, 90 * kPage, 10.0, false},
    };
    spec.phases.push_back(phase);
    Masim gen(spec, kPage, 1);
    auto counts = histogram(gen);
    std::uint64_t hot = 0;
    for (PageId p = 0; p < 10; ++p)
        hot += counts.count(p) ? counts[p] : 0;
    EXPECT_NEAR(static_cast<double>(hot) / 100000.0, 0.9, 0.02);
}

TEST(Masim, SequentialRegionCyclesInOrder)
{
    MasimSpec spec;
    spec.name = "t";
    spec.footprint = 4 * kPage;
    MasimPhase phase;
    phase.accesses = 8;
    phase.regions = {{0, 4 * kPage, 1.0, true}};
    spec.phases.push_back(phase);
    Masim gen(spec, kPage, 1);
    std::vector<PageId> buf(8);
    ASSERT_EQ(gen.fill(buf), 8u);
    const std::vector<PageId> expect = {0, 1, 2, 3, 0, 1, 2, 3};
    EXPECT_EQ(buf, expect);
}

TEST(Masim, PhasesSwitchAtBoundaries)
{
    MasimSpec spec;
    spec.name = "t";
    spec.footprint = 20 * kPage;
    MasimPhase a, b;
    a.accesses = 100;
    a.regions = {{0, kPage, 1.0, false}};  // page 0 only
    b.accesses = 100;
    b.regions = {{10 * kPage, kPage, 1.0, false}};  // page 10 only
    spec.phases = {a, b};
    Masim gen(spec, kPage, 1);
    auto counts = histogram(gen);
    EXPECT_EQ(counts[0], 100u);
    EXPECT_EQ(counts[10], 100u);
}

/**
 * The MASIM stream by the plain per-access definition: draw a pick,
 * take the first region whose cumulative weight exceeds it (the last
 * region if none does), then step or draw inside that region.
 */
std::vector<PageId>
masim_reference(const MasimSpec& spec, Bytes page_size, std::uint64_t seed)
{
    Rng rng(seed);
    std::vector<PageId> stream;
    for (const auto& phase : spec.phases) {
        std::vector<double> cumulative;
        std::vector<PageId> cursor(phase.regions.size(), 0);
        double sum = 0.0;
        for (const auto& r : phase.regions)
            cumulative.push_back(sum += r.weight);
        for (std::uint64_t i = 0; i < phase.accesses; ++i) {
            const double pick = rng.next_double() * sum;
            std::size_t k = 0;
            while (k + 1 < cumulative.size() && !(pick < cumulative[k]))
                ++k;
            const MasimRegion& r = phase.regions[k];
            const auto first = static_cast<PageId>(r.offset / page_size);
            const auto span = static_cast<PageId>(
                (r.offset + r.size - 1) / page_size - first + 1);
            if (r.sequential) {
                stream.push_back(first + cursor[k]);
                cursor[k] = (cursor[k] + 1) % span;
            } else {
                stream.push_back(
                    first + static_cast<PageId>(rng.next_below(span)));
            }
        }
    }
    return stream;
}

TEST(Masim, RegionPickMatchesFirstMatchReference)
{
    // Sequential and random regions mixed in one phase, a weight of
    // 1e-300 after a large one (its cumulative weight equals the one
    // before it), a single-region phase and a phase of equal weights,
    // drained in batches that split every phase.
    constexpr Bytes kSmallPage = 4096;
    MasimSpec spec;
    spec.name = "edges";
    spec.footprint = 64ull << 20;
    MasimPhase mixed;
    mixed.accesses = 30011;
    mixed.regions = {
        {0, 1ull << 20, 3.0, true},
        {1ull << 20, 5ull << 20, 1.0, false},
        {8ull << 20, 7 * kSmallPage + 1, 2.0, true},
        {16ull << 20, 2ull << 20, 0.5, false},
    };
    MasimPhase flat;
    flat.accesses = 20011;
    flat.regions = {
        {0, 1ull << 20, 1e6, false},
        {2ull << 20, 1ull << 20, 1e-300, true},
        {4ull << 20, 1ull << 20, 1e-300, false},
        {6ull << 20, 3 * kSmallPage, 1.0, true},
    };
    MasimPhase single;
    single.accesses = 997;
    single.regions = {{32ull << 20, 5 * kSmallPage, 1.0, true}};
    MasimPhase tied;
    tied.accesses = 5003;
    tied.regions = {
        {0, 1ull << 20, 1.0, true},
        {1ull << 20, 1ull << 20, 1.0, false},
        {2ull << 20, 1ull << 20, 1.0, true},
    };
    spec.phases = {mixed, flat, single, tied};
    const auto reference = masim_reference(spec, kSmallPage, 5);
    for (const std::size_t batch : {1, 7, 4096, 100000}) {
        Masim gen(spec, kSmallPage, 5);
        EXPECT_EQ(drain_checked(gen, batch), reference) << "batch " << batch;
    }
}

/** A valid one-phase, one-region masim config with @p key set to
 *  @p value. */
KvConfig
masim_config(const std::string& key, const std::string& value)
{
    KvConfig config = KvConfig::parse(
        "footprint_mib = 64\nphases = 1\nphase0.accesses = 100\n"
        "phase0.regions = 1\nphase0.region0 = 0 64 1.0\n");
    config.set(key, value);
    return config;
}

TEST(Masim, ParseSpecRejectsNegativeCounts)
{
    EXPECT_EXIT((void)Masim::parse_spec(masim_config("footprint_mib", "-1")),
                ::testing::ExitedWithCode(1),
                "key 'footprint_mib' must not be negative, got -1");
    EXPECT_EXIT((void)Masim::parse_spec(masim_config("phases", "-1")),
                ::testing::ExitedWithCode(1),
                "key 'phases' must not be negative, got -1");
    EXPECT_EXIT(
        (void)Masim::parse_spec(masim_config("phase0.accesses", "-1")),
        ::testing::ExitedWithCode(1),
        "key 'phase0.accesses' must not be negative, got -1");
    EXPECT_EXIT(
        (void)Masim::parse_spec(masim_config("phase0.regions", "-1")),
        ::testing::ExitedWithCode(1),
        "key 'phase0.regions' must not be negative, got -1");
    // A footprint whose byte count does not fit 64 bits.
    EXPECT_EXIT(
        (void)Masim::parse_spec(masim_config("footprint_mib", "0x100000000000")),
        ::testing::ExitedWithCode(1),
        "key 'footprint_mib' must be at most 17592186044415");
}

TEST(Masim, ParseSpecRejectsNegativeAndNonFiniteRegionFields)
{
    for (const char* region : {"-1 16 1.0", "0 -16 1.0", "0 16 -1.0",
                               "0 1e300 1.0", "0 16 1e400"}) {
        EXPECT_EXIT((void)Masim::parse_spec(masim_config(
                        "phase0.region0", region)),
                    ::testing::ExitedWithCode(1), "phase0.region0")
            << region;
    }
}

TEST(Masim, PhaseAccessSumOverflowIsFatal)
{
    MasimSpec spec;
    spec.footprint = 64ull << 20;
    for (int i = 0; i < 3; ++i)
        spec.phases.push_back(
            {.accesses = 1ull << 63, .regions = {{.size = 64ull << 20}}});
    EXPECT_EXIT(Masim(spec, kPage, 1), ::testing::ExitedWithCode(1),
                "phase accesses overflow a 64-bit total");
}

TEST(Masim, NonFinitePhaseWeightSumIsFatal)
{
    // Each weight is finite, but phase 1's two sum to infinity.
    MasimSpec spec;
    spec.footprint = 64ull << 20;
    spec.phases.push_back(
        {.accesses = 10, .regions = {{.size = 64ull << 20, .weight = 1.0}}});
    spec.phases.push_back(
        {.accesses = 10,
         .regions = {{.size = 32ull << 20, .weight = 1e308},
                     {.offset = 32ull << 20,
                      .size = 32ull << 20,
                      .weight = 1e308}}});
    EXPECT_EXIT(Masim(spec, kPage, 1), ::testing::ExitedWithCode(1),
                "phase 1 region weights do not sum to a finite total");
}

TEST(Masim, ParseSpecRoundTrip)
{
    const auto cfg = KvConfig::parse(
        "name = demo\n"
        "footprint_mib = 64\n"
        "phases = 1\n"
        "phase0.accesses = 500\n"
        "phase0.regions = 2\n"
        "phase0.region0 = 0 32 9.0\n"
        "phase0.region1 = 32 32 1.0 seq\n");
    const auto spec = Masim::parse_spec(cfg);
    EXPECT_EQ(spec.name, "demo");
    EXPECT_EQ(spec.footprint, 64ull << 20);
    ASSERT_EQ(spec.phases.size(), 1u);
    ASSERT_EQ(spec.phases[0].regions.size(), 2u);
    EXPECT_FALSE(spec.phases[0].regions[0].sequential);
    EXPECT_TRUE(spec.phases[0].regions[1].sequential);
    EXPECT_DOUBLE_EQ(spec.phases[0].regions[0].weight, 9.0);
}

class PatternSweep : public ::testing::TestWithParam<int>
{
};

TEST_P(PatternSweep, SpecIsValidAndRuns)
{
    const int k = GetParam();
    const auto spec = pattern_spec(k, 50000);
    EXPECT_EQ(spec.footprint, 32ull << 30);
    Masim gen(spec, kPage, 7);
    EXPECT_EQ(gen.total_accesses(), 50000u);
    auto counts = histogram(gen);
    EXPECT_FALSE(counts.empty());
}

INSTANTIATE_TEST_SUITE_P(S1toS4, PatternSweep, ::testing::Range(1, 5));

TEST(Patterns, S1ConcentratesInHotRegions)
{
    Masim gen(pattern_spec(1, 200000), kPage, 7);
    auto counts = histogram(gen);
    // Hot regions: 500 MiB at 20 GiB and 30 GiB -> 250 pages each.
    const PageId hot1 = (20ull << 30) / kPage;
    const PageId hot2 = (30ull << 30) / kPage;
    std::uint64_t hot = 0;
    for (const auto& [page, c] : counts) {
        if ((page >= hot1 && page < hot1 + 250) ||
            (page >= hot2 && page < hot2 + 250)) {
            hot += c;
        }
    }
    EXPECT_GT(static_cast<double>(hot) / 200000.0, 0.9);
}

TEST(Patterns, S2PhasesAreTransient)
{
    Masim gen(pattern_spec(2, 160000), kPage, 7);
    // First phase hot region: offset 0, 2 GiB = pages 0..1023.
    // Last phase hot region: offset 28 GiB.
    std::vector<PageId> buf(160000 / 8);
    gen.fill(buf);  // phase 0
    std::uint64_t in_first = 0;
    for (PageId p : buf)
        in_first += p < 1024;
    EXPECT_GT(static_cast<double>(in_first) /
                  static_cast<double>(buf.size()),
              0.85);
    // Drain to the final phase.
    for (int i = 0; i < 6; ++i)
        gen.fill(buf);
    gen.fill(buf);
    const PageId last_base = (28ull << 30) / kPage;
    std::uint64_t in_last = 0;
    for (PageId p : buf)
        in_last += p >= last_base && p < last_base + 1024;
    EXPECT_GT(static_cast<double>(in_last) /
                  static_cast<double>(buf.size()),
              0.85);
}

TEST(Ycsb, LoadPhaseIsSequential)
{
    Ycsb::Params params;
    params.footprint = 512ull << 20;  // 256 pages
    params.total_accesses = 100000;
    Ycsb gen(params, kPage, 3);
    EXPECT_EQ(gen.footprint(), 512ull << 20);
    std::vector<PageId> buf(230);  // populated = 230 pages (0.9 fill)
    ASSERT_EQ(gen.fill(buf), 230u);
    for (PageId p = 0; p < 230; ++p)
        EXPECT_EQ(buf[p], p);  // sequential population sweep
}

TEST(Ycsb, ZipfHeadIsHottestPage)
{
    Ycsb::Params params;
    params.footprint = 512ull << 20;
    params.total_accesses = 100000;
    Ycsb gen(params, kPage, 3);
    auto counts = histogram(gen);
    std::uint64_t max_count = 0;
    for (const auto& [page, c] : counts)
        max_count = std::max(max_count, c);
    EXPECT_EQ(counts[0], max_count);
}

TEST(Ycsb, PhaseOrderIsABCFD)
{
    Ycsb::Params params;
    params.footprint = 512ull << 20;
    params.total_accesses = 50000;
    Ycsb gen(params, kPage, 3);
    EXPECT_EQ(gen.current_phase(), 'A');
    std::vector<PageId> buf(10000);
    gen.fill(buf);
    EXPECT_EQ(gen.current_phase(), 'B');
    gen.fill(buf);
    EXPECT_EQ(gen.current_phase(), 'C');
    gen.fill(buf);
    EXPECT_EQ(gen.current_phase(), 'F');
    gen.fill(buf);
    EXPECT_EQ(gen.current_phase(), 'D');
}

TEST(Graph, PresetsMatchPaperFootprints)
{
    EXPECT_EQ(GraphWorkload::cc(1).footprint, 69ull << 30);
    EXPECT_EQ(GraphWorkload::sssp(1).footprint, 64ull << 30);
    EXPECT_EQ(GraphWorkload::pr(1).footprint, 25ull << 30);
}

TEST(Graph, CcHotBlockIsCompact)
{
    GraphWorkload gen(GraphWorkload::cc(200000), kPage, 5);
    auto counts = histogram(gen);
    // Find the hottest page; its neighbourhood should also be hot
    // (compact hot block, Fig. 10b).
    PageId hottest = 0;
    std::uint64_t best = 0;
    for (const auto& [page, c] : counts) {
        if (c > best) {
            best = c;
            hottest = page;
        }
    }
    const auto near = [&](PageId p) {
        auto it = counts.find(p);
        return it == counts.end() ? 0 : it->second;
    };
    EXPECT_GT(near(hottest + 1) + near(hottest + 2), best / 8);
}

TEST(Graph, SsspFrontierMoves)
{
    auto params = GraphWorkload::sssp(100000);
    GraphWorkload gen(params, kPage, 5);
    std::vector<PageId> first(10000), last(10000);
    gen.fill(first);
    for (int i = 0; i < 8; ++i)
        gen.fill(last);
    gen.fill(last);
    // The frontier windows of the first and last supersteps barely
    // overlap: compare median pages.
    auto median = [](std::vector<PageId> v) {
        std::nth_element(v.begin(), v.begin() + v.size() / 2, v.end());
        return v[v.size() / 2];
    };
    EXPECT_NE(median(first) / 1000, median(last) / 1000);
}

TEST(Btree, DepthAndLevelHotness)
{
    Btree::Params params;
    params.footprint = 1ull << 30;  // small tree
    params.total_accesses = 120000;
    Btree gen(params, kPage, 9);
    EXPECT_GE(gen.depth(), 2u);
    auto counts = histogram(gen);
    // The root page (page 0) is touched on every lookup: strictly the
    // hottest page.
    std::uint64_t best = 0;
    for (const auto& [page, c] : counts)
        best = std::max(best, c);
    EXPECT_EQ(counts[0], best);
}

TEST(Btree, EveryLookupDescendsAllLevels)
{
    Btree::Params params;
    params.footprint = 1ull << 30;
    params.total_accesses = 1000;
    Btree gen(params, kPage, 9);
    std::vector<PageId> buf(static_cast<std::size_t>(gen.depth()));
    ASSERT_EQ(gen.fill(buf), buf.size());
    EXPECT_EQ(buf[0], 0u);  // root first
}

TEST(Btree, TotalIsBudgetRoundedUpToWholeLookups)
{
    Btree::Params params;
    params.total_accesses = 300001;
    Btree gen(params, kPage, 9);
    const std::uint64_t depth = gen.depth();
    const std::uint64_t lookups = (300001 + depth - 1) / depth;
    EXPECT_EQ(gen.total_accesses(), lookups * depth);
    EXPECT_GT(gen.total_accesses(), 300001u);  // 300001 is prime
    EXPECT_EQ(drain(gen).size(), gen.total_accesses());
}

/** Root-to-leaf pages of @p leaf by top-down per-level division. */
std::vector<PageId>
btree_reference_path(const Btree::Params& params, Bytes page_size,
                     unsigned depth, std::uint64_t leaf)
{
    std::vector<PageId> path;
    Bytes base = 0;
    std::uint64_t nodes = 1;
    for (unsigned level = 0; level < depth; ++level) {
        std::uint64_t node = leaf;
        for (unsigned below = level; below + 1 < depth; ++below)
            node /= params.fanout;
        path.push_back(
            static_cast<PageId>((base + node * params.node_size) / page_size));
        base += nodes * params.node_size;
        nodes *= params.fanout;
    }
    return path;
}

TEST(Btree, DescentMatchesTopDownReferenceAtEveryEdge)
{
    // A truncated last level (1 GiB) and an exactly full one (16-ary,
    // 1 + 16 + 256 + 4096 nodes of 4 KiB), at the first leaf, the last
    // leaf and the leaves around every level's node boundaries. Pages
    // of one node each, so every ancestor shows in the path.
    constexpr Bytes kNodePage = 4096;
    Btree::Params truncated;
    truncated.footprint = 1ull << 30;
    Btree::Params full;
    full.fanout = 16;
    full.footprint = (1 + 16 + 256 + 4096) * full.node_size;
    for (const auto& params : {truncated, full}) {
        Btree gen(params, kNodePage, 3);
        const unsigned depth = gen.depth();
        const std::uint64_t last = gen.leaf_count() - 1;
        std::vector<std::uint64_t> leaves = {0, 1, last - 1, last};
        for (std::uint64_t span = params.fanout; span <= last;
             span *= params.fanout) {
            leaves.push_back(span - 1);
            leaves.push_back(span);
        }
        std::vector<PageId> path(depth);
        for (const std::uint64_t leaf : leaves) {
            gen.descend(leaf, path);
            EXPECT_EQ(path,
                      btree_reference_path(params, kNodePage, depth, leaf))
                << "fanout " << params.fanout << " leaf " << leaf;
        }
    }
    // Leaf 0's path is the first node of every level.
    Btree gen(full, kNodePage, 3);
    std::vector<PageId> path(gen.depth());
    gen.descend(0, path);
    EXPECT_EQ(path, (std::vector<PageId>{0, 1, 17, 273}));
    EXPECT_EQ(gen.leaf_count(), 4096u);
}

TEST(Btree, DescentSplitAcrossBatchesResumes)
{
    // Batches one short of, one over and well under a descent split
    // lookups at every offset; the stream must equal whole-batch fills
    // and stay made of whole descents from the root.
    Btree::Params params;
    params.footprint = 1ull << 30;
    params.total_accesses = 5003;
    Btree whole(params, kPage, 4);
    const auto reference = drain_checked(whole, 4096);
    const std::size_t depth = whole.depth();
    ASSERT_EQ(reference.size() % depth, 0u);
    for (std::size_t i = 0; i < reference.size(); i += depth)
        ASSERT_EQ(reference[i], 0u) << "descent at " << i;
    for (const std::size_t batch : {depth - 1, depth + 1, std::size_t{2}}) {
        Btree gen(params, kPage, 4);
        EXPECT_EQ(drain_checked(gen, batch), reference) << "batch " << batch;
    }
}

TEST(Apps, SpecsMatchTable3Footprints)
{
    EXPECT_EQ(xsbench_spec(1).footprint, 69ull << 30);
    EXPECT_EQ(dlrm_spec(1).footprint, 72ull << 30);
    EXPECT_EQ(liblinear_spec(1).footprint, 68ull << 30);
    EXPECT_EQ(liblinear_spec(1000).phases.size(), 3u);
}

TEST(Factory, BuildsEveryAdvertisedWorkload)
{
    for (const auto name : workload_names()) {
        auto gen = make_workload(name, kPage, 1000, 1);
        ASSERT_NE(gen, nullptr) << name;
        EXPECT_EQ(gen->name(), name);
        EXPECT_GT(gen->footprint(), 0u) << name;
        std::vector<PageId> buf(128);
        EXPECT_GT(gen->fill(buf), 0u) << name;
    }
}

TEST(Factory, EveryWorkloadFillsWholeBatchesAndEmitsItsTotal)
{
    // A budget that is a multiple of none of the batch sizes, so every
    // drain ends in a short batch.
    constexpr std::uint64_t kBudget = 100003;
    for (const auto name : workload_names()) {
        auto one_by_one = make_workload(name, kPage, kBudget, 7);
        const auto reference = drain_checked(*one_by_one, 1);
        for (const std::size_t batch : {37, 512, 4096}) {
            auto gen = make_workload(name, kPage, kBudget, 7);
            EXPECT_EQ(drain_checked(*gen, batch), reference)
                << name << " batch " << batch;
        }
    }
}

/** 64-bit digest of @p gen's whole fill() stream, order included. */
std::uint64_t
stream_digest(AccessGenerator& gen)
{
    std::uint64_t h = 0x6a09e667f3bcc908ull;
    std::vector<PageId> buf(4096);
    std::size_t n;
    while ((n = gen.fill(buf)) > 0) {
        for (std::size_t i = 0; i < n; ++i) {
            // splitmix64's finaliser over the running state and the id:
            // a change anywhere in the stream changes the digest.
            h = (h ^ buf[i]) + 0x9e3779b97f4a7c15ull;
            h = (h ^ (h >> 30)) * 0xbf58476d1ce4e5b9ull;
            h = (h ^ (h >> 27)) * 0x94d049bb133111ebull;
            h ^= h >> 31;
        }
    }
    return h;
}

TEST(Factory, EveryWorkloadStreamMatchesGolden)
{
    // Golden digests of every built-in generator's full stream (seed 11,
    // 200k accesses, 2 MiB pages) and of a 16-tenant interleaving. The
    // generators' fast paths (the Zipf table walk, MASIM's region pick,
    // the B-tree descent) must reproduce these streams exactly; a
    // deliberate change to a generator's output re-records them.
    constexpr std::uint64_t kAccesses = 200000;
    constexpr std::uint64_t kSeed = 11;
    const std::map<std::string_view, std::uint64_t> golden = {
        {"ycsb", 0xd6a620d463fa4938ull},
        {"ycsb_w", 0xe4c9ca1c08381bb1ull},
        {"cc", 0x115cd1220eaa37caull},
        {"sssp", 0x58d878db039230c5ull},
        {"pr", 0xee314537ebbf21eeull},
        {"xsbench", 0x96f6736272e1602cull},
        {"dlrm", 0xe0433b768f580820ull},
        {"btree", 0xdc801dea7b9375a6ull},
        {"liblinear", 0x89aa91e05dea88c7ull},
        {"s1", 0xdf96bee8ae69dddcull},
        {"s2", 0x4063968128b87ddaull},
        {"s3", 0xc832e55112588f9aull},
        {"s4", 0x6c8104aaacfcc5a6ull},
        {"uniform", 0x4fee105504d36e46ull},
        {"sequential", 0x21463dc69876a06dull},
    };
    ASSERT_EQ(golden.size(), workload_names().size());
    for (const auto name : workload_names()) {
        auto gen = make_workload(name, kPage, kAccesses, kSeed);
        const auto it = golden.find(name);
        ASSERT_NE(it, golden.end()) << name;
        const std::uint64_t digest = stream_digest(*gen);
        EXPECT_EQ(digest, it->second)
            << name << std::hex << " digest 0x" << digest;
    }

    tenancy::TenancyConfig config;
    config.tenants = 16;
    config.mix = {"s2", "ycsb", "s3", "btree"};
    auto set = tenancy::make_tenant_set(config, "s2", kPage, kAccesses, kSeed);
    const std::uint64_t tenants = stream_digest(*set);
    EXPECT_EQ(tenants, 0x9cbf8296894392ecull) << std::hex << "tenants digest 0x" << tenants;
}

TEST(Factory, AppListIsTable3)
{
    EXPECT_EQ(app_workload_names().size(), 8u);
}

TEST(Factory, MasimPrefixBuildsTheConfigFile)
{
    const std::string path = ::testing::TempDir() + "/artmem_factory.cfg";
    {
        std::ofstream out(path);
        out << "name = demo\n"
               "footprint_mib = 64\n"
               "phases = 2\n"
               "phase0.accesses = 3000\n"
               "phase0.regions = 2\n"
               "phase0.region0 = 0 16 9.0\n"
               "phase0.region1 = 16 48 1.0\n"
               "phase1.accesses = 2000\n"
               "phase1.regions = 1\n"
               "phase1.region0 = 0 64 1.0 seq\n";
    }
    // The access count comes from the file, not the budget argument.
    auto gen = make_workload("masim:" + path, kPage, 1, 7);
    Masim reference(Masim::parse_spec(KvConfig::load(path)), kPage, 7);
    EXPECT_EQ(gen->name(), "demo");
    EXPECT_EQ(gen->footprint(), 64ull << 20);
    EXPECT_EQ(gen->total_accesses(), 5000u);
    EXPECT_EQ(drain(*gen), drain(reference));
}

TEST(Factory, FileBackedNamesRejectMissingFiles)
{
    const std::string missing = ::testing::TempDir() + "/artmem_missing";
    EXPECT_EXIT((void)make_workload("masim:" + missing, kPage, 1, 1),
                ::testing::ExitedWithCode(1), "cannot open");
    EXPECT_EXIT((void)make_workload("trace:" + missing, kPage, 1, 1),
                ::testing::ExitedWithCode(1), "cannot open");
}

TEST(Trace, RecordAndReplayRoundTrip)
{
    const std::string path = ::testing::TempDir() + "/artmem_trace.bin";
    std::vector<PageId> original;
    {
        auto inner = std::make_unique<Ycsb>(
            Ycsb::Params{.footprint = 256ull << 20,
                         .total_accesses = 20000},
            kPage, 5);
        // Capture the stream once for comparison.
        Ycsb reference(Ycsb::Params{.footprint = 256ull << 20,
                                    .total_accesses = 20000},
                       kPage, 5);
        std::vector<PageId> buf(333);
        std::size_t n;
        while ((n = reference.fill(buf)) > 0)
            original.insert(original.end(), buf.begin(), buf.begin() + n);

        TraceWriter writer(std::move(inner), path, kPage);
        while (writer.fill(buf) > 0) {
        }
        EXPECT_EQ(writer.written(), original.size());
    }  // destructor finalizes the header

    TraceReplay replay(path);
    EXPECT_EQ(replay.page_size(), kPage);
    EXPECT_EQ(replay.footprint(), 256ull << 20);
    EXPECT_EQ(replay.total_accesses(), original.size());
    EXPECT_EQ(drain(replay), original);

    // The factory's trace: form replays the same file.
    auto by_name = make_workload("trace:" + path, kPage, 1, 1);
    EXPECT_EQ(by_name->footprint(), 256ull << 20);
    EXPECT_EQ(by_name->total_accesses(), original.size());
    EXPECT_EQ(drain(*by_name), original);

    // A trace recorded at 2 MiB pages cannot drive a 4 KiB machine.
    EXPECT_EXIT((void)make_workload("trace:" + path, 4096, 1, 1),
                ::testing::ExitedWithCode(1),
                "recorded at page size 2097152 but the machine page size "
                "is 4096");
}

TEST(Trace, StreamReplayCopiesMinOfBatchAndRemaining)
{
    const std::vector<PageId> stream = {3, 1, 4, 1, 5, 9, 2};
    StreamReplay replay("pi", 10 * kPage, stream);
    EXPECT_EQ(replay.name(), "pi");
    EXPECT_EQ(replay.footprint(), 10 * kPage);
    EXPECT_EQ(replay.total_accesses(), stream.size());
    std::vector<PageId> buf(3);
    ASSERT_EQ(replay.fill(buf), 3u);
    EXPECT_EQ(buf, (std::vector<PageId>{3, 1, 4}));
    ASSERT_EQ(replay.fill(buf), 3u);
    EXPECT_EQ(buf, (std::vector<PageId>{1, 5, 9}));
    ASSERT_EQ(replay.fill(buf), 1u);
    EXPECT_EQ(buf[0], 2u);
    EXPECT_EQ(replay.fill(buf), 0u);
    EXPECT_EQ(replay.fill({}), 0u);
}

TEST(Trace, ReplayRejectsGarbage)
{
    const std::string path = ::testing::TempDir() + "/artmem_garbage.bin";
    {
        std::ofstream out(path, std::ios::binary);
        out << "this is not a trace file at all";
    }
    EXPECT_EXIT(TraceReplay{path}, ::testing::ExitedWithCode(1), "");
}

/** Write a trace file with a hand-crafted header and page-id payload. */
std::string
write_crafted_trace(const std::string& name, std::uint32_t page_size_log2,
                    std::uint64_t footprint, std::uint64_t count,
                    const std::vector<PageId>& pages)
{
    const std::string path = ::testing::TempDir() + "/" + name;
    std::ofstream out(path, std::ios::binary);
    const std::uint32_t version = 1;
    out.write("ARTMEMTR", 8);
    out.write(reinterpret_cast<const char*>(&version), sizeof(version));
    out.write(reinterpret_cast<const char*>(&page_size_log2),
              sizeof(page_size_log2));
    out.write(reinterpret_cast<const char*>(&footprint), sizeof(footprint));
    out.write(reinterpret_cast<const char*>(&count), sizeof(count));
    out.write(reinterpret_cast<const char*>(pages.data()),
              static_cast<std::streamsize>(pages.size() * sizeof(PageId)));
    return path;
}

TEST(Trace, ReplayRejectsCountBeyondFileSize)
{
    // count = 2^61 used to reach vector::resize and throw
    // std::length_error; the size check must reject it first.
    const auto path = write_crafted_trace(
        "artmem_huge_count.bin", 21, 4 * kPage, 1ull << 61, {0, 1});
    EXPECT_EXIT(TraceReplay{path}, ::testing::ExitedWithCode(1),
                "header claims 2305843009213693952 accesses but only 2 fit");
}

TEST(Trace, ReplayRejectsOversizedPageShift)
{
    // 1 << 70 is undefined behaviour; the header must be rejected.
    const auto path = write_crafted_trace("artmem_big_shift.bin", 70,
                                          4 * kPage, 1, {0});
    EXPECT_EXIT(TraceReplay{path}, ::testing::ExitedWithCode(1),
                "page_size_log2 70 out of range");
}

TEST(Trace, ReplayRejectsPageBeyondFootprint)
{
    // Page 4 of a 4-page footprint is the third access: header (32
    // bytes) + 2 * 4 bytes puts it at byte offset 40.
    const auto path = write_crafted_trace("artmem_bad_page.bin", 21,
                                          4 * kPage, 3, {0, 3, 4});
    EXPECT_EXIT(TraceReplay{path}, ::testing::ExitedWithCode(1),
                "page id 4 at byte offset 40 is outside the 4-page "
                "footprint");
}

TEST(Simple, UniformCoversSpace)
{
    UniformRandom gen(16 * kPage, kPage, 16000, 3);
    auto counts = histogram(gen);
    EXPECT_EQ(counts.size(), 16u);
}

}  // namespace
}  // namespace artmem::workloads
