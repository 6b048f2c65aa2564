/**
 * @file
 * Workload correctness tests: every workload must match its CPU
 * reference on the simulated GPU, across parameter sweeps
 * (TEST_P property style).
 */

#include <gtest/gtest.h>

#include "api/workload_registry.hh"
#include "workloads/bfs.hh"
#include "workloads/compute_stream.hh"
#include "workloads/gemm.hh"
#include "workloads/graph.hh"
#include "workloads/reduction.hh"
#include "workloads/scan.hh"
#include "workloads/spmv.hh"
#include "workloads/stencil.hh"
#include "workloads/transpose.hh"
#include "workloads/vecadd.hh"

namespace gpulat {
namespace {

GpuConfig
testConfig()
{
    GpuConfig cfg = makeGF100Sim();
    cfg.numSms = 4;
    cfg.numPartitions = 2;
    cfg.deviceMemBytes = 64 * 1024 * 1024;
    return cfg;
}

TEST(Graph, UniformGraphIsWellFormedCsr)
{
    const CsrGraph g = makeUniformGraph(1000, 8, 1);
    EXPECT_EQ(g.numNodes, 1000u);
    EXPECT_EQ(g.rowOffsets.size(), 1001u);
    EXPECT_EQ(g.rowOffsets.back(), g.numEdges());
    for (std::size_t v = 0; v < g.numNodes; ++v)
        EXPECT_LE(g.rowOffsets[v], g.rowOffsets[v + 1]);
    for (const auto c : g.columns)
        EXPECT_LT(c, g.numNodes);
}

TEST(Graph, RmatDegreesAreSkewed)
{
    const CsrGraph g = makeRmatGraph(12, 8, 7);
    std::uint64_t max_deg = 0;
    for (std::size_t v = 0; v < g.numNodes; ++v)
        max_deg = std::max(max_deg,
                           g.rowOffsets[v + 1] - g.rowOffsets[v]);
    const double mean_deg = static_cast<double>(g.numEdges()) /
                            static_cast<double>(g.numNodes);
    EXPECT_GT(static_cast<double>(max_deg), mean_deg * 5);
}

TEST(Graph, GeneratorsAreDeterministic)
{
    const CsrGraph a = makeRmatGraph(10, 4, 3);
    const CsrGraph b = makeRmatGraph(10, 4, 3);
    EXPECT_EQ(a.columns, b.columns);
    EXPECT_EQ(a.rowOffsets, b.rowOffsets);
}

TEST(Graph, CpuBfsProducesValidLevels)
{
    const CsrGraph g = makeUniformGraph(500, 6, 2);
    const auto levels = cpuBfs(g, 0);
    EXPECT_EQ(levels[0], 0);
    // Every reachable node's level is 1 + min over in-neighbors on
    // the BFS tree; weaker sanity: a neighbor differs by <= 1 when
    // both reached.
    for (std::uint64_t v = 0; v < g.numNodes; ++v) {
        if (levels[v] < 0)
            continue;
        for (std::uint64_t e = g.rowOffsets[v];
             e < g.rowOffsets[v + 1]; ++e) {
            const auto u = g.columns[e];
            ASSERT_GE(levels[u], 0);
            EXPECT_LE(levels[u], levels[v] + 1);
        }
    }
}

class BfsSeeds : public ::testing::TestWithParam<std::uint64_t>
{
};

TEST_P(BfsSeeds, MatchesCpuReferenceOnUniformGraphs)
{
    Gpu gpu(testConfig());
    Bfs::Options opts;
    opts.kind = Bfs::GraphKind::Uniform;
    opts.nodes = 2000;
    opts.degree = 6;
    opts.seed = GetParam();
    Bfs bfs(opts);
    EXPECT_TRUE(bfs.run(gpu).correct) << "seed " << GetParam();
    EXPECT_GT(gpu.launchCount(), 1u);
}

INSTANTIATE_TEST_SUITE_P(Sweep, BfsSeeds,
                         ::testing::Values(1, 2, 3, 4, 5));

TEST(BfsWorkload, RmatGraphMatchesReference)
{
    Gpu gpu(testConfig());
    Bfs::Options opts;
    opts.kind = Bfs::GraphKind::Rmat;
    opts.scale = 11;
    opts.degree = 8;
    Bfs bfs(opts);
    EXPECT_TRUE(bfs.run(gpu).correct);
}

class VecAddSizes : public ::testing::TestWithParam<std::uint64_t>
{
};

TEST_P(VecAddSizes, MatchesReference)
{
    Gpu gpu(testConfig());
    VecAdd::Options opts;
    opts.n = GetParam();
    VecAdd workload(opts);
    EXPECT_TRUE(workload.run(gpu).correct) << "n = " << GetParam();
}

INSTANTIATE_TEST_SUITE_P(Sweep, VecAddSizes,
                         ::testing::Values(1, 31, 32, 255, 4096,
                                           100000));

class ReductionSizes
    : public ::testing::TestWithParam<std::pair<std::uint64_t,
                                                unsigned>>
{
};

TEST_P(ReductionSizes, MatchesReference)
{
    Gpu gpu(testConfig());
    Reduction::Options opts;
    opts.n = GetParam().first;
    opts.threadsPerBlock = GetParam().second;
    Reduction workload(opts);
    EXPECT_TRUE(workload.run(gpu).correct)
        << "n=" << opts.n << " tpb=" << opts.threadsPerBlock;
}

INSTANTIATE_TEST_SUITE_P(
    Sweep, ReductionSizes,
    ::testing::Values(std::pair<std::uint64_t, unsigned>{1000, 64},
                      std::pair<std::uint64_t, unsigned>{4096, 256},
                      std::pair<std::uint64_t, unsigned>{10000, 128},
                      std::pair<std::uint64_t, unsigned>{65536, 512}));

TEST(StencilWorkload, MatchesReference)
{
    Gpu gpu(testConfig());
    Stencil2D::Options opts;
    opts.width = 64;
    opts.height = 48;
    opts.iterations = 3;
    Stencil2D workload(opts);
    EXPECT_TRUE(workload.run(gpu).correct);
}

TEST(SpmvWorkload, MatchesReference)
{
    Gpu gpu(testConfig());
    SpMV::Options opts;
    opts.rows = 1024;
    opts.nnzPerRow = 12;
    SpMV workload(opts);
    EXPECT_TRUE(workload.run(gpu).correct);
}

TEST(TransposeWorkload, NaiveMatchesReference)
{
    Gpu gpu(testConfig());
    Transpose::Options opts;
    opts.n = 64;
    opts.tiled = false;
    Transpose workload(opts);
    EXPECT_TRUE(workload.run(gpu).correct);
}

TEST(TransposeWorkload, TiledMatchesReference)
{
    Gpu gpu(testConfig());
    Transpose::Options opts;
    opts.n = 64;
    opts.tiled = true;
    Transpose workload(opts);
    EXPECT_TRUE(workload.run(gpu).correct);
}

TEST(TransposeWorkload, TiledIsFasterThanNaive)
{
    Transpose::Options naive_opts;
    naive_opts.n = 128;
    naive_opts.tiled = false;
    Transpose naive(naive_opts);

    Transpose::Options tiled_opts = naive_opts;
    tiled_opts.tiled = true;
    Transpose tiled(tiled_opts);

    Gpu gpu_naive(testConfig());
    Gpu gpu_tiled(testConfig());
    ASSERT_TRUE(naive.run(gpu_naive).correct);
    ASSERT_TRUE(tiled.run(gpu_tiled).correct);
    // Coalescing pays: tiled needs fewer cycles.
    EXPECT_LT(gpu_tiled.now(), gpu_naive.now());
}

class ScanSizes
    : public ::testing::TestWithParam<std::pair<std::uint64_t,
                                                unsigned>>
{
};

TEST_P(ScanSizes, MatchesReference)
{
    Gpu gpu(testConfig());
    Scan::Options opts;
    opts.n = GetParam().first;
    opts.blockElems = GetParam().second;
    Scan workload(opts);
    EXPECT_TRUE(workload.run(gpu).correct)
        << "n=" << opts.n << " block=" << opts.blockElems;
    EXPECT_EQ(gpu.launchCount(), 2u);
}

INSTANTIATE_TEST_SUITE_P(
    Sweep, ScanSizes,
    ::testing::Values(std::pair<std::uint64_t, unsigned>{100, 64},
                      std::pair<std::uint64_t, unsigned>{256, 256},
                      std::pair<std::uint64_t, unsigned>{5000, 128},
                      std::pair<std::uint64_t, unsigned>{16384, 512}));

TEST(GemmWorkload, MatchesReference)
{
    Gpu gpu(testConfig());
    Gemm::Options opts;
    opts.n = 32;
    Gemm workload(opts);
    EXPECT_TRUE(workload.run(gpu).correct);
}

TEST(GemmWorkload, LargerMatrixStillExact)
{
    Gpu gpu(testConfig());
    Gemm::Options opts;
    opts.n = 64;
    Gemm workload(opts);
    EXPECT_TRUE(workload.run(gpu).correct);
}

class ComputeStreamDepths : public ::testing::TestWithParam<unsigned>
{
};

TEST_P(ComputeStreamDepths, MatchesReference)
{
    Gpu gpu(testConfig());
    ComputeStream::Options opts;
    opts.n = 4096;
    opts.fmaDepth = GetParam();
    ComputeStream workload(opts);
    EXPECT_TRUE(workload.run(gpu).correct)
        << "depth " << GetParam();
}

INSTANTIATE_TEST_SUITE_P(Sweep, ComputeStreamDepths,
                         ::testing::Values(0, 1, 16, 64));

TEST(AllWorkloads, FactoryProducesRunnableSet)
{
    const WorkloadRegistry &reg = WorkloadRegistry::instance();
    const auto names = reg.names();
    EXPECT_GE(names.size(), 10u);
    for (const std::string &name : names) {
        const auto workload =
            reg.create(name, reg.scaledParams(name, 0.05));
        Gpu gpu(testConfig());
        EXPECT_TRUE(workload->run(gpu).correct) << name;
    }
}

} // namespace
} // namespace gpulat
