/**
 * @file
 * Dynamic latency analysis tests (Figures 1 and 2): trace
 * well-formedness on real runs, the paper's qualitative claims
 * about BFS (queueing/arbitration dominate long latencies; a large
 * exposed fraction; added interconnect latency shows up in its
 * runtime), and the latency-hiding contrast with vecadd.
 */

#include <gtest/gtest.h>

#include "gpu/gpu.hh"
#include "latency/breakdown.hh"
#include "latency/exposure.hh"
#include "workloads/bfs.hh"
#include "workloads/compute_stream.hh"
#include "workloads/vecadd.hh"

namespace gpulat {
namespace {

GpuConfig
dynConfig()
{
    GpuConfig cfg = makeGF100Sim();
    cfg.numSms = 6;
    cfg.numPartitions = 3;
    cfg.deviceMemBytes = 64 * 1024 * 1024;
    return cfg;
}

struct BfsRun
{
    std::vector<LatencyTrace> traces;
    std::vector<ExposureRecord> exposure;
    bool correct;
};

const BfsRun &
bfsRun()
{
    static const BfsRun run = [] {
        Gpu gpu(dynConfig());
        Bfs::Options opts;
        opts.kind = Bfs::GraphKind::Rmat;
        opts.scale = 12;
        opts.degree = 8;
        Bfs bfs(opts);
        BfsRun r;
        r.correct = bfs.run(gpu).correct;
        r.traces = gpu.latencies().traces();
        r.exposure = gpu.exposure().records();
        return r;
    }();
    return run;
}

TEST(DynamicBfs, RunsCorrectlyAndProducesTraces)
{
    EXPECT_TRUE(bfsRun().correct);
    EXPECT_GT(bfsRun().traces.size(), 10000u);
    EXPECT_GT(bfsRun().exposure.size(), 1000u);
}

TEST(DynamicBfs, EveryTraceIsWellFormed)
{
    for (const auto &t : bfsRun().traces) {
        ASSERT_NE(t.issue, kNoCycle);
        ASSERT_NE(t.complete, kNoCycle);
        ASSERT_LE(t.issue, t.complete);
        Cycle sum = 0;
        for (auto v : t.stageCycles())
            sum += v;
        ASSERT_EQ(sum, t.total());
    }
}

TEST(DynamicBfs, AllThreeHitLevelsAppear)
{
    std::array<std::uint64_t, 3> counts{};
    for (const auto &t : bfsRun().traces)
        ++counts[static_cast<std::size_t>(t.hitLevel)];
    EXPECT_GT(counts[0], 0u) << "no L1 hits";
    EXPECT_GT(counts[1], 0u) << "no L2 hits";
    EXPECT_GT(counts[2], 0u) << "no DRAM accesses";
}

TEST(DynamicBfs, ShortBucketsArePureSmBase)
{
    // The paper: "several latency buckets on the left are entirely
    // filled with SM base time" (L1 hits). Fine buckets so the
    // first one stays below the L2 round trip even under load.
    const Breakdown bd = computeBreakdown(bfsRun().traces, 256);
    const BreakdownBucket *first = nullptr;
    for (const auto &bucket : bd.buckets) {
        if (bucket.count > 0) {
            first = &bucket;
            break;
        }
    }
    ASSERT_NE(first, nullptr);
    EXPECT_GT(first->stagePct(Stage::SmBase), 99.0);
}

TEST(DynamicBfs, LongBucketsContainAllStages)
{
    const Breakdown bd = computeBreakdown(bfsRun().traces, 48);
    // Find the last reasonably-populated bucket.
    const BreakdownBucket *longest = nullptr;
    for (const auto &bucket : bd.buckets)
        if (bucket.count >= 10)
            longest = &bucket;
    ASSERT_NE(longest, nullptr);
    EXPECT_GT(longest->stagePct(Stage::DramQToSched) +
                  longest->stagePct(Stage::DramSchedToData),
              10.0);
    EXPECT_GT(longest->stagePct(Stage::L1ToIcnt) +
                  longest->stagePct(Stage::IcntToRop), 0.0);
}

TEST(DynamicBfs, QueueingAndArbitrationDominateLongLatencies)
{
    // The paper's key finding: long-latency requests spend their
    // time in queues (L1->ICNT, L2->DRAM backpressure, DRAM queue)
    // and arbitration (ICNT, DRAM scheduling) rather than in the
    // fixed-latency pipeline stages.
    std::array<std::uint64_t, kNumStages> dram_stage_sum{};
    for (const auto &t : bfsRun().traces) {
        if (t.hitLevel != HitLevel::Dram)
            continue;
        const auto stages = t.stageCycles();
        for (std::size_t s = 0; s < kNumStages; ++s)
            dram_stage_sum[s] += stages[s];
    }
    auto sum_of = [&](std::initializer_list<Stage> list) {
        std::uint64_t v = 0;
        for (Stage s : list)
            v += dram_stage_sum[static_cast<std::size_t>(s)];
        return v;
    };
    const std::uint64_t queueing =
        sum_of({Stage::L1ToIcnt, Stage::IcntToRop,
                Stage::L2QToDramQ, Stage::DramQToSched});
    const std::uint64_t total =
        sum_of({Stage::SmBase, Stage::L1ToIcnt, Stage::IcntToRop,
                Stage::RopToL2Q, Stage::L2QToDramQ,
                Stage::DramQToSched, Stage::DramSchedToData,
                Stage::FetchToSm});
    ASSERT_GT(total, 0u);
    EXPECT_GT(static_cast<double>(queueing) /
                  static_cast<double>(total),
              0.35);
}

TEST(DynamicBfs, SignificantExposedLatency)
{
    // The paper: exposure "sometimes close to 100% and more than
    // 50% for most of the global memory load instructions".
    const ExposureBreakdown eb =
        computeExposure(bfsRun().exposure, 48);
    EXPECT_GT(eb.overallExposedPct(), 30.0);
    EXPECT_GT(eb.fractionOfLoadsMostlyExposed(), 0.3);
}

TEST(DynamicBfs, ExposureNeverExceedsTotal)
{
    for (const auto &r : bfsRun().exposure)
        ASSERT_LE(r.exposed, r.total);
}

TEST(DynamicComputeStream, HidesLatencyWellAtFullOccupancy)
{
    // A streaming workload with real arithmetic behind each load:
    // at full occupancy the FMA chains of other warps hide most of
    // the load latency — the contrast to BFS.
    Gpu gpu(dynConfig());
    ComputeStream::Options opts;
    opts.n = 1 << 15;
    opts.fmaDepth = 48;
    ComputeStream workload(opts);
    ASSERT_TRUE(workload.run(gpu).correct);
    const ExposureBreakdown eb =
        computeExposure(gpu.exposure().records(), 48);
    const ExposureBreakdown bfs_eb =
        computeExposure(bfsRun().exposure, 48);
    EXPECT_LT(eb.overallExposedPct(),
              bfs_eb.overallExposedPct() - 10.0);
}

TEST(DynamicVecadd, FewerWarpsExposeMoreLatency)
{
    auto exposed_with_warps = [](unsigned warps) {
        GpuConfig cfg = dynConfig();
        cfg.sm.warpSlots = warps;
        cfg.sm.maxBlocksPerSm = std::max(1u, warps);
        Gpu gpu(cfg);
        VecAdd::Options opts;
        opts.n = 1 << 14;
        opts.threadsPerBlock = std::min(256u, warps * kWarpSize);
        VecAdd workload(opts);
        EXPECT_TRUE(workload.run(gpu).correct);
        return computeExposure(gpu.exposure().records(), 48)
            .overallExposedPct();
    };
    const double exposed1 = exposed_with_warps(1);
    const double exposed32 = exposed_with_warps(32);
    EXPECT_GT(exposed1, exposed32);
    EXPECT_GT(exposed1, 80.0); // a single warp can't hide anything
}

TEST(DynamicLoad, LatencyGrowsUnderLoad)
{
    // Idle single-warp latency vs heavily loaded latency.
    auto mean_latency = [](unsigned blocks) {
        Gpu gpu(dynConfig());
        VecAdd::Options opts;
        opts.n = static_cast<std::uint64_t>(blocks) * 256;
        opts.threadsPerBlock = 256;
        VecAdd workload(opts);
        EXPECT_TRUE(workload.run(gpu).correct);
        double sum = 0;
        for (const auto &t : gpu.latencies().traces())
            sum += static_cast<double>(t.total());
        return sum / static_cast<double>(gpu.latencies().count());
    };
    EXPECT_GT(mean_latency(96), mean_latency(1) * 1.2);
}

TEST(DynamicSched, FrFcfsNotSlowerThanFcfsOnStreaming)
{
    auto run_cycles = [](DramSchedPolicy policy) {
        GpuConfig cfg = dynConfig();
        cfg.partition.sched = policy;
        Gpu gpu(cfg);
        VecAdd::Options opts;
        opts.n = 1 << 14;
        VecAdd workload(opts);
        EXPECT_TRUE(workload.run(gpu).correct);
        return gpu.now();
    };
    EXPECT_LE(run_cycles(DramSchedPolicy::FRFCFS),
              run_cycles(DramSchedPolicy::FCFS) * 1.05);
}

TEST(DynamicIcnt, LatencyIsExposedInBfsAndHiddenInComputeStream)
{
    // The paper's conclusion: latency must be a design
    // consideration beside throughput. Stretching the crossbar
    // traversal from 10 to 160 cycles slows BFS's dependent,
    // scattered loads, while an FMA-bound stream hides it.
    auto cycles = [](auto make_workload, Cycle icnt_latency) {
        GpuConfig cfg = makeConfig("gf106");
        cfg.icntLatency = icnt_latency;
        Gpu gpu(cfg);
        auto workload = make_workload();
        EXPECT_TRUE(workload.run(gpu).correct) << workload.name();
        return static_cast<double>(gpu.now());
    };
    auto bfs = [] {
        Bfs::Options opts;
        opts.scale = 10;
        return Bfs(opts);
    };
    auto stream = [] {
        ComputeStream::Options opts;
        opts.n = 8192;
        opts.fmaDepth = 32;
        return ComputeStream(opts);
    };
    EXPECT_GE(cycles(bfs, 160), cycles(bfs, 10) * 1.15);
    EXPECT_LE(cycles(stream, 160), cycles(stream, 10) * 1.05);
}

} // namespace
} // namespace gpulat
