/**
 * @file
 * Tests for the pointer-chase microbenchmark machinery: chain
 * construction, kernel generation, and that measurements respond to
 * cache capacity the way the methodology assumes.
 */

#include <gtest/gtest.h>

#include "microbench/pchase.hh"
#include "microbench/sweep.hh"

namespace gpulat {
namespace {

GpuConfig
smallFermi()
{
    GpuConfig cfg = makeGF106();
    cfg.numSms = 1;
    cfg.numPartitions = 1;
    cfg.deviceMemBytes = 64 * 1024 * 1024;
    return cfg;
}

TEST(PChase, ChaseKernelHasExpectedShape)
{
    const Kernel k = buildChaseKernel(MemSpace::Global, 4, 16);
    // 2 movs + 4 warmup + clock + 16 timed + clock + 1 trailing
    // (untimed, anti-vacuous-verification) + isub + mov + 2 st +
    // exit
    EXPECT_EQ(k.size(), 2u + 4 + 1 + 16 + 1 + 1 + 1 + 1 + 2 + 1);
    unsigned loads = 0;
    for (const auto &inst : k.code)
        if (inst.isLoad())
            ++loads;
    EXPECT_EQ(loads, 21u);
}

TEST(PChase, L1ResidentChaseIsFastAndUniform)
{
    Gpu gpu(smallFermi());
    PChaseConfig pc;
    pc.footprintBytes = 4 * 1024; // well inside 16KB L1
    pc.strideBytes = 128;
    pc.timedAccesses = 256;
    const PChaseResult r = runPointerChase(gpu, pc);
    // L1-hit territory: tens of cycles, far below L2 latency.
    EXPECT_GT(r.cyclesPerAccess, 10.0);
    EXPECT_LT(r.cyclesPerAccess, 100.0);
}

TEST(PChase, BeyondL1FootprintIsSlower)
{
    GpuConfig cfg = smallFermi();
    const std::uint64_t l1 = cfg.sm.l1Cache.capacityBytes;

    Gpu inside(cfg);
    PChaseConfig pc;
    pc.footprintBytes = l1 / 2;
    pc.timedAccesses = 256;
    const double fast = runPointerChase(inside, pc).cyclesPerAccess;

    Gpu outside(cfg);
    pc.footprintBytes = l1 * 4;
    const double slow = runPointerChase(outside, pc).cyclesPerAccess;
    EXPECT_GT(slow, fast * 2.0);
}

TEST(PChase, BeyondL2FootprintIsSlowest)
{
    GpuConfig cfg = smallFermi();
    const std::uint64_t l2 = cfg.totalL2Bytes();

    Gpu at_l2(cfg);
    PChaseConfig pc;
    pc.footprintBytes = l2 / 2;
    pc.timedAccesses = 256;
    const double l2_lat = runPointerChase(at_l2, pc).cyclesPerAccess;

    Gpu beyond(cfg);
    pc.footprintBytes = l2 * 2;
    const double dram_lat =
        runPointerChase(beyond, pc).cyclesPerAccess;
    EXPECT_GT(dram_lat, l2_lat * 1.5);
}

TEST(PChase, LocalChaseUsesL1OnKepler)
{
    GpuConfig cfg = makeGK104();
    cfg.numSms = 1;
    cfg.numPartitions = 1;
    cfg.localBytesPerThread = 8 * 1024;

    Gpu gpu(cfg);
    PChaseConfig pc;
    pc.space = MemSpace::Local;
    pc.footprintBytes = 4 * 1024;
    pc.timedAccesses = 256;
    const double local_lat =
        runPointerChase(gpu, pc).cyclesPerAccess;

    Gpu gpu2(cfg);
    pc.space = MemSpace::Global;
    const double global_lat =
        runPointerChase(gpu2, pc).cyclesPerAccess;

    // Kepler: local hits the L1, global can't (L2 at best).
    EXPECT_LT(local_lat, global_lat * 0.5);
}

TEST(PChase, MeasurementIsDeterministic)
{
    auto measure = [] {
        Gpu gpu(smallFermi());
        PChaseConfig pc;
        pc.footprintBytes = 8 * 1024;
        pc.timedAccesses = 128;
        return runPointerChase(gpu, pc).cyclesPerAccess;
    };
    EXPECT_DOUBLE_EQ(measure(), measure());
}

TEST(PChase, RejectsBadStride)
{
    Gpu gpu(smallFermi());
    PChaseConfig pc;
    pc.strideBytes = 12; // not a multiple of 8
    EXPECT_THROW(runPointerChase(gpu, pc), PanicError);
}

TEST(Sweep, StrideSweepRecoversLineSize)
{
    GpuConfig cfg = smallFermi();
    SweepOptions opts;
    opts.timedAccesses = 192;
    // Footprint far beyond the L1 so every line transition misses.
    const std::uint64_t fp = cfg.sm.l1Cache.capacityBytes * 8;
    const auto curve =
        sweepStrides(cfg, fp, {8, 16, 32, 64, 128, 256}, opts);
    EXPECT_EQ(detectLineSize(curve), cfg.sm.lineBytes);
}

TEST(Sweep, StrideSweepLatencyIsMonotone)
{
    GpuConfig cfg = smallFermi();
    SweepOptions opts;
    opts.timedAccesses = 192;
    const std::uint64_t fp = cfg.sm.l1Cache.capacityBytes * 8;
    const auto curve = sweepStrides(cfg, fp, {8, 32, 128}, opts);
    ASSERT_EQ(curve.size(), 3u);
    EXPECT_LT(curve[0].latency, curve[1].latency);
    EXPECT_LT(curve[1].latency, curve[2].latency);
}

TEST(Sweep, CurveIsMonotoneAcrossCapacityBoundary)
{
    GpuConfig cfg = smallFermi();
    SweepOptions opts;
    opts.timedAccesses = 128;
    const std::uint64_t l1 = cfg.sm.l1Cache.capacityBytes;
    const auto curve =
        sweepFootprints(cfg, {l1 / 2, l1, l1 * 4}, opts);
    ASSERT_EQ(curve.size(), 3u);
    EXPECT_NEAR(curve[0].latency, curve[1].latency,
                curve[0].latency * 0.05);
    EXPECT_GT(curve[2].latency, curve[1].latency);
}

} // namespace
} // namespace gpulat
