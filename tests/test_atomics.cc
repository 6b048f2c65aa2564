/**
 * @file
 * Tests for global atomics: correctness under full contention,
 * per-op semantics, return values, and their L2 path behaviour.
 */

#include <gtest/gtest.h>

#include "gpu/gpu.hh"
#include "isa/assembler.hh"
#include "workloads/histogram.hh"

namespace gpulat {
namespace {

GpuConfig
testConfig()
{
    GpuConfig cfg = makeGF100Sim();
    cfg.numSms = 4;
    cfg.numPartitions = 2;
    cfg.deviceMemBytes = 32 * 1024 * 1024;
    return cfg;
}

TEST(Atomics, ContendedAddCountsEveryThread)
{
    Gpu gpu(testConfig());
    const Kernel k = assemble(R"(
        mov r1, param0
        mov r2, 1
        atom.add r3, [r1], r2
        exit
    )");
    const Addr counter = gpu.alloc(8);
    const std::uint64_t zero = 0;
    gpu.copyToDevice(counter, &zero, 8);
    gpu.launch(k, 16, 128, {counter});
    std::uint64_t v = 0;
    gpu.copyFromDevice(&v, counter, 8);
    EXPECT_EQ(v, 16u * 128u);
}

TEST(Atomics, AddReturnsUniqueOldValues)
{
    Gpu gpu(testConfig());
    // Every thread grabs a unique slot via atom.add and writes its
    // gid there: afterwards slots must be a permutation of gids.
    const Kernel k = assemble(R"(
        s2r r0, tid
        s2r r1, ctaid
        s2r r2, ntid
        imad r0, r1, r2, r0
        mov r3, param0           ; counter
        mov r4, 1
        atom.add r5, [r3], r4    ; my slot
        shl r6, r5, 3
        mov r7, param1
        iadd r7, r7, r6
        st.global [r7], r0
        exit
    )");
    const unsigned total = 8 * 64;
    const Addr counter = gpu.alloc(8);
    const Addr slots = gpu.alloc(total * 8);
    const std::uint64_t zero = 0;
    gpu.copyToDevice(counter, &zero, 8);
    gpu.launch(k, 8, 64, {counter, slots});

    std::vector<std::uint64_t> values(total);
    gpu.copyFromDevice(values.data(), slots, total * 8);
    std::sort(values.begin(), values.end());
    for (std::uint64_t i = 0; i < total; ++i)
        EXPECT_EQ(values[i], i);
}

TEST(Atomics, MaxKeepsLargest)
{
    Gpu gpu(testConfig());
    const Kernel k = assemble(R"(
        s2r r0, tid
        s2r r1, ctaid
        s2r r2, ntid
        imad r0, r1, r2, r0
        mov r1, param0
        atom.max r3, [r1], r0
        exit
    )");
    const Addr cell = gpu.alloc(8);
    const std::uint64_t zero = 0;
    gpu.copyToDevice(cell, &zero, 8);
    gpu.launch(k, 4, 96, {cell});
    std::uint64_t v = 0;
    gpu.copyFromDevice(&v, cell, 8);
    EXPECT_EQ(v, 4u * 96u - 1);
}

TEST(Atomics, ExchStoresSomeThreadsValue)
{
    Gpu gpu(testConfig());
    const Kernel k = assemble(R"(
        s2r r0, tid
        iadd r0, r0, 100
        mov r1, param0
        atom.exch r3, [r1], r0
        exit
    )");
    const Addr cell = gpu.alloc(8);
    const std::uint64_t zero = 0;
    gpu.copyToDevice(cell, &zero, 8);
    gpu.launch(k, 1, 32, {cell});
    std::uint64_t v = 0;
    gpu.copyFromDevice(&v, cell, 8);
    EXPECT_GE(v, 100u);
    EXPECT_LT(v, 132u);
}

TEST(Atomics, AtomicsBypassTheL1)
{
    Gpu gpu(testConfig());
    const Kernel k = assemble(R"(
        mov r1, param0
        mov r2, 1
        atom.add r3, [r1], r2
        exit
    )");
    const Addr counter = gpu.alloc(8);
    const std::uint64_t zero = 0;
    gpu.copyToDevice(counter, &zero, 8);
    gpu.launch(k, 1, 32, {counter});
    // Fermi L1 caches global loads, but atomics must not hit in it.
    EXPECT_EQ(gpu.sm(0).l1()->hits(), 0u);
}

TEST(Atomics, SerializedOldValuesAreMonotoneInLaneOrder)
{
    Gpu gpu(testConfig());
    // Within one warp, lanes RMW the same address in lane order.
    const Kernel k = assemble(R"(
        s2r r0, laneid
        mov r1, param0
        mov r2, 1
        atom.add r3, [r1], r2
        shl r4, r0, 3
        mov r5, param1
        iadd r5, r5, r4
        st.global [r5], r3
        exit
    )");
    const Addr counter = gpu.alloc(8);
    const Addr out = gpu.alloc(32 * 8);
    const std::uint64_t zero = 0;
    gpu.copyToDevice(counter, &zero, 8);
    gpu.launch(k, 1, 32, {counter, out});
    std::vector<std::uint64_t> olds(32);
    gpu.copyFromDevice(olds.data(), out, 32 * 8);
    for (unsigned lane = 0; lane < 32; ++lane)
        EXPECT_EQ(olds[lane], lane);
}

TEST(AtomicHistogramWorkload, MatchesReference)
{
    Gpu gpu(testConfig());
    AtomicHistogram::Options opts;
    opts.n = 4096;
    opts.bins = 64;
    AtomicHistogram workload(opts);
    EXPECT_TRUE(workload.run(gpu).correct);
}

TEST(AtomicHistogramWorkload, HotBinContentionStillCorrect)
{
    Gpu gpu(testConfig());
    AtomicHistogram::Options opts;
    opts.n = 4096;
    opts.bins = 2; // two hot lines, maximal serialization
    AtomicHistogram workload(opts);
    EXPECT_TRUE(workload.run(gpu).correct);
}

TEST(AtomicHistogramWorkload, FewerBinsIsSlower)
{
    AtomicHistogram::Options hot;
    hot.n = 4096;
    hot.bins = 2;
    AtomicHistogram hot_wl(hot);

    AtomicHistogram::Options spread = hot;
    spread.bins = 1024;
    AtomicHistogram spread_wl(spread);

    Gpu gpu_hot(testConfig());
    Gpu gpu_spread(testConfig());
    const auto r_hot = hot_wl.run(gpu_hot);
    const auto r_spread = spread_wl.run(gpu_spread);
    ASSERT_TRUE(r_hot.correct);
    ASSERT_TRUE(r_spread.correct);
    // Hot bins serialize at the L2 banks: more cycles.
    EXPECT_GT(gpu_hot.now(), gpu_spread.now());
}

TEST(Atomics, AssemblerRejectsBadAtomSuffix)
{
    EXPECT_THROW(assemble("atom.sub r1, [r2], r3\nexit\n"),
                 FatalError);
}

TEST(Atomics, DisassemblesWithSuffix)
{
    const Kernel k = assemble("atom.add r1, [r2+8], r3\nexit\n");
    EXPECT_EQ(disassemble(k.code[0]), "atom.add r1, [r2+8], r3");
}

} // namespace
} // namespace gpulat
