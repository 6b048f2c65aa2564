/**
 * @file
 * End-to-end GPU tests: kernels run to completion with correct
 * functional results and sane timing behaviour.
 */

#include <cstdlib>
#include <string>

#include <gtest/gtest.h>

#include "common/log.hh"
#include "gpu/gpu.hh"
#include "isa/assembler.hh"

namespace gpulat {
namespace {

/** Small config so tests are fast but still multi-SM/partition. */
GpuConfig
testConfig()
{
    GpuConfig cfg = makeGF106();
    cfg.numSms = 2;
    cfg.numPartitions = 2;
    cfg.deviceMemBytes = 16 * 1024 * 1024;
    return cfg;
}

TEST(Gpu, StoreConstantKernel)
{
    Gpu gpu(testConfig());
    const Kernel k = assemble(R"(
        s2r r0, tid
        s2r r1, ctaid
        s2r r2, ntid
        imad r0, r1, r2, r0
        shl r3, r0, 3
        mov r4, param0
        iadd r4, r4, r3
        mov r5, 12345
        st.global [r4], r5
        exit
    )");
    const std::uint64_t n = 256;
    const Addr buf = gpu.alloc(n * 8);
    gpu.launch(k, 2, 128, {buf});
    for (std::uint64_t i = 0; i < n; ++i) {
        std::uint64_t v = 0;
        gpu.copyFromDevice(&v, buf + i * 8, 8);
        EXPECT_EQ(v, 12345u) << "thread " << i;
    }
}

TEST(Gpu, SpecialRegistersAreCorrect)
{
    Gpu gpu(testConfig());
    // out[gid*4 .. +3] = {tid, ctaid, ntid, nctaid}
    const Kernel k = assemble(R"(
        s2r r0, tid
        s2r r1, ctaid
        s2r r2, ntid
        s2r r3, nctaid
        imad r4, r1, r2, r0
        shl r5, r4, 5         ; gid * 32 bytes
        mov r6, param0
        iadd r6, r6, r5
        st.global [r6], r0
        st.global [r6+8], r1
        st.global [r6+16], r2
        st.global [r6+24], r3
        exit
    )");
    const unsigned blocks = 3;
    const unsigned tpb = 64;
    const Addr buf = gpu.alloc(blocks * tpb * 32);
    gpu.launch(k, blocks, tpb, {buf});
    for (unsigned b = 0; b < blocks; ++b) {
        for (unsigned t = 0; t < tpb; ++t) {
            std::uint64_t vals[4];
            gpu.copyFromDevice(vals, buf + (b * tpb + t) * 32, 32);
            EXPECT_EQ(vals[0], t);
            EXPECT_EQ(vals[1], b);
            EXPECT_EQ(vals[2], tpb);
            EXPECT_EQ(vals[3], blocks);
        }
    }
}

TEST(Gpu, DivergentKernelComputesBothPaths)
{
    Gpu gpu(testConfig());
    // Even threads write 2*i, odd threads write 3*i.
    const Kernel k = assemble(R"(
        s2r r0, tid
        and r1, r0, 1
        setp.eq p0, r1, 0
        mov r2, param0
        shl r3, r0, 3
        iadd r2, r2, r3
        @p0 bra even_path
        imul r4, r0, 3
        bra join
        even_path:
        imul r4, r0, 2
        join:
        st.global [r2], r4
        exit
    )");
    const Addr buf = gpu.alloc(32 * 8);
    gpu.launch(k, 1, 32, {buf});
    for (std::uint64_t i = 0; i < 32; ++i) {
        std::uint64_t v = 0;
        gpu.copyFromDevice(&v, buf + i * 8, 8);
        EXPECT_EQ(v, i % 2 == 0 ? 2 * i : 3 * i) << "lane " << i;
    }
}

TEST(Gpu, DataDependentLoopTripCounts)
{
    Gpu gpu(testConfig());
    // Each thread loops tid times accumulating 1.
    const Kernel k = assemble(R"(
        s2r r0, tid
        mov r1, 0
        mov r2, 0
        loop:
        setp.ge p0, r2, r0
        @p0 bra out
        iadd r1, r1, 1
        iadd r2, r2, 1
        bra loop
        out:
        mov r3, param0
        shl r4, r0, 3
        iadd r3, r3, r4
        st.global [r3], r1
        exit
    )");
    const Addr buf = gpu.alloc(32 * 8);
    gpu.launch(k, 1, 32, {buf});
    for (std::uint64_t i = 0; i < 32; ++i) {
        std::uint64_t v = 0;
        gpu.copyFromDevice(&v, buf + i * 8, 8);
        EXPECT_EQ(v, i) << "lane " << i;
    }
}

TEST(Gpu, SharedMemoryBarrierExchange)
{
    Gpu gpu(testConfig());
    // Thread t writes t to shared, reads neighbor (t+1)%ntid.
    const Kernel k = assemble(R"(
        .shared 1024
        s2r r0, tid
        s2r r2, ntid
        shl r1, r0, 3
        st.shared [r1], r0
        bar
        iadd r3, r0, 1
        setp.ge p0, r3, r2
        @p0 mov r3, 0
        shl r4, r3, 3
        ld.shared r5, [r4]
        mov r6, param0
        iadd r6, r6, r1
        st.global [r6], r5
        exit
    )");
    const unsigned tpb = 128; // 4 warps: real barrier needed
    const Addr buf = gpu.alloc(tpb * 8);
    gpu.launch(k, 1, tpb, {buf});
    for (std::uint64_t i = 0; i < tpb; ++i) {
        std::uint64_t v = 0;
        gpu.copyFromDevice(&v, buf + i * 8, 8);
        EXPECT_EQ(v, (i + 1) % tpb) << "lane " << i;
    }
}

TEST(Gpu, LocalMemoryIsPerThread)
{
    GpuConfig cfg = testConfig();
    cfg.localBytesPerThread = 256;
    Gpu gpu(cfg);
    // Each thread stores tid*7 to local[8] and reads it back.
    const Kernel k = assemble(R"(
        s2r r0, tid
        s2r r1, ctaid
        s2r r2, ntid
        imad r0, r1, r2, r0
        imul r3, r0, 7
        mov r4, 8
        st.local [r4], r3
        ld.local r5, [r4]
        mov r6, param0
        shl r7, r0, 3
        iadd r6, r6, r7
        st.global [r6], r5
        exit
    )");
    const unsigned total = 128;
    const Addr buf = gpu.alloc(total * 8);
    gpu.launch(k, 2, 64, {buf});
    for (std::uint64_t i = 0; i < total; ++i) {
        std::uint64_t v = 0;
        gpu.copyFromDevice(&v, buf + i * 8, 8);
        EXPECT_EQ(v, i * 7) << "thread " << i;
    }
}

TEST(Gpu, LocalMemoryLaunchRunsAlone)
{
    // The local backing store is one per device: a local-memory
    // launch on a subset of SMs runs and verifies, but no launch
    // may begin beside it, and it may not begin beside another.
    GpuConfig cfg = testConfig();
    cfg.localBytesPerThread = 256;
    Gpu gpu(cfg);
    const Kernel local = assemble(R"(
        s2r r0, tid
        imul r3, r0, 7
        mov r4, 8
        st.local [r4], r3
        ld.local r5, [r4]
        mov r6, param0
        shl r7, r0, 3
        iadd r6, r6, r7
        st.global [r6], r5
        exit
    )");
    const Kernel plain = assemble(R"(
        s2r r0, tid
        shl r1, r0, 3
        mov r2, param0
        iadd r2, r2, r1
        mov r3, 99
        st.global [r2], r3
        exit
    )");
    const unsigned threads = 64;
    const Addr local_out = gpu.alloc(threads * 8);
    const Addr plain_out = gpu.alloc(threads * 8);
    auto run_alone = [&gpu](Gpu::LaunchId id) {
        gpu.run([&gpu, id] { return gpu.launchDone(id); }, "test");
        gpu.retireLaunch(id);
    };

    const Gpu::LaunchId local_id =
        gpu.beginLaunch(local, 1, threads, {local_out}, {0});
    EXPECT_THROW(gpu.beginLaunch(plain, 1, threads, {plain_out}, {1}),
                 FatalError);
    run_alone(local_id);
    for (std::uint64_t i = 0; i < threads; ++i) {
        std::uint64_t v = 0;
        gpu.copyFromDevice(&v, local_out + i * 8, 8);
        EXPECT_EQ(v, i * 7) << "thread " << i;
    }

    const Gpu::LaunchId plain_id =
        gpu.beginLaunch(plain, 1, threads, {plain_out}, {1});
    EXPECT_THROW(gpu.beginLaunch(local, 1, threads, {local_out}, {0}),
                 FatalError);
    run_alone(plain_id);
    for (std::uint64_t i = 0; i < threads; ++i) {
        std::uint64_t v = 0;
        gpu.copyFromDevice(&v, plain_out + i * 8, 8);
        EXPECT_EQ(v, 99u) << "thread " << i;
    }
}

TEST(Gpu, FloatingPointOps)
{
    Gpu gpu(testConfig());
    const Kernel k = assemble(R"(
        mov r1, param0
        ld.global r2, [r1]      ; a
        ld.global r3, [r1+8]    ; b
        fadd r4, r2, r3
        fmul r5, r2, r3
        ffma r6, r2, r3, r4
        st.global [r1+16], r4
        st.global [r1+24], r5
        st.global [r1+32], r6
        exit
    )");
    const Addr buf = gpu.alloc(64);
    const double a = 1.5;
    const double b = -2.25;
    gpu.copyToDevice(buf, &a, 8);
    gpu.copyToDevice(buf + 8, &b, 8);
    gpu.launch(k, 1, 1, {buf});
    double add = 0;
    double mul = 0;
    double fma = 0;
    gpu.copyFromDevice(&add, buf + 16, 8);
    gpu.copyFromDevice(&mul, buf + 24, 8);
    gpu.copyFromDevice(&fma, buf + 32, 8);
    EXPECT_DOUBLE_EQ(add, a + b);
    EXPECT_DOUBLE_EQ(mul, a * b);
    EXPECT_DOUBLE_EQ(fma, a * b + (a + b));
}

TEST(Gpu, ClockAdvancesMonotonically)
{
    Gpu gpu(testConfig());
    const Kernel k = assemble(R"(
        clock r1
        mov r2, param0
        ld.global r3, [r2]
        clock r4, r3
        isub r5, r4, r1
        st.global [r2+8], r5
        exit
    )");
    const Addr buf = gpu.alloc(16);
    gpu.launch(k, 1, 1, {buf});
    std::uint64_t delta = 0;
    gpu.copyFromDevice(&delta, buf + 8, 8);
    // A dependent load must take at least the L1 path latency.
    EXPECT_GT(delta, 10u);
    EXPECT_LT(delta, 10000u);
}

TEST(Gpu, MoreBlocksThanSmSlotsDrainInWaves)
{
    Gpu gpu(testConfig());
    const Kernel k = assemble(R"(
        s2r r0, ctaid
        shl r1, r0, 3
        mov r2, param0
        iadd r2, r2, r1
        mov r3, 1
        st.global [r2], r3
        exit
    )");
    const unsigned blocks = 64; // >> resident capacity
    const Addr buf = gpu.alloc(blocks * 8);
    gpu.launch(k, blocks, 32, {buf});
    for (unsigned b = 0; b < blocks; ++b) {
        std::uint64_t v = 0;
        gpu.copyFromDevice(&v, buf + b * 8, 8);
        EXPECT_EQ(v, 1u) << "block " << b;
    }
}

TEST(Gpu, BackToBackLaunchesShareState)
{
    Gpu gpu(testConfig());
    const Kernel incr = assemble(R"(
        mov r1, param0
        ld.global r2, [r1]
        iadd r2, r2, 1
        st.global [r1], r2
        exit
    )");
    const Addr buf = gpu.alloc(8);
    for (int i = 0; i < 5; ++i)
        gpu.launch(incr, 1, 1, {buf});
    std::uint64_t v = 0;
    gpu.copyFromDevice(&v, buf, 8);
    EXPECT_EQ(v, 5u);
}

// ------------------------------------------------ stall watchdog

/**
 * A config whose L2 MSHR can merge more same-line misses than the
 * return queue can ever fan out to at once: the DRAM fill needs
 * `peekCount` free return slots in a single cycle, so 4 merged
 * loads against a 2-deep return queue would wedge the partition
 * forever.
 */
GpuConfig
deadlockConfig()
{
    GpuConfig cfg = makeGF106();
    cfg.numSms = 1;
    cfg.numPartitions = 1;
    cfg.deviceMemBytes = 16 * 1024 * 1024;
    cfg.sm.l1Enabled = false; // every warp's load reaches the L2
    cfg.partition.returnQueueSize = 2;
    cfg.partition.l2MshrEntries = 8;
    cfg.partition.l2MshrMaxMerge = 8;
    return cfg;
}

TEST(Gpu, FanOutWedgeIsANamedError)
{
    try {
        Gpu gpu(deadlockConfig());
        FAIL() << "the fan-out wedge was accepted";
    } catch (const FatalError &e) {
        const std::string what = e.what();
        EXPECT_NE(what.find("partition.l2MshrMaxMerge=8"),
                  std::string::npos)
            << what;
        EXPECT_NE(what.find("partition.returnQueueSize=2"),
                  std::string::npos)
            << what;
    }
}

/** All 4 warps load the same line (1 primary + 3 merged misses)
 *  and *consume* the value, so they stay resident, stalled on the
 *  register dependency, while the fill is outstanding. */
Kernel
sameLineLoadKernel()
{
    return assemble(R"(
        mov r1, param0
        ld.global r2, [r1]
        iadd r3, r2, 1
        exit
    )");
}

/** Due every core cycle, and never does anything. */
class StuckComponent : public Clocked
{
  public:
    void tick(Cycle) override {}
    Cycle nextEventAt(Cycle now) const override { return now; }
};

/**
 * The watchdog's report on a genuine hang: a component due every
 * cycle keeps the engine stepping one cycle at a time while every
 * load waits a million cycles in DRAM, and the run's done() never
 * holds — so the activity signature freezes while the step count
 * grows. Empty if nothing panicked.
 */
std::string
hangReport(IdleFastForward mode)
{
    GpuConfig cfg = makeGF106();
    cfg.numSms = 1;
    cfg.numPartitions = 1;
    cfg.deviceMemBytes = 16 * 1024 * 1024;
    cfg.idleFastForward = mode;
    cfg.partition.dram.timing.tExtra = 1000000;
    cfg.engine.watchdogStallSteps = 20000; // fast tests
    StuckComponent stuck;
    Gpu gpu(std::move(cfg));
    gpu.engine().add(*gpu.engine().findDomain("core"), stuck);
    const Kernel k = sameLineLoadKernel();
    const Addr buf = gpu.alloc(256);
    gpu.beginLaunch(k, 1, 128, {buf}, {0});
    try {
        gpu.run([] { return false; }, "hang");
    } catch (const PanicError &e) {
        return e.what();
    }
    return "";
}

/** First integer following @p key in @p text (-1 if absent). */
long long
numberAfter(const std::string &text, const std::string &key)
{
    const auto pos = text.find(key);
    if (pos == std::string::npos)
        return -1;
    return std::atoll(text.c_str() + pos + key.size());
}

TEST(Gpu, WatchdogPanicReportIsSettled)
{
    // Under perDomain fast-forward the SM sleeps through the whole
    // DRAM wait with an *open* lazy idle-accounting window; the
    // stall report must settle() before reading statistics, or it
    // shows the idle total from the moment the SM fell asleep
    // (a few hundred cycles) instead of the stall-time truth
    // (roughly the full simulated timeline).
    const std::string report = hangReport(IdleFastForward::PerDomain);
    ASSERT_FALSE(report.empty()) << "the hang must panic";

    EXPECT_NE(report.find("no forward progress"), std::string::npos)
        << report;
    EXPECT_NE(report.find("[not drained]"), std::string::npos)
        << report;

    const long long now = numberAfter(report, "now=");
    const long long idle = numberAfter(report, "idle=");
    ASSERT_GT(now, 20000) << report;
    // Settled: the SM's idle cycles track the stalled timeline, not
    // the moment its accounting window was last closed.
    EXPECT_GT(idle, now / 2) << report;
}

TEST(Gpu, WatchdogStillCatchesRealHangInOffMode)
{
    // No fast-forward, no promises: the naive reference must still
    // detect the hang (steps and cycles coincide in Off mode).
    EXPECT_NE(hangReport(IdleFastForward::Off).find(
                  "no forward progress"),
              std::string::npos);
}

TEST(Gpu, WatchdogCountsStepsNotCycles)
{
    // The no-progress window is measured in performed engine steps
    // (TickEngine::steps()), never core cycles: with a per-access
    // DRAM latency far above the whole stall threshold, every wait
    // is one fast-forward jump, so a healthy latency-bound run
    // whose *cycle* count dwarfs the threshold must complete
    // without tripping the watchdog.
    GpuConfig cfg = makeGF106();
    cfg.numSms = 1;
    cfg.numPartitions = 1;
    cfg.deviceMemBytes = 16 * 1024 * 1024;
    cfg.idleFastForward = IdleFastForward::PerDomain;
    cfg.engine.watchdogStallSteps = 20000;
    cfg.partition.dram.timing.tExtra = 60000; // >> stall threshold
    Gpu gpu(std::move(cfg));

    // A dependent-load chain: every access is a fresh >60k-cycle
    // idle window with zero signature change inside it.
    const Kernel chase = assemble(R"(
        mov r1, param0
        ld.global r2, [r1]
        ld.global r3, [r2]
        ld.global r4, [r3]
        st.global [r1+8], r4
        exit
    )");
    const Addr buf = gpu.alloc(4096);
    // Pointer chain across distinct lines, so every dependent load
    // is a fresh DRAM access (no cache reuse shortcuts the waits).
    for (std::uint64_t i = 0; i < 3; ++i) {
        const std::uint64_t next = buf + (i + 1) * 512;
        gpu.copyToDevice(buf + i * 512, &next, 8);
    }

    const LaunchResult result = gpu.launch(chase, 1, 1, {buf});
    // The run legitimately spans many multiples of the stall
    // threshold in *cycles*; in *steps* it stays far below it.
    EXPECT_GT(result.cycles, 3u * 20000u);
    EXPECT_LT(gpu.engine().steps(), 20000u);
}

TEST(Gpu, RejectsOversizedBlock)
{
    Gpu gpu(testConfig());
    const Kernel k = assemble("exit\n");
    EXPECT_THROW(gpu.launch(k, 1, 1 << 20, {}), FatalError);
}

TEST(Gpu, RejectsEmptyGrid)
{
    Gpu gpu(testConfig());
    const Kernel k = assemble("exit\n");
    EXPECT_THROW(gpu.launch(k, 0, 32, {}), FatalError);
}

TEST(Gpu, PartialWarpAndPartialBlock)
{
    Gpu gpu(testConfig());
    const Kernel k = assemble(R"(
        s2r r0, tid
        s2r r1, ctaid
        s2r r2, ntid
        imad r0, r1, r2, r0
        mov r3, param1
        setp.ge p0, r0, r3
        @p0 bra done
        mov r4, param0
        shl r5, r0, 3
        iadd r4, r4, r5
        mov r6, 7
        st.global [r4], r6
        done:
        exit
    )");
    const std::uint64_t n = 50; // 1 block of 50 threads: 2 warps
    const Addr buf = gpu.alloc(64 * 8);
    gpu.launch(k, 1, 50, {buf, n});
    for (std::uint64_t i = 0; i < n; ++i) {
        std::uint64_t v = 0;
        gpu.copyFromDevice(&v, buf + i * 8, 8);
        EXPECT_EQ(v, 7u) << i;
    }
}

TEST(Gpu, DeterministicAcrossRuns)
{
    auto run = [] {
        Gpu gpu(testConfig());
        const Kernel k = assemble(R"(
            s2r r0, tid
            s2r r1, ctaid
            s2r r2, ntid
            imad r0, r1, r2, r0
            shl r3, r0, 3
            mov r4, param0
            iadd r4, r4, r3
            ld.global r5, [r4]
            iadd r5, r5, 1
            st.global [r4], r5
            exit
        )");
        const Addr buf = gpu.alloc(1024 * 8);
        const LaunchResult lr = gpu.launch(k, 8, 128, {buf});
        return lr.cycles;
    };
    EXPECT_EQ(run(), run());
}

} // namespace
} // namespace gpulat
