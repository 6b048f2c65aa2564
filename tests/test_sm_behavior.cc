/**
 * @file
 * SM microarchitecture behaviour tests: scheduler policies, MSHR
 * merging, occupancy limits, shared-memory bank conflicts and
 * exposure accounting, all observed through end-to-end runs.
 */

#include <string>
#include <vector>

#include <gtest/gtest.h>

#include "gpu/gpu.hh"
#include "isa/assembler.hh"
#include "latency/exposure.hh"

namespace gpulat {
namespace {

GpuConfig
testConfig()
{
    GpuConfig cfg = makeGF106();
    cfg.numSms = 1;
    cfg.numPartitions = 1;
    cfg.deviceMemBytes = 16 * 1024 * 1024;
    return cfg;
}

const char *kStridedSum = R"(
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
)";

TEST(SmBehavior, BothSchedulerPoliciesProduceCorrectResults)
{
    for (auto policy : {SchedPolicy::LRR, SchedPolicy::GTO}) {
        GpuConfig cfg = testConfig();
        cfg.sm.schedPolicy = policy;
        Gpu gpu(cfg);
        const Kernel k = assemble(kStridedSum);
        const Addr buf = gpu.alloc(512 * 8);
        gpu.launch(k, 4, 128, {buf});
        for (std::uint64_t i = 0; i < 512; ++i) {
            std::uint64_t v = 0;
            gpu.copyFromDevice(&v, buf + i * 8, 8);
            EXPECT_EQ(v, 1u) << spell(kSchedPolicySpellings, policy)
                             << " thread " << i;
        }
    }
}

TEST(SmBehavior, PolicyChoiceChangesTimingDeterministically)
{
    auto cycles_with = [](SchedPolicy policy) {
        GpuConfig cfg = testConfig();
        cfg.sm.schedPolicy = policy;
        Gpu gpu(cfg);
        const Kernel k = assemble(kStridedSum);
        const Addr buf = gpu.alloc(4096 * 8);
        return gpu.launch(k, 16, 256, {buf}).cycles;
    };
    // Each policy is self-deterministic.
    EXPECT_EQ(cycles_with(SchedPolicy::LRR),
              cycles_with(SchedPolicy::LRR));
    EXPECT_EQ(cycles_with(SchedPolicy::GTO),
              cycles_with(SchedPolicy::GTO));
}

TEST(SmBehavior, SameLineLoadsMergeInMshr)
{
    Gpu gpu(testConfig());
    // Every thread in every warp loads the same address.
    const Kernel k = assemble(R"(
        mov r1, param0
        ld.global r2, [r1]
        st.global [r1+128], r2
        exit
    )");
    const Addr buf = gpu.alloc(4096, 128);
    gpu.launch(k, 1, 256, {buf});
    // 8 warps x 1 transaction, same line: at most the first goes to
    // DRAM; the L1 MSHR merges in-flight duplicates and later warps
    // hit the filled line.
    EXPECT_EQ(gpu.stats().counterValue("part0.dram_reads"), 1u);
}

TEST(SmBehavior, RegisterPressureLimitsResidency)
{
    // A kernel claiming all SM registers forces blocks to run one
    // at a time; with few registers they overlap and finish faster.
    auto cycles_with_regs = [](int regs) {
        GpuConfig cfg = testConfig();
        cfg.sm.regsPerSm = 16 * 1024;
        Gpu gpu(cfg);
        Kernel k = assemble(kStridedSum);
        k.numRegs = regs;
        const Addr buf = gpu.alloc(4096 * 8);
        return gpu.launch(k, 8, 512, {buf}).cycles;
    };
    // 512 threads * 32 regs = 16K: exactly one block resident.
    const Cycle serialized = cycles_with_regs(32);
    // 512 threads * 8 regs = 4K: four blocks resident.
    const Cycle overlapped = cycles_with_regs(8);
    EXPECT_GT(serialized, overlapped);
}

TEST(SmBehavior, SharedMemoryLimitsResidency)
{
    auto cycles_with_smem = [](std::uint32_t bytes) {
        GpuConfig cfg = testConfig();
        Gpu gpu(cfg);
        Kernel k = assemble(kStridedSum);
        k.sharedBytes = bytes;
        const Addr buf = gpu.alloc(4096 * 8);
        return gpu.launch(k, 8, 128, {buf}).cycles;
    };
    const Cycle serialized = cycles_with_smem(48 * 1024);
    const Cycle overlapped = cycles_with_smem(1024);
    EXPECT_GT(serialized, overlapped);
}

TEST(SmBehavior, OversizedSharedMemoryIsFatal)
{
    Gpu gpu(testConfig());
    Kernel k = assemble("exit\n");
    k.sharedBytes = 1024 * 1024;
    EXPECT_THROW(gpu.launch(k, 1, 32, {}), FatalError);
}

TEST(SmBehavior, UnderdeclaredRegisterCountIsFatal)
{
    Gpu gpu(testConfig());
    Kernel k = assemble("mov r7, 1\nexit\n");
    k.numRegs = 4; // code uses r7
    EXPECT_THROW(gpu.launch(k, 1, 32, {}), FatalError);
}

TEST(SmBehavior, BankConflictsSlowSharedLoads)
{
    // Conflict-free: word index = tid. 32-way conflict: tid * 32.
    auto cycles_for = [](const char *index_expr) {
        GpuConfig cfg = testConfig();
        Gpu gpu(cfg);
        std::string src = R"(
            .shared 16384
            s2r r0, tid
        )";
        src += index_expr;
        src += R"(
            shl r2, r1, 3
            st.shared [r2], r0
            ld.shared r3, [r2]
            ld.shared r4, [r2]
            ld.shared r5, [r2]
            mov r6, param0
            shl r7, r0, 3
            iadd r6, r6, r7
            st.global [r6], r3
            exit
        )";
        const Kernel k = assemble(src);
        const Addr buf = gpu.alloc(64 * 8);
        return gpu.launch(k, 1, 32, {buf}).cycles;
    };
    const Cycle clean = cycles_for("mov r1, r0\n");
    const Cycle conflicted = cycles_for("shl r1, r0, 5\n");
    EXPECT_GT(conflicted, clean);
}

TEST(SmBehavior, SingleWarpDependentLoadsAreFullyExposed)
{
    GpuConfig cfg = testConfig();
    cfg.sm.warpSlots = 1;
    Gpu gpu(cfg);
    // One warp, one lane, dependent chain: nothing can hide it.
    const Kernel k = assemble(R"(
        mov r1, param0
        ld.global r1, [r1]
        ld.global r1, [r1]
        ld.global r1, [r1]
        ld.global r1, [r1]
        st.global [r1], r1
        exit
    )");
    const Addr buf = gpu.alloc(1024, 128);
    // Self-loop chain: *buf = buf.
    const std::uint64_t self = buf;
    gpu.copyToDevice(buf, &self, 8);
    gpu.launch(k, 1, 1, {buf});
    const auto eb = computeExposure(gpu.exposure().records(), 4);
    EXPECT_GT(eb.overallExposedPct(), 95.0);
}

TEST(SmBehavior, L1HitRateReflectsReuse)
{
    Gpu gpu(testConfig());
    // Two passes over a small array: second pass hits.
    const Kernel k = assemble(R"(
        s2r r0, tid
        shl r1, r0, 3
        mov r2, param0
        iadd r2, r2, r1
        ld.global r3, [r2]
        ld.global r4, [r2]
        iadd r5, r3, r4
        st.global [r2], r5
        exit
    )");
    const Addr buf = gpu.alloc(32 * 8, 128);
    gpu.launch(k, 1, 32, {buf});
    EXPECT_GT(gpu.sm(0).l1()->hits(), 0u);
}

TEST(SmBehavior, StoresCreateDownstreamTrafficButNoTraces)
{
    Gpu gpu(testConfig());
    const Kernel k = assemble(R"(
        s2r r0, tid
        shl r1, r0, 3
        mov r2, param0
        iadd r2, r2, r1
        mov r3, 7
        st.global [r2], r3
        exit
    )");
    const Addr buf = gpu.alloc(32 * 8, 128);
    gpu.launch(k, 1, 32, {buf});
    // No loads -> no latency traces...
    EXPECT_EQ(gpu.latencies().count(), 0u);
    // ...but the writes did reach DRAM (write-through L1, miss L2):
    // 32 threads x 8 B = 256 B = two 128 B lines.
    EXPECT_EQ(gpu.stats().counterValue("part0.dram_writes"), 2u);
}

TEST(SmBehavior, IdleCyclesAreAttributedToMemory)
{
    GpuConfig cfg = testConfig();
    cfg.sm.warpSlots = 1;
    Gpu gpu(cfg);
    const Kernel k = assemble(R"(
        mov r1, param0
        ld.global r1, [r1]
        ld.global r1, [r1]
        ld.global r1, [r1]
        st.global [r1], r1
        exit
    )");
    const Addr buf = gpu.alloc(1024, 128);
    const std::uint64_t self = buf;
    gpu.copyToDevice(buf, &self, 8);
    gpu.launch(k, 1, 1, {buf});
    const auto mem = gpu.stats().counterValue("sm0.idle_on_memory");
    const auto alu = gpu.stats().counterValue("sm0.idle_on_alu");
    EXPECT_GT(mem, 100u);
    EXPECT_GT(mem, alu * 10);
}

TEST(SmBehavior, IdleCyclesAreAttributedToBarriers)
{
    Gpu gpu(testConfig());
    // Warp 0 spins; the others wait at the barrier meanwhile.
    const Kernel k = assemble(R"(
        s2r r0, warpid
        imul r1, r0, 0
        setp.ne p0, r0, 0
        @p0 bra wait
        mov r2, 0
        spin:
        setp.ge p1, r2, 50
        @p1 bra wait
        iadd r2, r2, 1
        bra spin
        wait:
        bar
        exit
    )");
    gpu.launch(k, 1, 128, {});
    EXPECT_GT(gpu.stats().counterValue("sm0.idle_on_barrier"), 0u);
}

TEST(SmBehavior, MultipleSchedulersIssueInParallel)
{
    auto cycles_with_scheds = [](unsigned n) {
        GpuConfig cfg = testConfig();
        cfg.sm.numSchedulers = n;
        Gpu gpu(cfg);
        // Pure ALU kernel: issue-limited.
        const Kernel k = assemble(R"(
            s2r r0, tid
            mov r1, 0
            mov r2, 0
            loop:
            setp.ge p0, r2, 200
            @p0 bra done
            iadd r1, r1, 3
            iadd r2, r2, 1
            bra loop
            done:
            mov r3, param0
            shl r4, r0, 3
            iadd r3, r3, r4
            st.global [r3], r1
            exit
        )");
        const Addr buf = gpu.alloc(1024 * 8);
        return gpu.launch(k, 4, 256, {buf}).cycles;
    };
    EXPECT_LT(cycles_with_scheds(4), cycles_with_scheds(1));
}

// ---------------------------------------------------------------
// Late completions. EXIT waits on no register, so a warp can retire
// with a writeback, load or atomic still in flight, and with one
// resident block the next block's warp takes the same slot before
// it lands. The completion belongs to the retired warp only.

GpuConfig
oneBlockAtATime()
{
    GpuConfig cfg = testConfig();
    cfg.sm.maxBlocksPerSm = 1;
    return cfg;
}

TEST(SmBehavior, LateWritebackDoesNotClearTheNextWarpsScoreboard)
{
    GpuConfig cfg = oneBlockAtATime();
    cfg.sm.fpLatency = 200;
    Gpu gpu(cfg);
    // Each block times fmul -> dependent fadd with clock, then
    // exits with a dead fmul to the same register in flight.
    const Kernel k = assemble(R"(
        mov r1, 3
        s2r r0, ctaid
        shl r6, r0, 3
        mov r8, param0
        iadd r8, r8, r6
        clock r3
        fmul r2, r1, r1
        fadd r7, r2, r2
        clock r4
        isub r5, r4, r3
        st.global [r8], r5
        fmul r2, r1, r1
        exit
    )");
    const unsigned blocks = 8;
    const Addr buf = gpu.alloc(blocks * 8);
    gpu.launch(k, blocks, 32, {buf});
    std::vector<std::uint64_t> measured(blocks);
    gpu.copyFromDevice(measured.data(), buf, blocks * 8);
    // fmul issues one cycle after the first clock and fadd waits
    // out its 200 cycles, in every block.
    for (unsigned b = 0; b < blocks; ++b)
        EXPECT_EQ(measured[b], 202u) << "block " << b;
}

TEST(SmBehavior, LateAtomicResultIsNotWrittenIntoTheNextWarp)
{
    Gpu gpu(oneBlockAtATime());
    // Each block sets r9, delays, stores r9, then exits with an
    // atomic returning into r9 still in flight.
    std::string src = R"(
        s2r r0, ctaid
        s2r r1, tid
        mov r9, 7
        mov r2, 0
    )";
    for (int i = 0; i < 80; ++i)
        src += "iadd r2, r2, 1\n";
    src += R"(
        shl r3, r0, 5
        iadd r3, r3, r1
        shl r3, r3, 3
        mov r4, param0
        iadd r4, r4, r3
        st.global [r4], r9
        mov r5, param1
        mov r6, 1
        atom.add r9, [r5], r6
        exit
    )";
    const unsigned blocks = 16;
    const unsigned threads = blocks * kWarpSize;
    const Addr out = gpu.alloc(threads * 8);
    const Addr counter = gpu.alloc(8);
    const std::uint64_t zero = 0;
    gpu.copyToDevice(counter, &zero, 8);
    gpu.launch(assemble(src), blocks, kWarpSize, {out, counter});
    std::vector<std::uint64_t> stored(threads);
    gpu.copyFromDevice(stored.data(), out, threads * 8);
    unsigned wrong = 0;
    for (const std::uint64_t v : stored)
        wrong += v != 7;
    EXPECT_EQ(wrong, 0u) << "threads that stored another warp's "
                            "atomic result";
    std::uint64_t count = 0;
    gpu.copyFromDevice(&count, counter, 8);
    EXPECT_EQ(count, threads);
}

} // namespace
} // namespace gpulat
