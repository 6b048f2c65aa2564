/**
 * @file
 * Unit + property tests for the SIMT building blocks: warp stack,
 * coalescer, bank conflicts, warp schedulers, and the events that
 * make a stalled warp of a standalone SmCore issuable again.
 */

#include <gtest/gtest.h>

#include <algorithm>
#include <vector>

#include "common/random.hh"
#include "common/stats.hh"
#include "icnt/crossbar.hh"
#include "isa/kernel.hh"
#include "mem/device_memory.hh"
#include "simt/coalescer.hh"
#include "simt/core.hh"
#include "simt/scheduler.hh"
#include "simt/warp.hh"

namespace gpulat {
namespace {

Warp
freshWarp(LaneMask live = kFullMask)
{
    Warp w;
    w.init(0, 0, 0, live, 16, 0);
    return w;
}

TEST(Warp, InitialStateIsFullStack)
{
    Warp w = freshWarp();
    EXPECT_EQ(w.pc(), 0u);
    EXPECT_EQ(w.activeMask(), kFullMask);
    EXPECT_EQ(w.stackDepth(), 1u);
    EXPECT_EQ(w.state(), WarpState::Ready);
}

TEST(Warp, DivergeExecutesTakenThenFallThenReconverges)
{
    Warp w = freshWarp();
    // branch at pc 0: taken lanes 0..15 -> pc 10, fall -> 1,
    // reconverge at 20.
    const LaneMask taken = 0x0000ffff;
    const LaneMask fall = 0xffff0000;
    w.diverge(10, 20, taken, fall);

    EXPECT_EQ(w.pc(), 10u);
    EXPECT_EQ(w.activeMask(), taken);
    // Taken path runs to the reconvergence point.
    w.jump(20);
    EXPECT_EQ(w.pc(), 1u);
    EXPECT_EQ(w.activeMask(), fall);
    w.jump(20);
    EXPECT_EQ(w.pc(), 20u);
    EXPECT_EQ(w.activeMask(), kFullMask);
    EXPECT_EQ(w.stackDepth(), 1u);
}

TEST(Warp, DivergeWhereTakenTargetIsReconv)
{
    // if-then with no else: taken lanes jump straight to the join.
    Warp w = freshWarp();
    w.diverge(5, 5, 0x0000ffff, 0xffff0000);
    // Only the fall-through entry is pushed.
    EXPECT_EQ(w.pc(), 1u);
    EXPECT_EQ(w.activeMask(), 0xffff0000u);
    w.jump(5);
    EXPECT_EQ(w.pc(), 5u);
    EXPECT_EQ(w.activeMask(), kFullMask);
}

TEST(Warp, ExitLanesRemovesFromAllEntries)
{
    Warp w = freshWarp();
    w.diverge(10, 20, 0x0000ffff, 0xffff0000);
    EXPECT_FALSE(w.exitLanes(0x000000ff)); // part of taken path
    EXPECT_EQ(w.activeMask(), 0x0000ff00u);
    w.jump(20); // taken path done
    w.jump(20); // fall path done
    EXPECT_EQ(w.activeMask(), 0xffffff00u);
}

TEST(Warp, FullExitFinishesWarp)
{
    Warp w = freshWarp();
    EXPECT_TRUE(w.exitLanes(kFullMask));
    EXPECT_EQ(w.state(), WarpState::Done);
}

TEST(Warp, PartialLastWarpMask)
{
    Warp w = freshWarp(0x7); // 3 threads
    EXPECT_EQ(w.activeMask(), 0x7u);
    EXPECT_FALSE(w.exitLanes(0x3));
    EXPECT_TRUE(w.exitLanes(0x4));
}

TEST(Warp, GuardMaskHonorsPredicateAndNegation)
{
    Warp w = freshWarp();
    w.setPredBit(0, 2, true);
    w.setPredBit(5, 2, true);
    EXPECT_EQ(w.guardMask(kFullMask, 2, false), (1u << 0) | (1u << 5));
    EXPECT_EQ(w.guardMask(kFullMask, 2, true),
              ~((1u << 0) | (1u << 5)));
    EXPECT_EQ(w.guardMask(kFullMask, kNoReg, false), kFullMask);
}

TEST(Warp, ScoreboardTracksRegsAndPreds)
{
    Warp w = freshWarp();
    w.markRegPending(7);
    w.markRegPending(9, true);
    w.markPredPending(1);
    EXPECT_EQ(w.pendingRegMask(), (1ull << 7) | (1ull << 9));
    EXPECT_EQ(w.pendingMemRegMask(), 1ull << 9);
    EXPECT_EQ(w.pendingPredMask(), 1u << 1);
    w.clearRegPending(7);
    w.clearRegPending(9);
    w.clearPredPending(1);
    EXPECT_EQ(w.pendingRegMask(), 0u);
    EXPECT_EQ(w.pendingMemRegMask(), 0u);
    EXPECT_EQ(w.pendingPredMask(), 0u);
}

TEST(Warp, RegisterFileIsPerLane)
{
    Warp w = freshWarp();
    w.setReg(3, 5, 42);
    w.setReg(4, 5, 43);
    EXPECT_EQ(w.reg(3, 5), 42u);
    EXPECT_EQ(w.reg(4, 5), 43u);
}

/** Property: nested random divergence always reconverges. */
TEST(WarpProperty, RandomNestedDivergenceReconverges)
{
    Rng rng(11);
    for (int trial = 0; trial < 200; ++trial) {
        Warp w = freshWarp();
        // Random if-then-else at three nesting levels.
        const LaneMask m1 =
            static_cast<LaneMask>(rng.next()) | 1; // nonempty
        if (m1 != kFullMask) {
            w.diverge(10, 30, m1, ~m1);
            const LaneMask active = w.activeMask();
            const LaneMask m2 =
                active & static_cast<LaneMask>(rng.next());
            if (m2 != 0 && m2 != active)
                w.diverge(15, 25, m2, active & ~m2);
            // Drive every path to its reconvergence point.
            int guard = 0;
            while (w.stackDepth() > 1 && ++guard < 100) {
                const std::uint32_t pc = w.pc();
                w.jump(pc == 15 || pc == 11 ? 25
                       : pc == 25           ? 30
                                            : 30);
            }
            EXPECT_EQ(w.activeMask(), kFullMask) << "trial " << trial;
        }
    }
}

TEST(Coalescer, FullyCoalescedWarpIsOneTransaction)
{
    std::array<Addr, kWarpSize> addrs{};
    for (unsigned lane = 0; lane < kWarpSize; ++lane)
        addrs[lane] = 0x1000 + lane * 4;
    const auto txns = coalesce(addrs, kFullMask, 128);
    ASSERT_EQ(txns.size(), 1u);
    EXPECT_EQ(txns[0].lineAddr, 0x1000u);
    EXPECT_EQ(txns[0].lanes, kFullMask);
}

TEST(Coalescer, EightByteAccessesSpanTwoLines)
{
    std::array<Addr, kWarpSize> addrs{};
    for (unsigned lane = 0; lane < kWarpSize; ++lane)
        addrs[lane] = lane * 8;
    const auto txns = coalesce(addrs, kFullMask, 128);
    ASSERT_EQ(txns.size(), 2u);
    EXPECT_EQ(txns[0].lineAddr, 0u);
    EXPECT_EQ(txns[1].lineAddr, 128u);
}

TEST(Coalescer, FullyScatteredWarpIs32Transactions)
{
    std::array<Addr, kWarpSize> addrs{};
    for (unsigned lane = 0; lane < kWarpSize; ++lane)
        addrs[lane] = lane * 4096;
    EXPECT_EQ(coalesce(addrs, kFullMask, 128).size(), kWarpSize);
}

TEST(Coalescer, InactiveLanesAreIgnored)
{
    std::array<Addr, kWarpSize> addrs{};
    addrs[0] = 0;
    addrs[7] = 4096;
    const auto txns = coalesce(addrs, (1u << 0) | (1u << 7), 128);
    ASSERT_EQ(txns.size(), 2u);
    EXPECT_EQ(txns[0].lanes, 1u);
    EXPECT_EQ(txns[1].lanes, 1u << 7);
}

TEST(Coalescer, BroadcastIsOneTransaction)
{
    std::array<Addr, kWarpSize> addrs{};
    addrs.fill(0x2000);
    EXPECT_EQ(coalesce(addrs, kFullMask, 128).size(), 1u);
}

/** Property: transactions partition the active lanes exactly. */
TEST(CoalescerProperty, TransactionsPartitionActiveLanes)
{
    Rng rng(13);
    for (int trial = 0; trial < 500; ++trial) {
        std::array<Addr, kWarpSize> addrs{};
        for (auto &a : addrs)
            a = rng.below(1 << 16) * 8;
        const auto active = static_cast<LaneMask>(rng.next());
        const auto txns = coalesce(addrs, active, 128);
        LaneMask seen = 0;
        for (const auto &t : txns) {
            EXPECT_EQ(seen & t.lanes, 0u); // disjoint
            seen |= t.lanes;
            for (unsigned lane = 0; lane < kWarpSize; ++lane) {
                if (t.lanes >> lane & 1) {
                    EXPECT_EQ(addrs[lane] & ~Addr{127}, t.lineAddr);
                }
            }
        }
        EXPECT_EQ(seen, active);
        EXPECT_LE(txns.size(), kWarpSize);
    }
}

TEST(BankConflicts, ConflictFreeUnitStride)
{
    std::array<Addr, kWarpSize> addrs{};
    for (unsigned lane = 0; lane < kWarpSize; ++lane)
        addrs[lane] = lane * 8;
    EXPECT_EQ(bankConflictDegree(addrs, kFullMask, 32), 1u);
}

TEST(BankConflicts, BroadcastDoesNotConflict)
{
    std::array<Addr, kWarpSize> addrs{};
    addrs.fill(64);
    EXPECT_EQ(bankConflictDegree(addrs, kFullMask, 32), 1u);
}

TEST(BankConflicts, StrideOfBanksIsWorstCase)
{
    std::array<Addr, kWarpSize> addrs{};
    for (unsigned lane = 0; lane < kWarpSize; ++lane)
        addrs[lane] = lane * 32 * 8; // all map to bank 0
    EXPECT_EQ(bankConflictDegree(addrs, kFullMask, 32), kWarpSize);
}

TEST(BankConflicts, PaddedTransposeColumnIsConflictFree)
{
    // The tiled-transpose read pattern: word index lane*33 + i.
    std::array<Addr, kWarpSize> addrs{};
    for (unsigned lane = 0; lane < kWarpSize; ++lane)
        addrs[lane] = (lane * 33 + 5) * 8;
    EXPECT_EQ(bankConflictDegree(addrs, kFullMask, 32), 1u);
}

/** The original O(banks x lanes) loop: the reference the
 *  fixed-array bankConflictDegree() must agree with. */
unsigned
referenceBankConflictDegree(const std::array<Addr, kWarpSize> &addrs,
                            LaneMask active, unsigned banks)
{
    // For each bank, count distinct 8-byte word addresses.
    unsigned worst = active ? 1 : 0;
    for (unsigned b = 0; b < banks; ++b) {
        std::vector<Addr> words;
        for (unsigned lane = 0; lane < kWarpSize; ++lane) {
            if (!(active >> lane & 1))
                continue;
            const Addr word = addrs[lane] / 8;
            if (word % banks != b)
                continue;
            if (std::find(words.begin(), words.end(), word) ==
                words.end())
                words.push_back(word);
        }
        worst = std::max(worst, static_cast<unsigned>(words.size()));
    }
    return worst;
}

/** Property: agrees with the reference loop on broadcasts,
 *  duplicate words, strides and random lane masks (including 0). */
TEST(BankConflictsProperty, MatchesReferenceLoop)
{
    Rng rng(17);
    for (int trial = 0; trial < 2000; ++trial) {
        std::array<Addr, kWarpSize> addrs{};
        const Addr base = rng.below(1 << 12) * 8;
        switch (trial % 4) {
          case 0: // broadcast
            addrs.fill(base + rng.below(8));
            break;
          case 1: // few distinct words: many duplicates, unaligned
            for (auto &a : addrs)
                a = base + rng.below(64);
            break;
          case 2: { // strided
            const Addr stride = rng.range(1, 40) * 8;
            for (unsigned lane = 0; lane < kWarpSize; ++lane)
                addrs[lane] = base + lane * stride;
            break;
          }
          default: // scattered
            for (auto &a : addrs)
                a = rng.below(1 << 20);
            break;
        }
        LaneMask active = 0;
        switch (rng.below(4)) {
          case 0: active = 0; break;
          case 1: active = kFullMask; break;
          case 2: active = 1u << rng.below(kWarpSize); break;
          default: active = static_cast<LaneMask>(rng.next()); break;
        }
        for (const unsigned banks : {1u, 2u, 16u, 32u, 33u}) {
            EXPECT_EQ(bankConflictDegree(addrs, active, banks),
                      referenceBankConflictDegree(addrs, active, banks))
                << "trial " << trial << " banks " << banks;
        }
    }
}

TEST(Scheduler, LrrRotatesThroughReadyWarps)
{
    WarpScheduler sched(SchedPolicy::LRR, {0, 1, 2, 3});
    auto always = [](unsigned) { return true; };
    auto age = [](unsigned s) { return std::uint64_t{s}; };
    EXPECT_EQ(sched.pick(always, age), 0);
    EXPECT_EQ(sched.pick(always, age), 1);
    EXPECT_EQ(sched.pick(always, age), 2);
    EXPECT_EQ(sched.pick(always, age), 3);
    EXPECT_EQ(sched.pick(always, age), 0);
}

TEST(Scheduler, LrrSkipsStalledWarps)
{
    WarpScheduler sched(SchedPolicy::LRR, {0, 1, 2});
    auto only2 = [](unsigned s) { return s == 2; };
    auto age = [](unsigned s) { return std::uint64_t{s}; };
    EXPECT_EQ(sched.pick(only2, age), 2);
    EXPECT_EQ(sched.pick(only2, age), 2);
}

TEST(Scheduler, NoneReadyReturnsMinusOne)
{
    WarpScheduler sched(SchedPolicy::GTO, {0, 1});
    auto never = [](unsigned) { return false; };
    auto age = [](unsigned s) { return std::uint64_t{s}; };
    EXPECT_EQ(sched.pick(never, age), -1);
}

TEST(Scheduler, GtoSticksWithGreedyWarp)
{
    WarpScheduler sched(SchedPolicy::GTO, {0, 1, 2});
    auto always = [](unsigned) { return true; };
    auto age = [](unsigned s) { return std::uint64_t{10 - s}; };
    // Oldest = largest slot here (age 10-s): slot 2 first...
    const int first = sched.pick(always, age);
    EXPECT_EQ(first, 2);
    // ...and greedy keeps it while it stays ready.
    EXPECT_EQ(sched.pick(always, age), 2);
    EXPECT_EQ(sched.pick(always, age), 2);
}

TEST(Scheduler, GtoFallsBackToOldestOnStall)
{
    WarpScheduler sched(SchedPolicy::GTO, {0, 1, 2});
    auto age = [](unsigned s) { return std::uint64_t{s}; };
    auto always = [](unsigned) { return true; };
    EXPECT_EQ(sched.pick(always, age), 0);
    auto not0 = [](unsigned s) { return s != 0; };
    EXPECT_EQ(sched.pick(not0, age), 1); // oldest ready
    EXPECT_EQ(sched.pick(not0, age), 1); // new greedy warp
}

/**
 * One SM driven by hand: a 1x1 request crossbar, one partition, and
 * a launch context filled in directly. Each warp is one full block.
 */
struct StandaloneSm
{
    StandaloneSm(Kernel k, const SmParams &params,
                 unsigned num_blocks = 1)
        : kernel(std::move(k)),
          sm(params, &dmem, &stats, nullptr, nullptr, &net,
             [](Addr) { return 0u; })
    {
        ctx.kernel = &kernel;
        ctx.numBlocks = num_blocks;
        ctx.threadsPerBlock = kWarpSize;
        ctx.totalThreads = std::uint64_t{num_blocks} * kWarpSize;
        sm.startLaunch(&ctx);
        sm.dispatchBlock(0);
    }

    std::uint64_t
    counter(const std::string &name) const
    {
        return stats.counterValue("sm0." + name);
    }

    /** Tick the SM over cycles [from, to). */
    void
    run(Cycle from, Cycle to)
    {
        for (Cycle c = from; c < to; ++c)
            sm.tick(c);
    }

    DeviceMemory dmem{1 << 16};
    StatRegistry stats;
    Crossbar<MemRequest> net{"icnt", 1, 1, 1, 8, 8, &stats};
    Kernel kernel;
    LaunchContext ctx;
    SmCore sm;
};

/** r1 = 5; r2 = r1 + 1 (stalls on r1); exit. */
Kernel
aluChain()
{
    KernelBuilder b("alu_chain");
    b.movImm(1, 5).aluImm(Opcode::IADD, 2, 1, 1).exit();
    return b.finalize();
}

/** r1 = [0x100]; r2 = r1 + 1 (stalls on the load); exit. */
Kernel
loadUse()
{
    KernelBuilder b("load_use");
    b.ld(MemSpace::Global, 1, 0, 0x100)
        .aluImm(Opcode::IADD, 2, 1, 1)
        .exit();
    return b.finalize();
}

// Each case below stalls a warp, lets the SM tick through cycles
// where nothing changes, then checks that the dependent
// instruction issues on the very tick its wake-up event lands.

TEST(SmCoreWake, AluWritebackWakesDependent)
{
    SmParams params;
    params.aluLatency = 10;
    StandaloneSm t(aluChain(), params);
    t.run(0, 10);
    EXPECT_EQ(t.counter("issued"), 1u);
    EXPECT_EQ(t.counter("idle_on_alu"), 9u);
    t.sm.tick(10); // r1's writeback lands
    EXPECT_EQ(t.counter("issued"), 2u);
}

TEST(SmCoreWake, L1HitCompletionWakesDependent)
{
    SmParams params;
    params.smBaseLatency = 10;
    params.l1HitLatency = 30;
    StandaloneSm t(loadUse(), params);
    t.sm.l1()->fill(0x100, 0);
    t.run(0, 40); // L1 hit at cycle 10, data back at 40
    EXPECT_EQ(t.counter("issued"), 1u);
    EXPECT_EQ(t.counter("idle_on_memory"), 39u);
    t.sm.tick(40);
    EXPECT_EQ(t.counter("issued"), 2u);
}

TEST(SmCoreWake, LoadResponseWakesDependent)
{
    SmParams params;
    params.l1Enabled = false;
    StandaloneSm t(loadUse(), params);
    for (Cycle c = 0; c < 50; ++c) {
        t.sm.tick(c);
        t.net.tick(c);
    }
    ASSERT_TRUE(t.net.deliverable(0, 50));
    MemRequest req = t.net.eject(0);
    EXPECT_EQ(t.counter("issued"), 1u);
    t.sm.acceptResponse(50, std::move(req));
    t.sm.tick(50);
    EXPECT_EQ(t.counter("issued"), 2u);
}

TEST(SmCoreWake, LsuPopWakesStalledMemoryOp)
{
    KernelBuilder b("two_loads");
    b.ld(MemSpace::Global, 1, 0, 0x100)
        .ld(MemSpace::Global, 2, 0, 0x200)
        .exit();
    SmParams params;
    params.lsuQueueSize = 1;
    params.smBaseLatency = 10;
    params.l1Enabled = false;
    StandaloneSm t(b.finalize(), params);
    t.run(0, 10);
    EXPECT_EQ(t.counter("issued"), 1u);
    EXPECT_EQ(t.counter("idle_on_lsu"), 9u);
    t.sm.tick(10); // the first load leaves the LSU queue
    EXPECT_EQ(t.counter("issued"), 2u);
}

TEST(SmCoreWake, DispatchWakesSmWhoseLastScanFoundNothing)
{
    SmParams params;
    params.aluLatency = 100;
    StandaloneSm t(aluChain(), params, 2);
    t.run(0, 3);
    EXPECT_EQ(t.counter("issued"), 1u);
    ASSERT_TRUE(t.sm.canAcceptBlock());
    t.sm.dispatchBlock(1);
    t.sm.tick(3);
    EXPECT_EQ(t.counter("issued"), 2u);
}

} // namespace
} // namespace gpulat
