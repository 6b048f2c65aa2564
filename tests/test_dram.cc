/**
 * @file
 * Unit + property tests for the DRAM channel timing model and the
 * FCFS / FR-FCFS schedulers.
 */

#include <algorithm>
#include <deque>
#include <optional>
#include <string>
#include <vector>

#include <gtest/gtest.h>

#include "common/log.hh"
#include "common/random.hh"
#include "gpu/gpu_config.hh"
#include "mem/dram.hh"
#include "mem/dram_sched.hh"

namespace gpulat {
namespace {

DramParams
testParams()
{
    DramParams p;
    p.banks = 4;
    p.rowBytes = 1024;
    p.timing.tRCD = 20;
    p.timing.tRP = 15;
    p.timing.tCAS = 10;
    p.timing.tBurst = 4;
    p.timing.tExtra = 0;
    return p;
}

/** A request for @p line queued at @p enq, mapped on @p ch. */
DramQueueEntry
entry(const DramChannel &ch, Addr line, Cycle enq = 0)
{
    MemRequest r;
    r.lineAddr = line;
    // The scheduler asserts every request carries its enqueue cycle
    // (anti-starvation aging would otherwise be silently disabled).
    r.trace.dramEnq = enq;
    return DramQueueEntry{r, ch.coordOf(line)};
}

TEST(DramChannel, ClosedBankPaysActivate)
{
    StatRegistry stats;
    DramChannel ch("d", testParams(), &stats);
    // closed: tRCD + tCAS + burst
    EXPECT_EQ(ch.schedule(ch.coordOf(0), false, 100),
              100u + 20 + 10 + 4);
    EXPECT_EQ(stats.counterValue("d.row_closed"), 1u);
}

TEST(DramChannel, RowHitSkipsActivate)
{
    StatRegistry stats;
    DramChannel ch("d", testParams(), &stats);
    const Cycle first = ch.schedule(ch.coordOf(0), false, 100);
    // Same row (within 1KB), bank now open.
    EXPECT_TRUE(ch.rowHit(ch.coordOf(128)));
    const Cycle second = ch.schedule(ch.coordOf(128), false, first);
    EXPECT_EQ(second, first + 10 + 4);
    EXPECT_EQ(stats.counterValue("d.row_hits"), 1u);
}

TEST(DramChannel, RowConflictPaysPrechargePlusActivate)
{
    StatRegistry stats;
    DramParams p = testParams();
    DramChannel ch("d", p, &stats);
    ch.schedule(ch.coordOf(0), false, 0);
    // Same bank, different row: bank stride is banks*rowBytes.
    const Addr conflict = p.banks * p.rowBytes;
    EXPECT_FALSE(ch.rowHit(ch.coordOf(conflict)));
    const Cycle start = 1000; // bank long idle
    EXPECT_EQ(ch.schedule(ch.coordOf(conflict), false, start),
              start + 15 + 20 + 10 + 4);
    EXPECT_EQ(stats.counterValue("d.row_misses"), 1u);
}

TEST(DramChannel, BanksMapRowsRoundRobin)
{
    StatRegistry stats;
    DramParams p = testParams();
    DramChannel ch("d", p, &stats);
    EXPECT_EQ(ch.coordOf(0).flatBank, 0u);
    EXPECT_EQ(ch.coordOf(p.rowBytes).flatBank, 1u);
    EXPECT_EQ(ch.coordOf(3 * p.rowBytes).flatBank, 3u);
    EXPECT_EQ(ch.coordOf(4 * p.rowBytes).flatBank, 0u);
    EXPECT_EQ(ch.coordOf(0).row, ch.coordOf(512).row);
    EXPECT_NE(ch.coordOf(0).row, ch.coordOf(4 * p.rowBytes).row);
}

TEST(DramChannel, DataBusSerializesBursts)
{
    StatRegistry stats;
    DramChannel ch("d", testParams(), &stats);
    // Two different banks issued back to back: both pay activate,
    // but their bursts must not overlap on the shared bus.
    const Cycle a = ch.schedule(ch.coordOf(0), false, 0);
    const Cycle b = ch.schedule(ch.coordOf(1024), false, 0);
    EXPECT_GE(b, a + 4); // at least one burst apart
}

TEST(DramChannel, CompletionsAreMonotonicInScheduleOrder)
{
    StatRegistry stats;
    DramChannel ch("d", testParams(), &stats);
    Rng rng(5);
    Cycle prev = 0;
    Cycle now = 0;
    for (int i = 0; i < 1000; ++i) {
        const Addr line = rng.below(1 << 14) * 128;
        const Cycle done =
            ch.schedule(ch.coordOf(line), rng.below(2), now);
        EXPECT_GE(done, prev);
        prev = done;
        now += rng.below(30);
    }
}

TEST(DramSched, FcfsPicksHeadOnly)
{
    StatRegistry stats;
    DramChannel ch("d", testParams(), &stats);
    std::deque<DramQueueEntry> q{entry(ch, 0), entry(ch, 128)};
    const auto pick =
        pickDramRequest(DramSchedPolicy::FCFS, q, ch, 10);
    ASSERT_TRUE(pick.has_value());
    EXPECT_EQ(*pick, 0u);
}

TEST(DramSched, FcfsWaitsForBusyBank)
{
    StatRegistry stats;
    DramChannel ch("d", testParams(), &stats);
    ch.schedule(ch.coordOf(0), false, 0); // bank 0 busy until ~34
    std::deque<DramQueueEntry> q{entry(ch, 128)};
    EXPECT_FALSE(
        pickDramRequest(DramSchedPolicy::FCFS, q, ch, 5).has_value());
    EXPECT_TRUE(
        pickDramRequest(DramSchedPolicy::FCFS, q, ch, 100)
            .has_value());
}

TEST(DramSched, FrFcfsPrefersRowHitOverOlder)
{
    StatRegistry stats;
    DramParams p = testParams();
    DramChannel ch("d", p, &stats);
    ch.schedule(ch.coordOf(0), false, 0); // opens row 0 of bank 0
    const Cycle ready = 100;

    // Head is a row conflict (bank 0, other row); second entry is a
    // row hit in bank 0.
    std::deque<DramQueueEntry> q{entry(ch, p.banks * p.rowBytes),
                                 entry(ch, 256)};
    const auto pick =
        pickDramRequest(DramSchedPolicy::FRFCFS, q, ch, ready);
    ASSERT_TRUE(pick.has_value());
    EXPECT_EQ(*pick, 1u);
}

TEST(DramSched, FrFcfsFallsBackToOldestReady)
{
    StatRegistry stats;
    DramParams p = testParams();
    DramChannel ch("d", p, &stats);
    // No open rows anywhere: oldest wins.
    std::deque<DramQueueEntry> q{entry(ch, 512), entry(ch, 0)};
    const auto pick =
        pickDramRequest(DramSchedPolicy::FRFCFS, q, ch, 0);
    ASSERT_TRUE(pick.has_value());
    EXPECT_EQ(*pick, 0u);
}

TEST(DramSched, EmptyQueueYieldsNothing)
{
    StatRegistry stats;
    DramChannel ch("d", testParams(), &stats);
    std::deque<DramQueueEntry> q;
    EXPECT_FALSE(pickDramRequest(DramSchedPolicy::FRFCFS, q, ch, 0)
                     .has_value());
}

// ---------------------------------------------------------------
// Address mapper.

TEST(DramMap, RowMapMatchesLegacyArithmetic)
{
    DramGeometry g;
    g.banks = 4;
    g.bankGroups = 2;
    g.rowBytes = 1024;
    for (Addr a : {Addr{0}, Addr{512}, Addr{1024}, Addr{3 * 1024},
                   Addr{4 * 1024}, Addr{129 * 1024}}) {
        const DramCoord c = mapDramAddress(g, a);
        EXPECT_EQ(c.flatBank, (a / 1024) % 4) << "addr " << a;
        EXPECT_EQ(c.row, a / 1024 / 4) << "addr " << a;
        EXPECT_EQ(c.rank, 0u);
    }
}

TEST(DramMap, BankGroupMapRenumbersGroupsOnly)
{
    DramGeometry g;
    g.banks = 4;
    g.bankGroups = 2;
    g.rowBytes = 1024;
    // Row map: contiguous runs {0,1} and {2,3}.
    g.map = DramAddrMap::Row;
    EXPECT_EQ(mapDramAddress(g, 0).group, 0u);
    EXPECT_EQ(mapDramAddress(g, 1024).group, 0u);
    EXPECT_EQ(mapDramAddress(g, 2 * 1024).group, 1u);
    // BankGroup map: alternate, same flat bank.
    g.map = DramAddrMap::BankGroup;
    EXPECT_EQ(mapDramAddress(g, 1024).flatBank, 1u);
    EXPECT_EQ(mapDramAddress(g, 0).group, 0u);
    EXPECT_EQ(mapDramAddress(g, 1024).group, 1u);
    EXPECT_EQ(mapDramAddress(g, 2 * 1024).group, 0u);
}

TEST(DramMap, XorMapPermutesBanksPerRow)
{
    DramGeometry g;
    g.banks = 4;
    g.bankGroups = 2;
    g.rowBytes = 1024;
    g.map = DramAddrMap::Xor;
    // A stride of banks*rowBytes pins one bank under the Row map but
    // walks all banks under the hash.
    std::vector<bool> seen(4, false);
    for (unsigned i = 0; i < 4; ++i)
        seen[mapDramAddress(g, Addr{i} * 4 * 1024).flatBank] = true;
    for (unsigned b = 0; b < 4; ++b)
        EXPECT_TRUE(seen[b]) << "bank " << b << " never hit";
    // Still bijective inside one row.
    std::vector<bool> row_seen(4, false);
    for (unsigned i = 0; i < 4; ++i)
        row_seen[mapDramAddress(g, Addr{i} * 1024).flatBank] = true;
    for (unsigned b = 0; b < 4; ++b)
        EXPECT_TRUE(row_seen[b]);
}

TEST(DramMap, RanksExtendFlatBankSpace)
{
    DramGeometry g;
    g.banks = 4;
    g.bankGroups = 2;
    g.ranks = 2;
    g.rowBytes = 1024;
    const DramCoord c = mapDramAddress(g, 4 * 1024);
    EXPECT_EQ(c.flatBank, 4u);
    EXPECT_EQ(c.rank, 1u);
    EXPECT_EQ(c.bankInRank, 0u);
    EXPECT_EQ(mapDramAddress(g, 8 * 1024).flatBank, 0u);
    EXPECT_EQ(mapDramAddress(g, 8 * 1024).row, 1u);
}

// ---------------------------------------------------------------
// DDR command state machine. Small hand-computable timings:
// tRCD=20 tRP=15 tCAS=10 tBurst=4 plus the ddr constraints below.

DramParams
ddrParams()
{
    DramParams p = testParams();
    p.bankGroups = 2;
    p.ddr.tRAS = 50;
    p.ddr.tRRDS = 6;
    p.ddr.tRRDL = 12;
    p.ddr.tFAW = 60;
    p.ddr.tWTR = 30;
    p.ddr.tRTW = 25;
    p.ddr.tREFI = 1000;
    p.ddr.tRFC = 120;
    return p;
}

TEST(DramDdr, ColdAccessMatchesSimpleModel)
{
    StatRegistry stats;
    DramChannel ch("d", ddrParams(), &stats);
    // No prior activity: only ACT + CAS + burst, like `simple`.
    EXPECT_EQ(ch.schedule(ch.coordOf(0), false, 100),
              100u + 20 + 10 + 4);
    EXPECT_EQ(stats.counterValue("d.row_closed"), 1u);
    EXPECT_EQ(stats.counterValue("d.rd_row_closed"), 1u);
    EXPECT_EQ(stats.counterValue("d.bg0.row_closed"), 1u);
}

TEST(DramDdr, TRasDelaysPrechargeOnRowConflict)
{
    StatRegistry stats;
    DramParams p = ddrParams();
    DramChannel ch("d", p, &stats);
    ch.schedule(ch.coordOf(0), false, 0); // ACT bank 0 at cycle 0
    // Conflict in bank 0 at cycle 40: PRE must wait for tRAS (ACT
    // 0 + 50), then pay tRP + tRCD + tCAS.
    const Addr conflict = p.banks * p.rowBytes;
    EXPECT_EQ(ch.schedule(ch.coordOf(conflict), false, 40),
              50u + 15 + 20 + 10 + 4);
}

TEST(DramDdr, SameGroupActivatePairSlowerThanCrossGroup)
{
    // banks {0,1} share group 0, {2,3} group 1 under the Row map.
    Cycle done[2];
    int i = 0;
    for (Addr second : {Addr{1024}, Addr{2 * 1024}}) {
        StatRegistry stats;
        DramChannel ch("d", ddrParams(), &stats);
        ch.schedule(ch.coordOf(0), false, 0);
        done[i++] = ch.schedule(ch.coordOf(second), false, 0);
    }
    // Same group: ACT held tRRD_L(12) -> data at 12+30, done 46.
    EXPECT_EQ(done[0], 46u);
    // Cross group: ACT held tRRD_S(6) -> data at 36, done 40.
    EXPECT_EQ(done[1], 40u);
}

TEST(DramDdr, TFawCapsFifthActivate)
{
    StatRegistry stats;
    DramParams p = ddrParams();
    p.banks = 8;
    p.bankGroups = 4;
    DramChannel ch("d", p, &stats);
    // Five activates to distinct banks at cycle 0. ACT times run
    // 0, 12, 18, 30 (tRRD_S/L alternating as the bank walk crosses
    // the two-bank groups); the fifth must wait for the first + tFAW.
    Cycle done = 0;
    for (unsigned b = 0; b <= 4; ++b)
        done = ch.schedule(ch.coordOf(Addr{b} * p.rowBytes), false,
                           0);
    // ACT at max(36, 0 + tFAW=60) = 60 -> data 90 -> done 94.
    EXPECT_EQ(done, 94u);
}

TEST(DramDdr, ReadWriteTurnaroundChargesBusSwitch)
{
    StatRegistry stats;
    DramChannel ch("d", ddrParams(), &stats);
    const Cycle rd = ch.schedule(ch.coordOf(0), false, 0);
    EXPECT_EQ(rd, 34u); // burst ends 34
    // Write hit at 40 would burst at 50, but tRTW holds the bus
    // until read-end 34 + 25 = 59.
    EXPECT_EQ(ch.schedule(ch.coordOf(128), true, 40), 59u + 4);
    // Read hit at 63 would burst at 73, but tWTR holds it until
    // write-end 63 + 30 = 93.
    EXPECT_EQ(ch.schedule(ch.coordOf(256), false, 63), 93u + 4);
    EXPECT_EQ(stats.counterValue("d.wr_row_hits"), 1u);
    EXPECT_EQ(stats.counterValue("d.rd_row_hits"), 1u);
}

TEST(DramDdr, RefreshClosesRowsAndStallsRank)
{
    StatRegistry stats;
    DramChannel ch("d", ddrParams(), &stats);
    ch.schedule(ch.coordOf(0), false, 0); // open bank 0 row 0
    EXPECT_TRUE(ch.rowHit(ch.coordOf(0)));

    // Epoch 1 occupies [1000, 1120): an access at 1005 waits it out
    // and finds its row closed.
    EXPECT_EQ(ch.schedule(ch.coordOf(0), false, 1005),
              1120u + 20 + 10 + 4);
    EXPECT_EQ(stats.counterValue("d.refreshes"), 1u);
    EXPECT_EQ(stats.counterValue("d.refresh_stall_cycles"), 115u);
    EXPECT_EQ(stats.counterValue("d.row_closed"), 2u);
    EXPECT_EQ(ch.refreshStallCycles(), 115u);
}

TEST(DramDdr, RefreshCatchUpAfterLongIdleCountsEveryEpoch)
{
    StatRegistry stats;
    DramChannel ch("d", ddrParams(), &stats);
    ch.schedule(ch.coordOf(0), false, 0);
    // Jump over three epochs: rows are closed exactly once per
    // epoch, and only the last epoch's window can still stall.
    ch.schedule(ch.coordOf(0), false, 3500);
    EXPECT_EQ(stats.counterValue("d.refreshes"), 3u);
    EXPECT_EQ(stats.counterValue("d.refresh_stall_cycles"), 0u);
}

TEST(DramDdr, ClosedPagePolicyAutoPrecharges)
{
    StatRegistry stats;
    DramParams p = ddrParams();
    p.page = DramPagePolicy::Closed;
    DramChannel ch("d", p, &stats);
    ch.schedule(ch.coordOf(0), false, 0);
    EXPECT_FALSE(ch.rowHit(ch.coordOf(0)));
    ch.schedule(ch.coordOf(0), false, 200);
    EXPECT_EQ(stats.counterValue("d.row_closed"), 2u);
    EXPECT_EQ(stats.counterValue("d.row_hits"), 0u);
}

TEST(DramDdr, RefreshEpochsCountOnce)
{
    // Refresh epochs are a function of the absolute cycle: no epoch
    // starts in [3500, 3600], so the access at 3600 must not count
    // any refresh again.
    StatRegistry stats;
    DramChannel ch("d", ddrParams(), &stats);
    ch.schedule(ch.coordOf(0), false, 0);
    ch.schedule(ch.coordOf(0), false, 3500);
    EXPECT_EQ(stats.counterValue("d.refreshes"), 3u);
    ch.schedule(ch.coordOf(0), false, 3600);
    EXPECT_EQ(stats.counterValue("d.refreshes"), 3u);
    // The next epoch still counts once.
    ch.schedule(ch.coordOf(0), false, 4000);
    EXPECT_EQ(stats.counterValue("d.refreshes"), 4u);
}

TEST(DramDdr, CompletionsMonotonicUnderRandomTraffic)
{
    StatRegistry stats;
    DramParams p = ddrParams();
    p.ranks = 2;
    p.map = DramAddrMap::Xor;
    DramChannel ch("d", p, &stats);
    Rng rng(7);
    Cycle prev = 0;
    Cycle now = 0;
    for (int i = 0; i < 2000; ++i) {
        const Addr line = rng.below(1 << 14) * 128;
        const Cycle done =
            ch.schedule(ch.coordOf(line), rng.below(2), now);
        EXPECT_GE(done, prev);
        prev = done;
        now += rng.below(50);
    }
}

// ---------------------------------------------------------------
// The `simple` timing is the state machine with every DdrTiming
// field at 0. FlatReference is the flat open-row check it replaced:
// the row outcome alone sets the latency, plus the shared data bus.

struct FlatReference
{
    struct Bank
    {
        bool open = false;
        std::uint64_t row = 0;
        Cycle readyAt = 0;
    };

    Cycle
    schedule(unsigned bank, std::uint64_t row, Cycle now)
    {
        Bank &b = banks[bank];
        const Cycle start = std::max(now, b.readyAt);
        Cycle first_data = start + t.tRCD + t.tCAS;
        if (b.open && b.row == row) {
            first_data = start + t.tCAS;
            ++hits;
        } else if (b.open) {
            first_data += t.tRP;
            ++conflicts;
        } else {
            ++closed;
        }
        busFreeAt = std::max(first_data, busFreeAt) + t.tBurst;
        b = Bank{true, row, busFreeAt};
        return busFreeAt + t.tExtra;
    }

    DramTiming t;
    std::vector<Bank> banks;
    Cycle busFreeAt = 0;
    std::uint64_t hits = 0;
    std::uint64_t conflicts = 0;
    std::uint64_t closed = 0;
};

/** Drives a channel and the reference with the same accesses. */
struct FoldHarness
{
    explicit FoldHarness(const DramParams &p)
        : params(p), ch("d", p, &stats)
    {
        ref.t = p.timing;
        ref.banks.resize(static_cast<std::size_t>(p.ranks) * p.banks);
    }

    /** Issue (bank, row) at @p now to both; true when they agree
     *  on the completion cycle and every row outcome so far. */
    ::testing::AssertionResult
    access(unsigned bank, std::uint64_t row, bool is_write, Cycle now)
    {
        const std::uint64_t total = ref.banks.size();
        const Addr line = (row * total + bank) * params.rowBytes;
        const Cycle got = ch.schedule(ch.coordOf(line), is_write, now);
        const Cycle want = ref.schedule(bank, row, now);
        if (got != want ||
            stats.counterValue("d.row_hits") != ref.hits ||
            stats.counterValue("d.row_misses") != ref.conflicts ||
            stats.counterValue("d.row_closed") != ref.closed) {
            return ::testing::AssertionFailure()
                << "bank " << bank << " row " << row << " at " << now
                << ": done " << got << " vs flat " << want;
        }
        return ::testing::AssertionSuccess();
    }

    DramParams params;
    StatRegistry stats;
    DramChannel ch;
    FlatReference ref;
};

DramParams
simpleParams(unsigned ranks)
{
    DramParams p = testParams();
    p.ranks = ranks;
    p.timing.tExtra = 7;
    return p;
}

TEST(DramSimpleFold, ZeroSpacingClampMatchesFlatCheck)
{
    // A conflict on bank 0 activates at 34 + tRP = 49. Bank 1's
    // first access arrives at 35, inside that tRP window: its
    // activate is clamped from 35 to 49, but its data still waits
    // for the bus bank 0's burst holds until 83.
    FoldHarness h(simpleParams(1));
    EXPECT_TRUE(h.access(0, 0, false, 0));
    EXPECT_TRUE(h.access(0, 1, false, 34));
    EXPECT_TRUE(h.access(1, 0, false, 35));
    EXPECT_EQ(h.ref.busFreeAt, 87u);
}

TEST(DramSimpleFold, RandomStreamsMatchFlatCheck)
{
    for (const unsigned ranks : {1u, 2u}) {
        for (std::uint64_t seed = 1; seed <= 4; ++seed) {
            FoldHarness h(simpleParams(ranks));
            Rng rng(seed);
            const unsigned total = ranks * h.params.banks;
            Cycle now = 0;
            for (int i = 0; i < 3000; ++i) {
                // Few rows per bank and gaps up to 2*tRP: hits,
                // conflicts and activates inside another bank's
                // precharge window all occur often.
                const auto bank =
                    static_cast<unsigned>(rng.below(total));
                ASSERT_TRUE(h.access(bank, rng.below(3),
                                     rng.below(2) != 0, now))
                    << "ranks " << ranks << " seed " << seed
                    << " access " << i;
                now += rng.below(2 * h.params.timing.tRP);
            }
            EXPECT_GT(h.ref.hits, 0u);
            EXPECT_GT(h.ref.conflicts, 0u);
        }
    }
}

TEST(DramChannel, BadShapeAndRefreshInputAreNamedErrors)
{
    // GpuConfig::validate() judges a channel's shape before any
    // channel is built, in the override keys' spelling.
    auto message = [](const DramParams &p) -> std::string {
        GpuConfig cfg = makeGF106();
        cfg.partition.dram = p;
        std::string lines;
        for (const std::string &error : cfg.validate())
            lines += error + "\n";
        return lines.empty() ? "no error" : lines;
    };
    DramParams p = testParams();
    p.bankGroups = 3;
    EXPECT_NE(message(p).find("mem.dram.bankGroups (3) must divide "
                              "partition.dram.banks (4)"),
              std::string::npos)
        << message(p);
    p.bankGroups = 0;
    EXPECT_NE(message(p).find("mem.dram.bankGroups"), std::string::npos);

    p = testParams();
    p.ranks = 0;
    EXPECT_NE(message(p).find("mem.dram.ranks"), std::string::npos);
    p = testParams();
    p.banks = 0;
    EXPECT_NE(message(p).find("partition.dram.banks"),
              std::string::npos);
    p = testParams();
    p.rowBytes = 0;
    EXPECT_NE(message(p).find("partition.dram.rowBytes"),
              std::string::npos);

    // tRFC must fit inside tREFI whenever refresh is on...
    p = testParams();
    p.ddr.tREFI = 100;
    p.ddr.tRFC = 100;
    EXPECT_NE(message(p).find("mem.dram.tRFC (100) must be shorter "
                              "than mem.dram.tREFI (100)"),
              std::string::npos)
        << message(p);
    // ...and is unconstrained without refresh.
    p.ddr.tREFI = 0;
    EXPECT_EQ(message(p), "no error");
}

TEST(DramChannel, CountersFollowTheTimingTheyCount)
{
    // Per-bank-group outcomes need tRRD_L and refresh counters need
    // tREFI; the simple timing (all zero) registers neither.
    auto has = [](const DramParams &p, const char *name) {
        StatRegistry stats;
        DramChannel ch("d", p, &stats);
        return stats.counters().count(name) != 0;
    };
    DramParams p = testParams();
    EXPECT_FALSE(has(p, "d.bg0.row_hits"));
    EXPECT_FALSE(has(p, "d.refreshes"));
    p.ddr.tRRDL = 12;
    EXPECT_TRUE(has(p, "d.bg0.row_hits"));
    EXPECT_FALSE(has(p, "d.refreshes"));
    p = testParams();
    p.ddr.tREFI = 1000;
    EXPECT_TRUE(has(p, "d.refreshes"));
    EXPECT_TRUE(has(p, "d.refresh_stall_cycles"));
    EXPECT_FALSE(has(p, "d.bg0.row_hits"));
}

// ---------------------------------------------------------------
// Anti-starvation.

TEST(DramSched, FrFcfsStarvationBypassesRowHits)
{
    StatRegistry stats;
    DramParams p = testParams();
    DramChannel ch("d", p, &stats);
    ch.schedule(ch.coordOf(0), false, 0); // opens row 0 of bank 0

    // Head: row conflict enqueued at 0. Behind it: a fresh row hit.
    std::deque<DramQueueEntry> q{entry(ch, p.banks * p.rowBytes, 0),
                                 entry(ch, 256, 95)};
    // Young head: the row hit still wins.
    auto pick = pickDramRequest(DramSchedPolicy::FRFCFS, q, ch, 100,
                                /*starvation_limit=*/200);
    ASSERT_TRUE(pick.has_value());
    EXPECT_EQ(*pick, 1u);
    // Head aged past the limit: strict oldest-ready.
    pick = pickDramRequest(DramSchedPolicy::FRFCFS, q, ch, 300,
                           /*starvation_limit=*/200);
    ASSERT_TRUE(pick.has_value());
    EXPECT_EQ(*pick, 0u);
}

TEST(DramSched, UnstampedRequestPanics)
{
    StatRegistry stats;
    DramChannel ch("d", testParams(), &stats);
    MemRequest r;
    r.lineAddr = 0; // trace.dramEnq left as kNoCycle
    std::deque<DramQueueEntry> q{{r, ch.coordOf(0)}};
    EXPECT_THROW(
        pickDramRequest(DramSchedPolicy::FRFCFS, q, ch, 1000),
        PanicError);
}

/** Property: FR-FCFS achieves >= the row-hit count of FCFS on the
 *  same random request stream. */
TEST(DramSchedProperty, FrFcfsRowHitRateDominatesFcfs)
{
    for (std::uint64_t seed : {1u, 2u, 3u}) {
        std::uint64_t hits[2];
        int idx = 0;
        for (auto policy :
             {DramSchedPolicy::FCFS, DramSchedPolicy::FRFCFS}) {
            StatRegistry stats;
            DramChannel ch("d", testParams(), &stats);
            Rng rng(seed);
            std::deque<DramQueueEntry> q;
            Cycle now = 0;
            int completed = 0;
            while (completed < 500) {
                // Keep the queue pressurized with hot-row traffic.
                while (q.size() < 16) {
                    const Addr line =
                        rng.below(8) * 1024 * 4 + rng.below(8) * 128;
                    q.push_back(entry(ch, line));
                }
                if (auto pick =
                        pickDramRequest(policy, q, ch, now)) {
                    ch.schedule(q[*pick].coord, false, now);
                    q.erase(q.begin() +
                            static_cast<std::ptrdiff_t>(*pick));
                    ++completed;
                }
                ++now;
            }
            hits[idx++] = stats.counterValue("d.row_hits");
        }
        EXPECT_GE(hits[1], hits[0]) << "seed " << seed;
    }
}

/** The address-taking channel queries the reference picker calls,
 *  answered by mapping the address on every call as they did. */
struct AddrChannel
{
    bool
    bankReady(Addr line_addr, Cycle now) const
    {
        return ch.bankReady(ch.coordOf(line_addr), now);
    }
    bool
    rowHit(Addr line_addr) const
    {
        return ch.rowHit(ch.coordOf(line_addr));
    }

    const DramChannel &ch;
};

/** The picker before queued requests carried their coordinate: it
 *  re-mapped every queued address on every call (body verbatim). */
std::optional<std::size_t>
referencePickDramRequest(DramSchedPolicy policy,
                         const std::deque<MemRequest> &queue,
                         const AddrChannel &channel, Cycle now,
                         Cycle starvation_limit)
{
    if (queue.empty())
        return std::nullopt;

    if (policy == DramSchedPolicy::FCFS) {
        // Strictly oldest-first; wait for its bank if necessary.
        return channel.bankReady(queue.front().dramAddr(), now)
            ? std::optional<std::size_t>(0)
            : std::nullopt;
    }

    // Anti-starvation: when the oldest request has been bypassed for
    // too long, stop preferring row hits over it. An unstamped
    // enqueue cycle would silently disable this forever, so it is a
    // bug in the producer (pushDram() stamps every request).
    const Cycle head_enq = queue.front().trace.dramEnq;
    GPULAT_ASSERT(head_enq != kNoCycle,
                  "DRAM request reached the scheduler without a "
                  "dramEnq stamp: anti-starvation would be disabled");
    const bool starving = now - head_enq > starvation_limit;

    // FR-FCFS: oldest ready row-hit first, then oldest ready request.
    std::optional<std::size_t> oldest_ready;
    for (std::size_t i = 0; i < queue.size(); ++i) {
        if (!channel.bankReady(queue[i].dramAddr(), now))
            continue;
        if (!starving && channel.rowHit(queue[i].dramAddr()))
            return i;
        if (!oldest_ready)
            oldest_ready = i;
        if (starving)
            break; // serve strictly oldest-ready
    }
    return oldest_ready;
}

/** Property: on random request streams the picker returns what the
 *  reference returns, for both policies, tiny and default
 *  starvation limits, every address map and 1 or 2 ranks. The bank
 *  states come from scheduling the picks themselves. */
TEST(DramSchedProperty, MatchesReferencePicker)
{
    for (const auto policy :
         {DramSchedPolicy::FCFS, DramSchedPolicy::FRFCFS}) {
        for (const Cycle limit : {Cycle{4}, Cycle{768}}) {
            for (const auto map : {DramAddrMap::Row, DramAddrMap::BankGroup,
                                   DramAddrMap::Xor}) {
                for (const unsigned ranks : {1u, 2u}) {
                    DramParams p = ddrParams();
                    p.map = map;
                    p.ranks = ranks;
                    StatRegistry stats;
                    DramChannel ch("d", p, &stats);
                    const AddrChannel addr_ch{ch};
                    std::deque<DramQueueEntry> q;
                    std::deque<MemRequest> ref_q;
                    Rng rng(ranks * 10 + static_cast<unsigned>(map));
                    unsigned picks = 0;
                    for (Cycle now = 0; now < 20000; ++now) {
                        if (q.size() < 16 && rng.below(3) != 0) {
                            // Few rows over all banks: hits, conflicts
                            // and busy banks all occur often.
                            MemRequest r;
                            r.sliceAddr = (rng.below(64) * p.rowBytes +
                                           rng.below(8) * 128);
                            r.isWrite = rng.below(4) == 0;
                            r.trace.dramEnq = now;
                            q.push_back({r, ch.coordOf(r.dramAddr())});
                            ref_q.push_back(r);
                        }
                        const auto pick =
                            pickDramRequest(policy, q, ch, now, limit);
                        ASSERT_EQ(pick, referencePickDramRequest(
                                            policy, ref_q, addr_ch, now,
                                            limit))
                            << toString(policy) << " limit " << limit
                            << " map " << toString(map) << " ranks "
                            << ranks << " cycle " << now;
                        if (!pick)
                            continue;
                        const auto at =
                            static_cast<std::ptrdiff_t>(*pick);
                        ch.schedule(q[*pick].coord,
                                    q[*pick].req.isWrite, now);
                        q.erase(q.begin() + at);
                        ref_q.erase(ref_q.begin() + at);
                        ++picks;
                    }
                    EXPECT_GT(picks, 500u);
                    EXPECT_GT(stats.counterValue("d.row_hits"), 0u);
                    EXPECT_GT(stats.counterValue("d.row_misses"), 0u);
                }
            }
        }
    }
}

} // namespace
} // namespace gpulat
