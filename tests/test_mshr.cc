/**
 * @file
 * Direct unit tests for the MSHR table: outcome paths, release
 * ordering, and the banked front-end.
 */

#include <gtest/gtest.h>

#include "cache/mshr.hh"

namespace gpulat {
namespace {

TEST(Mshr, PrimaryThenMergesThenFullMerges)
{
    MshrTable<int> mshr(4, 3);
    EXPECT_EQ(mshr.allocate(0x100, 1), MshrOutcome::NewEntry);
    EXPECT_EQ(mshr.allocate(0x100, 2), MshrOutcome::Merged);
    EXPECT_EQ(mshr.allocate(0x100, 3), MshrOutcome::Merged);
    // Merge cap counts the primary: the fourth payload bounces.
    EXPECT_EQ(mshr.allocate(0x100, 4), MshrOutcome::FullMerges);
    EXPECT_EQ(mshr.inFlight(), 1u);
    EXPECT_EQ(mshr.peekCount(0x100), 3u);
}

TEST(Mshr, FullEntriesWhenTableExhausted)
{
    MshrTable<int> mshr(2, 4);
    EXPECT_EQ(mshr.allocate(0x000, 0), MshrOutcome::NewEntry);
    EXPECT_EQ(mshr.allocate(0x100, 1), MshrOutcome::NewEntry);
    EXPECT_FALSE(mshr.canAllocate(0x200));
    EXPECT_EQ(mshr.allocate(0x200, 2), MshrOutcome::FullEntries);
    // A full table still merges onto tracked lines.
    EXPECT_EQ(mshr.allocate(0x100, 3), MshrOutcome::Merged);
}

TEST(Mshr, ReleaseReturnsPayloadsPrimaryFirst)
{
    MshrTable<int> mshr(4, 8);
    mshr.allocate(0x100, 10);
    mshr.allocate(0x100, 20);
    mshr.allocate(0x100, 30);
    const std::vector<int> payloads = mshr.release(0x100);
    ASSERT_EQ(payloads.size(), 3u);
    EXPECT_EQ(payloads[0], 10);
    EXPECT_EQ(payloads[1], 20);
    EXPECT_EQ(payloads[2], 30);
    EXPECT_TRUE(mshr.empty());
    EXPECT_FALSE(mshr.pending(0x100));
}

TEST(Mshr, PendingAndPeekCountEdgeCases)
{
    MshrTable<int> mshr(4, 2);
    EXPECT_FALSE(mshr.pending(0x100));
    EXPECT_EQ(mshr.peekCount(0x100), 0u);
    mshr.allocate(0x100, 1);
    EXPECT_TRUE(mshr.pending(0x100));
    EXPECT_EQ(mshr.peekCount(0x100), 1u);
    // A bounced merge leaves the count untouched.
    mshr.allocate(0x100, 2);
    EXPECT_EQ(mshr.allocate(0x100, 3), MshrOutcome::FullMerges);
    EXPECT_EQ(mshr.peekCount(0x100), 2u);
    // Freed entry is reusable.
    mshr.release(0x100);
    EXPECT_EQ(mshr.allocate(0x100, 4), MshrOutcome::NewEntry);
}

TEST(Mshr, ReleaseOfUntrackedLinePanics)
{
    MshrTable<int> mshr(4, 2);
    EXPECT_THROW(mshr.release(0x100), PanicError);
}

// ---------------------------------------------------------------
// Banked front-end.

TEST(MshrBanked, LineHashSplitsBanks)
{
    // 8 entries over 4 banks, 128-byte lines: line -> bank cycles
    // with the line number.
    MshrTable<int> mshr(8, 4, 4, 0, 128);
    EXPECT_EQ(mshr.banks(), 4u);
    EXPECT_EQ(mshr.bankCapacity(), 2u);
    EXPECT_EQ(mshr.bankOf(0), 0u);
    EXPECT_EQ(mshr.bankOf(128), 1u);
    EXPECT_EQ(mshr.bankOf(4 * 128), 0u);
}

TEST(MshrBanked, BankFullWhileTableHasRoom)
{
    MshrTable<int> mshr(8, 4, 4, 0, 128);
    // Fill bank 0's two entries (lines 0 and 4).
    EXPECT_EQ(mshr.allocate(0, 1), MshrOutcome::NewEntry);
    EXPECT_EQ(mshr.allocate(4 * 128, 2), MshrOutcome::NewEntry);
    EXPECT_EQ(mshr.bankInFlight(0), 2u);
    // Bank 0 is the conflict: table-wide there are 6 free entries.
    EXPECT_FALSE(mshr.canAllocate(8 * 128));
    EXPECT_LT(mshr.inFlight(), mshr.capacity());
    EXPECT_EQ(mshr.allocate(8 * 128, 3), MshrOutcome::FullEntries);
    // Other banks are unaffected...
    EXPECT_TRUE(mshr.canAllocate(128));
    EXPECT_EQ(mshr.allocate(128, 4), MshrOutcome::NewEntry);
    // ...and merges on bank 0 lines still work.
    EXPECT_EQ(mshr.allocate(0, 5), MshrOutcome::Merged);
    // Releasing frees the bank slot.
    mshr.release(0);
    EXPECT_TRUE(mshr.canAllocate(8 * 128));
}

TEST(MshrBanked, ExplicitBankBudgetsOverrideDefaults)
{
    // Per-bank budget above entries/banks: bank skew is allowed
    // until the whole table fills.
    MshrTable<int> mshr(4, 8, 2, 3, 128);
    EXPECT_EQ(mshr.bankCapacity(), 3u);
    EXPECT_EQ(mshr.allocate(0, 1), MshrOutcome::NewEntry);
    EXPECT_EQ(mshr.allocate(2 * 128, 2), MshrOutcome::NewEntry);
    EXPECT_EQ(mshr.allocate(4 * 128, 3), MshrOutcome::NewEntry);
    EXPECT_FALSE(mshr.canAllocate(6 * 128)); // bank 0 budget
}

TEST(MshrBanked, SingleBankMatchesFlatTable)
{
    MshrTable<int> banked(4, 2, 1, 0, 128);
    MshrTable<int> flat(4, 2);
    for (Addr line : {Addr{0}, Addr{128}, Addr{256}, Addr{384}}) {
        EXPECT_EQ(banked.canAllocate(line), flat.canAllocate(line));
        EXPECT_EQ(banked.allocate(line, 0), flat.allocate(line, 0));
    }
    // Both are now structurally full in the same way.
    EXPECT_EQ(banked.allocate(512, 0), MshrOutcome::FullEntries);
    EXPECT_EQ(flat.allocate(512, 0), MshrOutcome::FullEntries);
    EXPECT_EQ(banked.allocate(0, 0), MshrOutcome::Merged);
    EXPECT_EQ(flat.allocate(0, 0), MshrOutcome::Merged);
    EXPECT_EQ(banked.allocate(0, 0), MshrOutcome::FullMerges);
    EXPECT_EQ(flat.allocate(0, 0), MshrOutcome::FullMerges);
}

} // namespace
} // namespace gpulat
