/**
 * @file
 * Direct unit tests for the MSHR table: outcome paths, release
 * ordering, the banked front-end, and a property test against the
 * hash-map table it replaced.
 */

#include <string>
#include <unordered_map>
#include <vector>

#include <gtest/gtest.h>

#include "cache/mshr.hh"
#include "common/random.hh"

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

/**
 * MshrTable before its flat slot table: lines in a hash map. The
 * class is kept verbatim apart from its name; the property test
 * below drives both.
 */
template <typename Payload>
class ReferenceMshrTable
{
  public:
    /**
     * @param entries distinct lines trackable at once (whole table).
     * @param max_merge max payloads (incl. primary) per line.
     * @param banks line-hash banks the entry budget is split over.
     * @param bank_entries per-bank entry budget (0: entries/banks).
     * @param line_bytes line size feeding the line -> bank hash.
     */
    ReferenceMshrTable(std::size_t entries, std::size_t max_merge,
              unsigned banks = 1, std::size_t bank_entries = 0,
              std::uint32_t line_bytes = 1)
        : entries_(entries),
          maxMerge_(max_merge),
          banks_(banks),
          bankEntries_(bank_entries),
          lineBytes_(line_bytes),
          bankInFlight_(banks, 0)
    {
        GPULAT_ASSERT(entries > 0 && max_merge > 0 && banks > 0 &&
                          line_bytes > 0,
                      "bad MSHR shape");
        if (bankEntries_ == 0)
            bankEntries_ = entries / banks;
        GPULAT_ASSERT(bankEntries_ > 0, "MSHR banks (", banks_,
                      ") leave no entries per bank");
    }

    /** Bank the line hashes to. */
    unsigned
    bankOf(Addr line) const
    {
        return static_cast<unsigned>((line / lineBytes_) % banks_);
    }

    /**
     * True if a *primary* miss on @p line could allocate right now:
     * a free entry in the line's bank and in the whole table. With
     * one bank this is exactly the flat inFlight() < capacity()
     * check. (Merges are governed by allocate() itself.)
     */
    bool
    canAllocate(Addr line) const
    {
        return table_.size() < entries_ &&
               bankInFlight_[bankOf(line)] < bankEntries_;
    }

    /** Try to record a miss on @p line carrying @p payload. */
    MshrOutcome
    allocate(Addr line, Payload payload)
    {
        auto it = table_.find(line);
        if (it != table_.end()) {
            if (it->second.size() >= maxMerge_)
                return MshrOutcome::FullMerges;
            it->second.push_back(std::move(payload));
            return MshrOutcome::Merged;
        }
        if (!canAllocate(line))
            return MshrOutcome::FullEntries;
        table_[line].push_back(std::move(payload));
        ++bankInFlight_[bankOf(line)];
        return MshrOutcome::NewEntry;
    }

    /** True if a miss on @p line is already in flight. */
    bool pending(Addr line) const { return table_.count(line) != 0; }

    /** Number of payloads parked on @p line (0 if none). */
    std::size_t
    peekCount(Addr line) const
    {
        auto it = table_.find(line);
        return it == table_.end() ? 0 : it->second.size();
    }

    /**
     * The downstream fill for @p line arrived: release the entry and
     * return all merged payloads (primary first).
     */
    std::vector<Payload>
    release(Addr line)
    {
        auto it = table_.find(line);
        GPULAT_ASSERT(it != table_.end(),
                      "MSHR release of untracked line");
        std::vector<Payload> payloads = std::move(it->second);
        table_.erase(it);
        --bankInFlight_[bankOf(line)];
        return payloads;
    }

    std::size_t inFlight() const { return table_.size(); }
    bool empty() const { return table_.empty(); }
    std::size_t capacity() const { return entries_; }
    unsigned banks() const { return banks_; }
    std::size_t bankCapacity() const { return bankEntries_; }

    /** Lines in flight in one bank. */
    std::size_t
    bankInFlight(unsigned bank) const
    {
        return bankInFlight_[bank];
    }

  private:
    std::size_t entries_;
    std::size_t maxMerge_;
    unsigned banks_;
    std::size_t bankEntries_;
    std::uint32_t lineBytes_;
    std::vector<std::size_t> bankInFlight_;
    std::unordered_map<Addr, std::vector<Payload>> table_;
};

/** Property: over seeded allocate/release traffic on a small set of
 *  hot lines, the slot table gives every outcome, count and release
 *  the hash map gave, for flat and banked shapes, tight merge limits,
 *  tables that run full and a 2^32-1 budget that must not be
 *  allocated up front. Payloads live on the heap and are moved out
 *  of each release, as the partition does, so a slot that reuses
 *  storage it no longer owns shows as a wrong payload. */
TEST(MshrProperty, MatchesHashMapReference)
{
    struct Shape
    {
        std::size_t entries, maxMerge;
        unsigned banks;
        std::size_t bankEntries;
    };
    constexpr std::uint32_t kLine = 128;
    for (const Shape shape :
         {Shape{1, 1, 1, 0}, Shape{4, 3, 1, 0}, Shape{2, 8, 1, 0},
          Shape{8, 4, 4, 0}, Shape{4, 8, 2, 3}, Shape{16, 2, 8, 1},
          Shape{6, 5, 3, 0}, Shape{32, 8, 1, 0},
          Shape{4294967295u, 4294967295u, 1, 0}}) {
        const std::string where = std::to_string(shape.entries) +
            " entries, merge " + std::to_string(shape.maxMerge) +
            ", " + std::to_string(shape.banks) + " banks of " +
            std::to_string(shape.bankEntries);
        MshrTable<std::string> table(shape.entries, shape.maxMerge,
                                     shape.banks, shape.bankEntries,
                                     kLine);
        ReferenceMshrTable<std::string> ref(shape.entries,
                                            shape.maxMerge, shape.banks,
                                            shape.bankEntries, kLine);
        ASSERT_EQ(table.bankCapacity(), ref.bankCapacity()) << where;
        Rng rng(shape.entries * 7 + shape.maxMerge * 3 + shape.banks);
        // More lines than entries, so primaries hit full tables and
        // full banks; few enough that merges are common.
        const std::uint64_t lines = 2 * std::min<std::size_t>(
            shape.entries, 24) + 3;
        std::vector<Addr> tracked;
        int id = 0;
        for (int step = 0; step < 20000; ++step) {
            const Addr line = rng.below(lines) * kLine;
            ASSERT_EQ(table.pending(line), ref.pending(line)) << where;
            ASSERT_EQ(table.peekCount(line), ref.peekCount(line))
                << where;
            ASSERT_EQ(table.canAllocate(line), ref.canAllocate(line))
                << where;
            if (tracked.empty() || rng.below(5) < 3) {
                const std::string payload =
                    "payload-" + std::to_string(id++) +
                    std::string(24, 'x');
                const MshrOutcome got = table.allocate(line, payload);
                ASSERT_EQ(got, ref.allocate(line, payload)) << where;
                if (got == MshrOutcome::NewEntry)
                    tracked.push_back(line);
            } else {
                const std::size_t i = rng.below(tracked.size());
                const Addr done = tracked[i];
                tracked[i] = tracked.back();
                tracked.pop_back();
                const std::vector<std::string> expect = ref.release(done);
                std::vector<std::string> got;
                for (std::string &p : table.release(done))
                    got.push_back(std::move(p));
                ASSERT_EQ(got, expect) << where;
                if (rng.below(32) == 0) {
                    ASSERT_THROW(table.release(done), PanicError)
                        << where;
                }
            }
            ASSERT_EQ(table.inFlight(), ref.inFlight()) << where;
            ASSERT_EQ(table.empty(), ref.empty()) << where;
            for (unsigned b = 0; b < shape.banks; ++b)
                ASSERT_EQ(table.bankInFlight(b), ref.bankInFlight(b))
                    << where << " bank " << b;
        }
    }
}

} // namespace
} // namespace gpulat
