/**
 * @file
 * Miss Status Holding Register table with a banked front-end.
 *
 * Tracks outstanding misses per cache line and merges secondary
 * misses onto the primary so only one downstream request is in
 * flight per line. Generic over the payload attached to each miss
 * (the L1 attaches load-instruction tokens, the L2 attaches whole
 * requests awaiting DRAM).
 *
 * The table can be split into banks (esesc's HierMSHR style): each
 * line hashes to one bank, and a primary miss needs a free entry in
 * *that* bank, not just anywhere — so hot address regions create
 * structural stalls even while the table has global headroom. The
 * default single-bank shape with a whole-table entry budget behaves
 * exactly like the original flat table.
 *
 * Storage is a flat slot table: the in-flight lines sit packed at
 * the front, each with its payload vector. A released slot keeps its
 * vector's capacity for the next allocation, and the table grows to
 * the in-flight high-water mark, never to the configured entry
 * count (which may be 2^32-1), so a warm table allocates nothing.
 */

#ifndef GPULAT_CACHE_MSHR_HH
#define GPULAT_CACHE_MSHR_HH

#include <cstddef>
#include <cstdint>
#include <utility>
#include <vector>

#include "common/log.hh"
#include "common/types.hh"

namespace gpulat {

/** Outcome of trying to register a miss. */
enum class MshrOutcome : std::uint8_t {
    NewEntry,   ///< first miss on this line: send a request downstream
    Merged,     ///< merged onto an in-flight miss: no new request
    FullEntries,///< structural stall: no free MSHR entry
    FullMerges, ///< structural stall: merge capacity exhausted
};

template <typename Payload>
class MshrTable
{
  public:
    /**
     * @param entries distinct lines trackable at once (whole table).
     * @param max_merge max payloads (incl. primary) per line.
     * @param banks line-hash banks the entry budget is split over.
     * @param bank_entries per-bank entry budget (0: entries/banks).
     * @param line_bytes line size feeding the line -> bank hash.
     */
    MshrTable(std::size_t entries, std::size_t max_merge,
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
        return inFlight_ < entries_ &&
               bankInFlight_[bankOf(line)] < bankEntries_;
    }

    /** Try to record a miss on @p line carrying @p payload. */
    MshrOutcome
    allocate(Addr line, Payload payload)
    {
        const std::size_t i = find(line);
        if (i != inFlight_) {
            if (payloads_[i].size() >= maxMerge_)
                return MshrOutcome::FullMerges;
            payloads_[i].push_back(std::move(payload));
            return MshrOutcome::Merged;
        }
        if (!canAllocate(line))
            return MshrOutcome::FullEntries;
        if (inFlight_ == lines_.size()) {
            lines_.emplace_back();
            payloads_.emplace_back();
        }
        lines_[inFlight_] = line;
        payloads_[inFlight_].push_back(std::move(payload));
        ++inFlight_;
        ++bankInFlight_[bankOf(line)];
        return MshrOutcome::NewEntry;
    }

    /** True if a miss on @p line is already in flight. */
    bool pending(Addr line) const { return find(line) != inFlight_; }

    /** Number of payloads parked on @p line (0 if none). */
    std::size_t
    peekCount(Addr line) const
    {
        const std::size_t i = find(line);
        return i == inFlight_ ? 0 : payloads_[i].size();
    }

    /**
     * The downstream fill for @p line arrived: release the entry and
     * return all merged payloads (primary first). The payloads stay
     * valid, and may be moved from, until the next release().
     */
    std::vector<Payload> &
    release(Addr line)
    {
        const std::size_t i = find(line);
        GPULAT_ASSERT(i != inFlight_, "MSHR release of untracked line");
        // Hand the entry's vector out and park the previous release's
        // storage in the freed slot, which the last live slot fills.
        released_.swap(payloads_[i]);
        payloads_[i].clear();
        --inFlight_;
        std::swap(lines_[i], lines_[inFlight_]);
        std::swap(payloads_[i], payloads_[inFlight_]);
        --bankInFlight_[bankOf(line)];
        return released_;
    }

    std::size_t inFlight() const { return inFlight_; }
    bool empty() const { return inFlight_ == 0; }
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
    /** Slot holding @p line, or inFlight_ if none does. */
    std::size_t
    find(Addr line) const
    {
        std::size_t i = 0;
        while (i < inFlight_ && lines_[i] != line)
            ++i;
        return i;
    }

    std::size_t entries_;
    std::size_t maxMerge_;
    unsigned banks_;
    std::size_t bankEntries_;
    std::uint32_t lineBytes_;
    std::vector<std::size_t> bankInFlight_;
    /** Slots [0, inFlight_) are live: a line and its payloads,
     *  primary first. */
    std::vector<Addr> lines_;
    std::vector<std::vector<Payload>> payloads_;
    std::size_t inFlight_ = 0;
    /** The last release()'s payloads. */
    std::vector<Payload> released_;
};

} // namespace gpulat

#endif // GPULAT_CACHE_MSHR_HH
