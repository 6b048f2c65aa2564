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
 */

#ifndef GPULAT_CACHE_MSHR_HH
#define GPULAT_CACHE_MSHR_HH

#include <cstddef>
#include <cstdint>
#include <unordered_map>
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

} // namespace gpulat

#endif // GPULAT_CACHE_MSHR_HH
