/**
 * @file
 * Banked GDDR/DDR-style DRAM channel timing model.
 *
 * One channel per memory partition: a per-bank command state
 * machine (ACT/PRE/RD/WR/REF) with a shared data bus. Beyond the
 * row outcome (hit: CAS; conflict: PRE + ACT + CAS; closed bank:
 * ACT + CAS) it honors tRAS (activate -> precharge), tRRD_S/tRRD_L
 * (activate-to-activate across / within bank groups), tFAW (sliding
 * four-activate window per rank), tWTR/tRTW read-write bus
 * turnaround, configurable ranks, open- vs closed-page policy and
 * periodic refresh (tREFI/tRFC) that blocks the whole rank and
 * closes its rows. Refresh is applied lazily as a pure function of
 * the current cycle, so idle fast-forward can never skip over one.
 *
 * With every DdrTiming field at 0 (the default, `mem.dram.model=
 * simple`) the machine reduces exactly to the flat open-row check
 * calibrated against the paper's Table I: tREFI = 0 schedules no
 * refresh, and a zero spacing constraint can delay an activate only
 * to the rank's previous activate, whose data is already behind the
 * bus serialization the flat check applies anyway.
 *
 * All parameters are in DRAM-domain ("hot" at 1:1) clock cycles,
 * like every latency the paper reports.
 */

#ifndef GPULAT_MEM_DRAM_HH
#define GPULAT_MEM_DRAM_HH

#include <cstdint>
#include <deque>
#include <string>
#include <vector>

#include "common/stats.hh"
#include "common/types.hh"
#include "mem/dram_map.hh"

namespace gpulat {

/** Row-outcome timing parameters (core cycles). */
struct DramTiming
{
    Cycle tRCD = 40;  ///< activate -> column command
    Cycle tRP = 40;   ///< precharge
    Cycle tCAS = 40;  ///< column command -> first data
    Cycle tBurst = 8; ///< data transfer occupancy per request
    /** Fixed pad modelling command/clock-domain crossing overheads
     *  (lets a config match a measured end-to-end DRAM latency
     *  without distorting the relative bank timings). */
    Cycle tExtra = 0;
};

/**
 * Constraints on top of the row-outcome timing. The all-zero default
 * is the calibrated flat timing (`mem.dram.model=simple`); kDdrTiming
 * holds typical DDR values (`mem.dram.model=ddr`).
 */
struct DdrTiming
{
    Cycle tRAS = 0;  ///< activate -> precharge (row open minimum)
    Cycle tRRDS = 0; ///< activate -> activate, other bank group
    Cycle tRRDL = 0; ///< activate -> activate, same bank group
    Cycle tFAW = 0;  ///< window holding at most four activates
    Cycle tWTR = 0;  ///< write burst end -> read burst start
    Cycle tRTW = 0;  ///< read burst end -> write burst start
    Cycle tREFI = 0; ///< refresh command interval per rank (0 = none)
    Cycle tRFC = 0;  ///< refresh cycle time (rank blocked)

    bool operator==(const DdrTiming &) const = default;
};

inline constexpr DdrTiming kDdrTiming{.tRAS = 68,
                                      .tRRDS = 8,
                                      .tRRDL = 12,
                                      .tFAW = 40,
                                      .tWTR = 16,
                                      .tRTW = 12,
                                      .tREFI = 3900,
                                      .tRFC = 260};

/** Geometry + policy of one DRAM channel. */
struct DramParams
{
    DramAddrMap map = DramAddrMap::Row;
    DramPagePolicy page = DramPagePolicy::Open;
    DramTiming timing;
    DdrTiming ddr;
    unsigned banks = 8;      ///< banks per rank
    unsigned bankGroups = 4; ///< bank groups per rank
    unsigned ranks = 1;      ///< ranks sharing the channel bus
    /** Bytes per row per bank (row-buffer locality granularity). */
    std::uint64_t rowBytes = 2048;

    DramGeometry
    geometry() const
    {
        return DramGeometry{banks, bankGroups, ranks, rowBytes, map};
    }
};

/**
 * One DRAM channel: bank state + data-bus serialization. The
 * scheduler (mem/dram_sched.hh) picks a queued request; schedule()
 * resolves all timing constraints and returns its completion time.
 */
class DramChannel
{
  public:
    DramChannel(std::string name, const DramParams &params,
                StatRegistry *stats);

    /** Full coordinates of a line address (mapper output). The
     *  queries below take them, so a queued request is mapped once,
     *  when it enters the queue. */
    DramCoord coordOf(Addr line_addr) const;

    /** True if the request would hit the currently open row. */
    bool
    rowHit(const DramCoord &c) const
    {
        const Bank &bank = banks_[c.flatBank];
        return bank.rowOpen && bank.openRow == c.row;
    }

    /** True if the bank can accept a new command at @p now. A
     *  mid-refresh rank does not block here — schedule() clamps the
     *  command past the window and charges refresh_stall_cycles
     *  (blocking here would hide that wait inside generic queue
     *  time, and cost extra scheduler retries). */
    bool
    bankReady(const DramCoord &c, Cycle now) const
    {
        return banks_[c.flatBank].readyAt <= now;
    }

    /**
     * Issue the request at @p c to its bank at cycle @p now (the
     * scheduler has selected it). Updates bank/bus state.
     * @return the cycle at which the data burst completes.
     */
    Cycle schedule(const DramCoord &c, bool is_write, Cycle now);

    const DramParams &params() const { return params_; }

    /** Refresh stall cycles charged so far. */
    std::uint64_t refreshStallCycles() const;


  private:
    struct Bank
    {
        bool rowOpen = false;
        std::uint64_t openRow = 0;
        Cycle readyAt = 0; ///< earliest next command
        Cycle actAt = 0;   ///< last ACT issue time (tRAS anchor)
        bool actValid = false;
    };

    /** Per-rank bookkeeping (refresh + activate windows). */
    struct Rank
    {
        /** Refresh epochs already applied (rows closed, stall
         *  window recorded); epoch k occupies
         *  [k*tREFI, k*tREFI + tRFC). */
        std::uint64_t refreshEpochs = 0;
        Cycle refreshBusyUntil = 0;
        /** Issue times of the most recent activates (tFAW window,
         *  at most 4 entries kept). */
        std::deque<Cycle> actWindow;
        Cycle lastActAt = 0;
        bool lastActValid = false;
        /** Last activate per bank group (tRRD_L). */
        std::vector<Cycle> groupActAt;
        std::vector<bool> groupActValid;
    };

    /** Apply all refresh epochs that started by @p now to @p rank:
     *  close its rows and extend its busy window. */
    void catchUpRefresh(unsigned rank, Cycle now);

    /** Classify the access against the bank's row state and bump
     *  the aggregate + rd/wr (+ per-bank-group) counters. */
    enum class RowOutcome : std::uint8_t { Hit, Conflict, Closed };
    RowOutcome classify(const Bank &bank, const DramCoord &c,
                        bool is_write);

    std::string name_;
    DramParams params_;
    std::vector<Bank> banks_;  ///< ranks * banks entries
    std::vector<Rank> ranks_;
    Cycle busFreeAt_ = 0;
    Cycle lastReadEnd_ = 0;
    bool lastReadValid_ = false;
    Cycle lastWriteEnd_ = 0;
    bool lastWriteValid_ = false;

    Counter *rowHits_;
    Counter *rowMisses_;
    Counter *rowClosed_;
    /** Read/write split of the same three outcomes. */
    Counter *rdOutcome_[3];
    Counter *wrOutcome_[3];
    /** Per-bank-group outcome counters (only with tRRDL > 0, the
     *  timing that tells bank groups apart). */
    std::vector<Counter *> bgOutcome_[3];
    /** Refresh counters (only with tREFI > 0). */
    Counter *refreshes_ = nullptr;
    Counter *refreshStall_ = nullptr;
};

} // namespace gpulat

#endif // GPULAT_MEM_DRAM_HH
