/**
 * @file
 * Per-warp architectural and micro-architectural state: SIMT
 * reconvergence stack, register file slice, predicate file and
 * scoreboard bits.
 */

#ifndef GPULAT_SIMT_WARP_HH
#define GPULAT_SIMT_WARP_HH

#include <array>
#include <cstdint>
#include <vector>

#include "common/log.hh"
#include "common/types.hh"
#include "isa/isa.hh"

namespace gpulat {

/** Reconvergence pc meaning "paths only meet at exit". */
inline constexpr std::uint32_t kNoReconv = UINT32_MAX;

/** Maximum SIMT stack depth before we call the kernel malformed. */
inline constexpr std::size_t kMaxStackDepth = 64;

/** One SIMT stack entry. */
struct StackEntry
{
    std::uint32_t pc;
    std::uint32_t rpc;
    LaneMask mask;
};

/** Scheduling state of a warp. */
enum class WarpState : std::uint8_t {
    Invalid,   ///< slot unoccupied
    Ready,     ///< may issue
    AtBarrier, ///< waiting at a BAR
    Done,      ///< all lanes exited
};

class Warp
{
  public:
    Warp() = default;

    /**
     * (Re)initialize this slot for a fresh warp.
     *
     * @param warp_slot hardware slot index within the SM.
     * @param warp_in_block warp index within its thread block.
     * @param block_slot resident-block slot within the SM.
     * @param live initially live lanes (partial last warp).
     * @param num_regs architectural registers per thread.
     * @param dispatch_seq global age for GTO scheduling.
     */
    void init(unsigned warp_slot, unsigned warp_in_block,
              unsigned block_slot, LaneMask live, int num_regs,
              std::uint64_t dispatch_seq);

    /** @name Identity @{ */
    unsigned slot() const { return slot_; }
    unsigned warpInBlock() const { return warpInBlock_; }
    unsigned blockSlot() const { return blockSlot_; }
    std::uint64_t dispatchSeq() const { return dispatchSeq_; }
    /** @} */

    WarpState state() const { return state_; }
    void setState(WarpState s) { state_ = s; }

    /** Lanes that have not exited. */
    LaneMask live() const { return live_; }

    /** Current pc (top of stack), after lazy reconvergence pops. */
    std::uint32_t
    pc()
    {
        reconverge();
        return stack_.back().pc;
    }

    /** Lanes that execute the next instruction. */
    LaneMask
    activeMask()
    {
        reconverge();
        return stack_.back().mask & live_;
    }

    /** Advance the current entry's pc by one. */
    void
    advance()
    {
        reconverge();
        stack_.back().pc += 1;
    }

    /** Uniform jump of the current entry's active lanes. */
    void
    jump(std::uint32_t target)
    {
        reconverge();
        stack_.back().pc = target;
    }

    /**
     * Divergent branch: @p taken lanes go to @p target, the rest fall
     * through to pc+1, everyone meets at @p reconv.
     */
    void diverge(std::uint32_t target, std::uint32_t reconv,
                 LaneMask taken, LaneMask fall);

    /**
     * Retire @p lanes (EXIT). Removes them from the live mask and
     * every stack entry; pops exhausted entries.
     * @return true if the warp is now finished.
     */
    bool exitLanes(LaneMask lanes);

    /** Stack depth (tests/diagnostics). */
    std::size_t stackDepth() const { return stack_.size(); }

    /** @name Register file access
     * Register-major: the 32 lanes of one register are contiguous,
     * so an instruction's lane loop walks one 256-byte run. @{ */
    RegValue
    reg(unsigned lane, int r) const
    {
        return regs_[static_cast<unsigned>(r) * kWarpSize + lane];
    }

    void
    setReg(unsigned lane, int r, RegValue v)
    {
        regs_[static_cast<unsigned>(r) * kWarpSize + lane] = v;
    }

    bool
    predBit(unsigned lane, int p) const
    {
        return preds_[lane] >> p & 1;
    }

    void
    setPredBit(unsigned lane, int p, bool v)
    {
        if (v)
            preds_[lane] |= static_cast<std::uint8_t>(1u << p);
        else
            preds_[lane] &= static_cast<std::uint8_t>(~(1u << p));
    }
    /** @} */

    /** @name Scoreboard @{ */
    /** Pending registers (bit r = register r). */
    std::uint64_t pendingRegMask() const { return pendingRegs_; }
    /** Pending registers whose producer is a memory load. */
    std::uint64_t pendingMemRegMask() const { return pendingMemRegs_; }
    /** Pending predicates (bit p = predicate p). */
    std::uint8_t pendingPredMask() const { return pendingPreds_; }
    void
    markRegPending(int r, bool from_memory = false)
    {
        pendingRegs_ |= 1ull << r;
        if (from_memory)
            pendingMemRegs_ |= 1ull << r;
    }
    void
    clearRegPending(int r)
    {
        pendingRegs_ &= ~(1ull << r);
        pendingMemRegs_ &= ~(1ull << r);
    }
    void markPredPending(int p)
    {
        pendingPreds_ |= static_cast<std::uint8_t>(1u << p);
    }
    void clearPredPending(int p)
    {
        pendingPreds_ &= static_cast<std::uint8_t>(~(1u << p));
    }
    /** @} */

    /** Lanes of @p mask whose guard (pred, neg) evaluates true. */
    LaneMask guardMask(LaneMask mask, int pred, bool neg) const;

  private:
    /** Pop stack entries whose pc reached their reconvergence pc. */
    void reconverge();

    unsigned slot_ = 0;
    unsigned warpInBlock_ = 0;
    unsigned blockSlot_ = 0;
    std::uint64_t dispatchSeq_ = 0;
    WarpState state_ = WarpState::Invalid;

    LaneMask live_ = 0;
    std::vector<StackEntry> stack_;

    std::vector<RegValue> regs_;
    std::array<std::uint8_t, kWarpSize> preds_{};

    std::uint64_t pendingRegs_ = 0;
    std::uint64_t pendingMemRegs_ = 0;
    std::uint8_t pendingPreds_ = 0;
};

} // namespace gpulat

#endif // GPULAT_SIMT_WARP_HH
