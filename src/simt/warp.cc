#include "simt/warp.hh"

namespace gpulat {

void
Warp::init(unsigned warp_slot, unsigned warp_in_block,
           unsigned block_slot, LaneMask live, int num_regs,
           std::uint64_t dispatch_seq)
{
    slot_ = warp_slot;
    warpInBlock_ = warp_in_block;
    blockSlot_ = block_slot;
    dispatchSeq_ = dispatch_seq;
    state_ = WarpState::Ready;
    live_ = live;
    stack_.clear();
    stack_.push_back(StackEntry{0, kNoReconv, live});
    regs_.assign(static_cast<std::size_t>(kWarpSize) *
                 static_cast<std::size_t>(num_regs), 0);
    preds_.fill(0);
    pendingRegs_ = 0;
    pendingMemRegs_ = 0;
    pendingPreds_ = 0;
}

void
Warp::reconverge()
{
    while (stack_.size() > 1 &&
           stack_.back().pc == stack_.back().rpc) {
        stack_.pop_back();
    }
}

void
Warp::diverge(std::uint32_t target, std::uint32_t reconv,
              LaneMask taken, LaneMask fall)
{
    GPULAT_ASSERT((taken & fall) == 0, "taken/fall lanes overlap");
    GPULAT_ASSERT(taken != 0 && fall != 0,
                  "diverge() requires both paths populated");
    StackEntry &tos = stack_.back();
    const std::uint32_t fall_pc = tos.pc + 1;

    // The current entry becomes the reconvergence continuation.
    tos.pc = reconv;

    if (fall_pc != reconv)
        stack_.push_back(StackEntry{fall_pc, reconv, fall});
    if (target != reconv)
        stack_.push_back(StackEntry{target, reconv, taken});

    GPULAT_ASSERT(stack_.size() <= kMaxStackDepth,
                  "SIMT stack overflow (non-reconverging kernel?)");
}

bool
Warp::exitLanes(LaneMask lanes)
{
    live_ &= ~lanes;
    for (auto &entry : stack_)
        entry.mask &= ~lanes;
    while (stack_.size() > 1 && (stack_.back().mask & live_) == 0)
        stack_.pop_back();
    if (live_ == 0) {
        state_ = WarpState::Done;
        return true;
    }
    // If lanes remain, execution continues after the exit point.
    return false;
}

LaneMask
Warp::guardMask(LaneMask mask, int pred, bool neg) const
{
    if (pred == kNoReg)
        return mask;
    LaneMask out = 0;
    for (unsigned lane = 0; lane < kWarpSize; ++lane) {
        if (!(mask >> lane & 1))
            continue;
        if (predBit(lane, pred) != neg)
            out |= 1u << lane;
    }
    return out;
}

} // namespace gpulat
