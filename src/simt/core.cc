#include "simt/core.hh"

#include <algorithm>
#include <bit>
#include <cassert>
#include <cstring>
#include <limits>
#include <sstream>

#include "common/log.hh"

namespace gpulat {

namespace {

double
asDouble(RegValue v)
{
    return std::bit_cast<double>(v);
}

RegValue
fromDouble(double d)
{
    return std::bit_cast<RegValue>(d);
}

std::int64_t
asInt(RegValue v)
{
    return static_cast<std::int64_t>(v);
}

/** Heap order of SmCore::regWheel_: the earliest writeback on top. */
constexpr auto kLaterWb = [](const auto &a, const auto &b) {
    return a.at > b.at;
};

} // namespace

SmCore::SmCore(const SmParams &params, DeviceMemory *dmem,
               StatRegistry *stats, LatencyCollector *lat_collector,
               ExposureCollector *exp_collector,
               Crossbar<MemRequest> *req_net,
               std::function<unsigned(Addr)> partition_of)
    : params_(params),
      dmem_(dmem),
      stats_(stats),
      latCollector_(lat_collector),
      expCollector_(exp_collector),
      reqNet_(req_net),
      partitionOf_(std::move(partition_of)),
      l1Mshr_(params.l1MshrEntries, params.l1MshrMaxMerge),
      lsuQueue_(params.lsuQueueSize, params.smBaseLatency),
      missQueue_(params.l1MissQueueSize, params.l1MissLatency),
      hitQueue_(std::numeric_limits<std::size_t>::max(),
                params.l1HitLatency)
{
    GPULAT_ASSERT(dmem_ && stats_, "SM needs memory and stats");
    GPULAT_ASSERT(params_.numSchedulers > 0, "SM needs a scheduler");
    if (latCollector_)
        latShard_ = &latCollector_->shard(params_.smId);
    if (expCollector_)
        expShard_ = &expCollector_->shard(params_.smId);

    warps_.resize(params_.warpSlots);
    freeWarpSlots_ = params_.warpSlots;
    blocks_.resize(params_.maxBlocksPerSm);

    const std::string prefix = "sm" + std::to_string(params_.smId);
    if (params_.l1Enabled) {
        l1_ = std::make_unique<Cache>(prefix + ".l1", params_.l1Cache,
                                      WritePolicy::WriteThrough, stats_);
    }

    for (unsigned s = 0; s < params_.numSchedulers; ++s) {
        std::vector<unsigned> slots;
        for (unsigned w = s; w < params_.warpSlots;
             w += params_.numSchedulers)
            slots.push_back(w);
        schedulers_.emplace_back(params_.schedPolicy, std::move(slots));
    }

    issued_ = &stats_->counter(prefix + ".issued");
    memInstrs_ = &stats_->counter(prefix + ".mem_instrs");
    idleStat_ = &stats_->counter(prefix + ".idle_cycles");
    activeStat_ = &stats_->counter(prefix + ".active_cycles");
    loadsCompleted_ = &stats_->counter(prefix + ".loads_completed");
    idleMemStat_ = &stats_->counter(prefix + ".idle_on_memory");
    idleAluStat_ = &stats_->counter(prefix + ".idle_on_alu");
    idleLsuStat_ = &stats_->counter(prefix + ".idle_on_lsu");
    idleBarrierStat_ = &stats_->counter(prefix + ".idle_on_barrier");
}

void
SmCore::startLaunch(const LaunchContext *ctx)
{
    GPULAT_ASSERT(residentWarps_ == 0, "launch while SM busy");
    GPULAT_ASSERT(ctx && ctx->kernel, "launch without a kernel");
    ctx_ = ctx;
    // Decode each pc's scoreboard footprint once, so canIssue() and
    // idleCauseCounter() test bits instead of operand fields.
    auto bit = [](int r) { return r == kNoReg ? 0ull : 1ull << r; };
    deps_.clear();
    for (const Instruction &inst : ctx->kernel->code) {
        IssueDeps d;
        for (const int r : inst.registers())
            d.regs |= bit(r);
        d.guard = static_cast<std::uint8_t>(bit(inst.pred));
        if (inst.op == Opcode::SETP)
            d.predDst = static_cast<std::uint8_t>(bit(inst.predDst));
        d.lsu = inst.isMemory() && inst.space != MemSpace::Shared;
        deps_.push_back(d);
    }
    // Binding a context is a delivery that leaves no queue entry
    // behind: raise the woke flag so the promise reads "active
    // now" until the next tick observes it. (Not issuedLastTick_:
    // that would poison the lazy idle-window flush when a serving
    // scheduler starts a launch mid-run on a sleeping SM.)
    wokeSinceTick_ = true;
}

bool
SmCore::l1Caches(MemSpace space) const
{
    if (!params_.l1Enabled)
        return false;
    switch (space) {
      case MemSpace::Global: return params_.l1CachesGlobal;
      case MemSpace::Local: return params_.l1CachesLocal;
      case MemSpace::Shared: return false;
    }
    return false;
}

bool
SmCore::canAcceptBlock() const
{
    GPULAT_ASSERT(ctx_ && ctx_->kernel, "no launch bound");
    if (residentBlocks_ >= params_.maxBlocksPerSm)
        return false;
    const unsigned warps_needed =
        (ctx_->threadsPerBlock + kWarpSize - 1) / kWarpSize;
    assert(freeWarpSlots_ ==
           static_cast<unsigned>(std::count_if(
               warps_.begin(), warps_.end(), [](const Warp &w) {
                   return w.state() == WarpState::Invalid;
               })));
    if (freeWarpSlots_ < warps_needed)
        return false;
    const unsigned regs_needed = warps_needed * kWarpSize *
        static_cast<unsigned>(ctx_->kernel->numRegs);
    if (regsUsed_ + regs_needed > params_.regsPerSm)
        return false;
    if (smemUsed_ + ctx_->kernel->sharedBytes > params_.smemPerSm)
        return false;
    return true;
}

void
SmCore::dispatchBlock(unsigned block_id)
{
    GPULAT_ASSERT(canAcceptBlock(), "dispatch without room");
    wokeSinceTick_ = true;

    unsigned block_slot = 0;
    while (blocks_[block_slot].valid)
        ++block_slot;

    ResidentBlock &block = blocks_[block_slot];
    block.valid = true;
    block.blockId = block_id;
    block.warpsDone = 0;
    block.warpsAtBarrier = 0;
    block.warpSlots.clear();
    block.sharedMem.assign(ctx_->kernel->sharedBytes, 0);

    const unsigned tpb = ctx_->threadsPerBlock;
    const unsigned warps_needed = (tpb + kWarpSize - 1) / kWarpSize;
    block.numWarps = warps_needed;

    unsigned next_slot = 0;
    for (unsigned w = 0; w < warps_needed; ++w) {
        while (warps_[next_slot].state() != WarpState::Invalid)
            ++next_slot;
        const unsigned lanes_left = tpb - w * kWarpSize;
        const LaneMask live = lanes_left >= kWarpSize
            ? kFullMask
            : (1u << lanes_left) - 1;
        warps_[next_slot].init(next_slot, w, block_slot, live,
                               ctx_->kernel->numRegs, dispatchSeq_++);
        block.warpSlots.push_back(next_slot);
        ++next_slot;
        ++residentWarps_;
    }

    freeWarpSlots_ -= warps_needed;
    regsUsed_ += warps_needed * kWarpSize *
        static_cast<unsigned>(ctx_->kernel->numRegs);
    smemUsed_ += ctx_->kernel->sharedBytes;
    ++residentBlocks_;
}

std::uint64_t
SmCore::globalThreadId(const Warp &warp, unsigned lane) const
{
    const ResidentBlock &block = blocks_[warp.blockSlot()];
    return static_cast<std::uint64_t>(block.blockId) *
               ctx_->threadsPerBlock +
           warp.warpInBlock() * kWarpSize + lane;
}

Addr
SmCore::localPhys(Addr offset, std::uint64_t gtid) const
{
    if (outOfRange(offset, 8, ctx_->localBytesPerThread))
        fatal("local memory access at offset ", offset,
              " exceeds per-thread allocation of ",
              ctx_->localBytesPerThread);
    // Word-interleaved so that lanes accessing the same local offset
    // produce consecutive physical addresses (hardware does this so
    // local traffic coalesces).
    const std::uint64_t word = offset / 8;
    return ctx_->localBase +
           (word * ctx_->totalThreads + gtid) * 8;
}

RegValue
SmCore::operandB(const Warp &warp, const Instruction &inst,
                 unsigned lane) const
{
    return inst.useImm ? static_cast<RegValue>(inst.imm)
                       : warp.reg(lane, inst.srcB);
}

void
SmCore::scheduleRegWb(Cycle at, const Warp &warp, int reg,
                      bool is_pred)
{
    regWheel_.push_back(
        RegWb{at, warp.dispatchSeq(), warp.slot(), reg, is_pred});
    std::push_heap(regWheel_.begin(), regWheel_.end(), kLaterWb);
}

Warp *
SmCore::issuer(unsigned slot, std::uint64_t seq)
{
    Warp &warp = warps_[slot];
    return warp.dispatchSeq() == seq ? &warp : nullptr;
}

LoadToken
SmCore::allocToken(const Warp &warp, int dest, unsigned txns,
                   Cycle now)
{
    LoadToken token;
    if (!freeTokens_.empty()) {
        token = freeTokens_.back();
        freeTokens_.pop_back();
    } else {
        token = static_cast<LoadToken>(inflight_.size());
        inflight_.emplace_back();
    }
    InflightLoad &load = inflight_[static_cast<std::size_t>(token)];
    load.valid = true;
    load.warpSlot = warp.slot();
    load.warpSeq = warp.dispatchSeq();
    load.destReg = dest;
    load.pendingTxns = txns;
    load.issueCycle = now;
    load.idleAtIssue = idleCum_;
    ++inflightCount_;
    return token;
}

bool
SmCore::completeLoadTxn(LoadToken token, Cycle now)
{
    GPULAT_ASSERT(token != kNoToken, "completing an untracked load");
    InflightLoad &load = inflight_[static_cast<std::size_t>(token)];
    GPULAT_ASSERT(load.valid && load.pendingTxns > 0,
                  "double completion of load token");
    if (--load.pendingTxns > 0)
        return false;

    if (Warp *warp = issuer(load.warpSlot, load.warpSeq))
        warp->clearRegPending(load.destReg);
    loadsCompleted_->inc();
    if (expShard_) {
        const Cycle total = now - load.issueCycle;
        const Cycle exposed =
            static_cast<Cycle>(idleCum_ - load.idleAtIssue);
        expShard_->record({total, std::min(exposed, total)});
    }
    load.valid = false;
    freeTokens_.push_back(token);
    --inflightCount_;
    return true;
}

void
SmCore::finishWarp(Warp &warp)
{
    ResidentBlock &block = blocks_[warp.blockSlot()];
    ++block.warpsDone;
    --residentWarps_;
    releaseBarrierIfReady(block);
    if (block.warpsDone == block.numWarps) {
        regsUsed_ -= block.numWarps * kWarpSize *
            static_cast<unsigned>(ctx_->kernel->numRegs);
        smemUsed_ -= ctx_->kernel->sharedBytes;
        block.valid = false;
        --residentBlocks_;
        for (unsigned slot : block.warpSlots)
            warps_[slot].setState(WarpState::Invalid);
        freeWarpSlots_ += block.numWarps;
    }
}

void
SmCore::releaseBarrierIfReady(ResidentBlock &block)
{
    if (block.warpsAtBarrier == 0)
        return;
    if (block.warpsAtBarrier + block.warpsDone < block.numWarps)
        return;
    for (unsigned slot : block.warpSlots) {
        if (warps_[slot].state() == WarpState::AtBarrier)
            warps_[slot].setState(WarpState::Ready);
    }
    block.warpsAtBarrier = 0;
}

void
SmCore::execBarrier(Warp &warp)
{
    warp.advance();
    warp.setState(WarpState::AtBarrier);
    ResidentBlock &block = blocks_[warp.blockSlot()];
    ++block.warpsAtBarrier;
    releaseBarrierIfReady(block);
}

void
SmCore::execBranch(Warp &warp, const Instruction &inst,
                   LaneMask active, LaneMask guard)
{
    if (inst.pred == kNoReg) {
        warp.jump(inst.target);
        return;
    }
    const LaneMask taken = guard;
    const LaneMask fall = active & ~guard;
    if (taken == 0) {
        warp.advance();
    } else if (fall == 0) {
        warp.jump(inst.target);
    } else {
        warp.diverge(inst.target, inst.reconv, taken, fall);
    }
}

void
SmCore::execExit(Warp &warp, LaneMask active, LaneMask guard)
{
    if (guard == 0) {
        warp.advance();
        return;
    }
    const bool tos_survives = (active & ~guard) != 0;
    const bool done = warp.exitLanes(guard);
    if (done) {
        finishWarp(warp);
    } else if (tos_survives) {
        warp.advance();
    }
}

void
SmCore::execAlu(Warp &warp, const Instruction &inst, LaneMask guard,
                Cycle now)
{
    Cycle latency = inst.isFloat() ? params_.fpLatency
                                   : params_.aluLatency;

    // The opcode is decoded once; each case then walks the guarded
    // lanes in ascending order.
    auto each_lane = [guard](auto &&body) {
        for (LaneMask m = guard; m != 0; m &= m - 1)
            body(static_cast<unsigned>(std::countr_zero(m)));
    };
    auto write = [&](auto &&value_of_lane) {
        each_lane([&](unsigned lane) {
            warp.setReg(lane, inst.dst, value_of_lane(lane));
        });
    };
    auto binary = [&](auto &&op) {
        write([&](unsigned lane) {
            return op(warp.reg(lane, inst.srcA),
                      operandB(warp, inst, lane));
        });
    };
    auto binary_f = [&](auto &&op) {
        binary([&](RegValue a, RegValue b) {
            return fromDouble(op(asDouble(a), asDouble(b)));
        });
    };
    auto uniform = [&](RegValue v) {
        write([v](unsigned) { return v; });
    };
    auto setp = [&](auto &&cmp) {
        each_lane([&](unsigned lane) {
            warp.setPredBit(lane, inst.predDst,
                            cmp(asInt(warp.reg(lane, inst.srcA)),
                                asInt(operandB(warp, inst, lane))));
        });
    };

    switch (inst.op) {
      case Opcode::MOV:
        if (inst.param != kNoReg)
            uniform(ctx_->params[static_cast<std::size_t>(inst.param)]);
        else
            write([&](unsigned lane) {
                return operandB(warp, inst, lane);
            });
        break;
      case Opcode::S2R:
        switch (inst.sreg) {
          case SpecialReg::Tid:
            write([&](unsigned lane) {
                return RegValue{warp.warpInBlock() * kWarpSize + lane};
            });
            break;
          case SpecialReg::Ctaid:
            uniform(blocks_[warp.blockSlot()].blockId);
            break;
          case SpecialReg::Ntid:
            uniform(ctx_->threadsPerBlock);
            break;
          case SpecialReg::Nctaid:
            uniform(ctx_->numBlocks);
            break;
          case SpecialReg::LaneId:
            write([](unsigned lane) { return RegValue{lane}; });
            break;
          case SpecialReg::WarpId:
            uniform(warp.warpInBlock());
            break;
          case SpecialReg::SmId:
            uniform(params_.smId);
            break;
        }
        break;
      case Opcode::CLOCK:
        uniform(now);
        break;
      case Opcode::IADD:
        binary([](RegValue a, RegValue b) { return a + b; });
        break;
      case Opcode::ISUB:
        binary([](RegValue a, RegValue b) { return a - b; });
        break;
      case Opcode::IMUL:
        binary([](RegValue a, RegValue b) { return a * b; });
        break;
      case Opcode::IMAD:
        write([&](unsigned lane) {
            return warp.reg(lane, inst.srcA) * warp.reg(lane, inst.srcB) +
                   warp.reg(lane, inst.srcC);
        });
        break;
      case Opcode::SHL:
        binary([](RegValue a, RegValue b) { return a << (b & 63); });
        break;
      case Opcode::SHR:
        binary([](RegValue a, RegValue b) { return a >> (b & 63); });
        break;
      case Opcode::AND:
        binary([](RegValue a, RegValue b) { return a & b; });
        break;
      case Opcode::OR:
        binary([](RegValue a, RegValue b) { return a | b; });
        break;
      case Opcode::XOR:
        binary([](RegValue a, RegValue b) { return a ^ b; });
        break;
      case Opcode::IMIN:
        binary([](RegValue a, RegValue b) {
            return static_cast<RegValue>(std::min(asInt(a), asInt(b)));
        });
        break;
      case Opcode::IMAX:
        binary([](RegValue a, RegValue b) {
            return static_cast<RegValue>(std::max(asInt(a), asInt(b)));
        });
        break;
      case Opcode::FADD:
        binary_f([](double a, double b) { return a + b; });
        break;
      case Opcode::FMUL:
        binary_f([](double a, double b) { return a * b; });
        break;
      case Opcode::FFMA:
        write([&](unsigned lane) {
            return fromDouble(asDouble(warp.reg(lane, inst.srcA)) *
                                  asDouble(warp.reg(lane, inst.srcB)) +
                              asDouble(warp.reg(lane, inst.srcC)));
        });
        break;
      case Opcode::I2F:
        write([&](unsigned lane) {
            return fromDouble(
                static_cast<double>(asInt(warp.reg(lane, inst.srcA))));
        });
        break;
      case Opcode::F2I:
        write([&](unsigned lane) {
            return static_cast<RegValue>(static_cast<std::int64_t>(
                asDouble(warp.reg(lane, inst.srcA))));
        });
        break;
      case Opcode::SETP:
        switch (inst.cmp) {
          case CmpOp::EQ: setp(std::equal_to<>{}); break;
          case CmpOp::NE: setp(std::not_equal_to<>{}); break;
          case CmpOp::LT: setp(std::less<>{}); break;
          case CmpOp::LE: setp(std::less_equal<>{}); break;
          case CmpOp::GT: setp(std::greater<>{}); break;
          case CmpOp::GE: setp(std::greater_equal<>{}); break;
        }
        break;
      default:
        panic("execAlu on non-ALU opcode ", opcodeInfo(inst.op).mnemonic);
    }

    if (inst.op == Opcode::SETP) {
        warp.markPredPending(inst.predDst);
        scheduleRegWb(now + latency, warp, inst.predDst, true);
    } else if (inst.dst != kNoReg) {
        warp.markRegPending(inst.dst);
        scheduleRegWb(now + latency, warp, inst.dst, false);
    }
    warp.advance();
}

void
SmCore::execSharedMem(Warp &warp, const Instruction &inst,
                      LaneMask guard, Cycle now)
{
    ResidentBlock &block = blocks_[warp.blockSlot()];
    std::array<Addr, kWarpSize> addrs{};
    for (unsigned lane = 0; lane < kWarpSize; ++lane) {
        if (!(guard >> lane & 1))
            continue;
        const Addr addr = warp.reg(lane, inst.srcA) +
                          static_cast<Addr>(inst.imm);
        if (outOfRange(addr, 8, block.sharedMem.size()))
            fatal("shared memory access at ", addr, " exceeds ",
                  block.sharedMem.size(), " bytes");
        addrs[lane] = addr;
    }

    const unsigned degree =
        bankConflictDegree(addrs, guard, params_.smemBanks);
    const Cycle latency = params_.smemLatency +
        (degree > 1 ? (degree - 1) * params_.smemConflictPenalty : 0);

    if (inst.isLoad()) {
        for (unsigned lane = 0; lane < kWarpSize; ++lane) {
            if (!(guard >> lane & 1))
                continue;
            std::uint64_t v;
            std::memcpy(&v, &block.sharedMem[addrs[lane]], 8);
            warp.setReg(lane, inst.dst, v);
        }
        warp.markRegPending(inst.dst);
        scheduleRegWb(now + latency, warp, inst.dst, false);
    } else {
        for (unsigned lane = 0; lane < kWarpSize; ++lane) {
            if (!(guard >> lane & 1))
                continue;
            const std::uint64_t v = warp.reg(lane, inst.srcB);
            std::memcpy(&block.sharedMem[addrs[lane]], &v, 8);
        }
    }
    warp.advance();
}

void
SmCore::execGlobalMem(Warp &warp, const Instruction &inst,
                      LaneMask guard, Cycle now)
{
    if (guard == 0) {
        warp.advance();
        return;
    }

    std::array<Addr, kWarpSize> addrs{};
    for (unsigned lane = 0; lane < kWarpSize; ++lane) {
        if (!(guard >> lane & 1))
            continue;
        Addr addr = warp.reg(lane, inst.srcA) +
                    static_cast<Addr>(inst.imm);
        if (inst.space == MemSpace::Local)
            addr = localPhys(addr, globalThreadId(warp, lane));
        addrs[lane] = addr;
    }

    // Loads and stores access device memory at issue. Atomics are
    // forwarded: the owning partition performs the RMW at accept()
    // and the pre-RMW value is written back on response. The dst
    // register is scoreboarded below like any load, so no lane can
    // observe it before the writeback.
    if (inst.isLoad()) {
        for (unsigned lane = 0; lane < kWarpSize; ++lane) {
            if (guard >> lane & 1)
                warp.setReg(lane, inst.dst, dmem_->read64(addrs[lane]));
        }
    } else if (!inst.isAtomic()) {
        for (unsigned lane = 0; lane < kWarpSize; ++lane) {
            if (guard >> lane & 1)
                dmem_->write64(addrs[lane], warp.reg(lane, inst.srcB));
        }
    }

    LsuOp op;
    op.isLoad = inst.isLoad() || inst.isAtomic();
    op.isAtomic = inst.isAtomic();
    op.space = inst.space;
    if (op.isAtomic) {
        // Atomics do not coalesce: one transaction per active lane.
        op.atomOp = inst.atomOp;
        for (unsigned lane = 0; lane < kWarpSize; ++lane) {
            if (guard >> lane & 1) {
                op.txns.push_back(Transaction{
                    addrs[lane] & ~static_cast<Addr>(
                        params_.lineBytes - 1),
                    1u << lane});
                op.atomLanes.push_back(AtomLane{
                    addrs[lane], warp.reg(lane, inst.srcB), lane});
            }
        }
    } else {
        op.txns = coalesce(addrs, guard, params_.lineBytes);
    }
    op.issueCycle = now;
    if (op.isLoad) {
        op.token = allocToken(warp, inst.dst,
                              static_cast<unsigned>(op.txns.size()),
                              now);
        warp.markRegPending(inst.dst, true);
    }
    const bool pushed = lsuQueue_.push(now, std::move(op));
    GPULAT_ASSERT(pushed, "LSU queue full at issue (checked earlier)");
    memInstrs_->inc();
    warp.advance();
}

bool
SmCore::canIssue(Warp &warp)
{
    if (warp.state() != WarpState::Ready)
        return false;
    const std::uint32_t pc = warp.pc();
    GPULAT_ASSERT(pc < deps_.size(), "warp pc ", pc,
                  " past end of kernel");
    const IssueDeps &d = deps_[pc];

    // Scoreboard: every register the instruction touches must be
    // idle (reads for correctness of timing, writes for WAW order).
    if ((warp.pendingRegMask() & d.regs) != 0 ||
        (warp.pendingPredMask() & (d.guard | d.predDst)) != 0)
        return false;

    // Structural: LSU slot for non-shared memory ops.
    return !(d.lsu && lsuQueue_.full());
}

bool
SmCore::anyWarpCanIssue()
{
    for (Warp &warp : warps_)
        if (canIssue(warp))
            return true;
    return false;
}

void
SmCore::issueWarp(Warp &warp, Cycle now)
{
    const Instruction &inst = ctx_->kernel->code[warp.pc()];
    const LaneMask active = warp.activeMask();
    const LaneMask guard =
        warp.guardMask(active, inst.pred, inst.predNeg);

    issued_->inc();

    switch (inst.op) {
      case Opcode::NOP:
        warp.advance();
        break;
      case Opcode::EXIT:
        execExit(warp, active, guard);
        break;
      case Opcode::BAR:
        execBarrier(warp);
        break;
      case Opcode::BRA:
        execBranch(warp, inst, active, guard);
        break;
      case Opcode::LD:
      case Opcode::ST:
      case Opcode::ATOM:
        if (inst.space == MemSpace::Shared)
            execSharedMem(warp, inst, guard, now);
        else
            execGlobalMem(warp, inst, guard, now);
        break;
      default:
        execAlu(warp, inst, guard, now);
        break;
    }
}

bool
SmCore::tickWriteback(Cycle now)
{
    bool freed = false;
    while (!regWheel_.empty() && regWheel_.front().at <= now) {
        std::pop_heap(regWheel_.begin(), regWheel_.end(), kLaterWb);
        const RegWb wb = regWheel_.back();
        regWheel_.pop_back();
        Warp *warp = issuer(wb.warpSlot, wb.warpSeq);
        if (!warp)
            continue;
        if (wb.isPred)
            warp->clearPredPending(wb.reg);
        else
            warp->clearRegPending(wb.reg);
        freed = true;
    }
    while (hitQueue_.headReady(now)) {
        const Cycle at = hitQueue_.headReadyAt();
        HitDone done = hitQueue_.pop();
        done.trace.complete = at;
        if (latShard_ && latCollector_->enabled())
            latShard_->record(done.trace);
        freed |= completeLoadTxn(done.token, at);
    }
    return freed;
}

void
SmCore::tickInject(Cycle now)
{
    if (!missQueue_.headReady(now) || !reqNet_->canInject(params_.smId))
        return;
    MemRequest req = missQueue_.pop();
    req.trace.icntInject = now;
    req.partition = partitionOf_(req.lineAddr);
    const bool ok =
        reqNet_->inject(now, params_.smId, req.partition,
                        std::move(req));
    GPULAT_ASSERT(ok, "inject must succeed after canInject");
}

bool
SmCore::tickLsu(Cycle now)
{
    if (!lsuQueue_.headReady(now))
        return false;
    LsuOp &op = lsuQueue_.front();
    GPULAT_ASSERT(op.nextTxn < op.txns.size(), "empty LSU op");
    const Transaction &txn = op.txns[op.nextTxn];
    const bool cached = l1Caches(op.space) && !op.isAtomic;

    auto make_request = [&]() {
        MemRequest req;
        // Per-SM id pool: globally unique without shared state. Ids
        // are only ever compared for equality (MSHR primary-marker
        // matching), never used for ordering or arbitration, so the
        // value change versus a shared sequence is timing-neutral.
        req.id = (static_cast<std::uint64_t>(params_.smId)
                  << kReqIdSmShift) |
            reqSeq_++;
        req.lineAddr = txn.lineAddr;
        req.isWrite = !op.isLoad;
        req.isAtomic = op.isAtomic;
        req.space = op.space;
        req.smId = params_.smId;
        req.token = op.token;
        req.trace.issue = op.issueCycle;
        req.trace.l1Access = now;
        if (op.isAtomic) {
            const AtomLane &al = op.atomLanes[op.nextTxn];
            req.atomAddr = al.addr;
            req.atomArg = al.arg;
            req.atomLane = al.lane;
            req.atomOp = op.atomOp;
        }
        return req;
    };

    if (!op.isLoad) {
        if (missQueue_.full())
            return false; // retry next cycle
        if (cached) {
            // Write-through, no-allocate: update the line if present
            // and always forward the write downstream.
            l1_->access(txn.lineAddr, true, now);
        }
        const bool ok = missQueue_.push(now, make_request());
        GPULAT_ASSERT(ok, "miss queue push checked above");
    } else if (cached) {
        const auto outcome = l1_->access(txn.lineAddr, false, now);
        if (outcome == CacheOutcome::Hit) {
            LatencyTrace trace;
            trace.issue = op.issueCycle;
            trace.l1Access = now;
            trace.hitLevel = HitLevel::L1;
            hitQueue_.push(now, HitDone{op.token, trace});
        } else if (l1Mshr_.pending(txn.lineAddr)) {
            const auto mshr = l1Mshr_.allocate(txn.lineAddr, op.token);
            if (mshr == MshrOutcome::FullMerges)
                return false; // retry next cycle
            GPULAT_ASSERT(mshr == MshrOutcome::Merged, "merge");
        } else {
            if (l1Mshr_.inFlight() >= l1Mshr_.capacity() ||
                missQueue_.full())
                return false; // structural stall
            const auto mshr = l1Mshr_.allocate(txn.lineAddr, op.token);
            GPULAT_ASSERT(mshr == MshrOutcome::NewEntry, "primary");
            const bool ok = missQueue_.push(now, make_request());
            GPULAT_ASSERT(ok, "miss queue push checked above");
        }
    } else {
        // Uncached load: every transaction is its own request.
        if (missQueue_.full())
            return false;
        const bool ok = missQueue_.push(now, make_request());
        GPULAT_ASSERT(ok, "miss queue push checked above");
    }

    if (++op.nextTxn < op.txns.size())
        return false;
    lsuQueue_.pop();
    return true;
}

bool
SmCore::tickIssue(Cycle now)
{
    bool issued_any = false;
    for (auto &sched : schedulers_) {
        const int slot = sched.pick(
            [&](unsigned s) { return canIssue(warps_[s]); },
            [&](unsigned s) { return warps_[s].dispatchSeq(); });
        if (slot < 0)
            continue;
        issueWarp(warps_[static_cast<unsigned>(slot)], now);
        issued_any = true;
    }
    return issued_any;
}

void
SmCore::tick(Cycle now)
{
    const bool freed = tickWriteback(now);
    tickInject(now);
    const bool popped = tickLsu(now);
    // Rescan only when the last scan's answer may be stale (see
    // tick() in core.hh); Debug builds check every skipped scan.
    if (issuedLastTick_ || wokeSinceTick_ || freed || popped) {
        issuedLastTick_ = tickIssue(now);
        idleCause_ = issuedLastTick_ ? nullptr : idleCauseCounter();
    } else {
        assert(!anyWarpCanIssue() && idleCause_ == idleCauseCounter());
    }
    wokeSinceTick_ = false; // this tick observed all deliveries

    if (residentWarps_ > 0) {
        activeStat_->inc();
        if (!issuedLastTick_) {
            ++idleCum_;
            idleStat_->inc();
            if (idleCause_)
                idleCause_->inc();
        }
    }
}

Cycle
SmCore::nextEventAt(Cycle now) const
{
    // The last tick issued (dependent state may cascade next
    // cycle), or a delivery landed since: assume active.
    if (issuedLastTick_ || wokeSinceTick_)
        return now;
    Cycle e = kNoCycle;
    if (!regWheel_.empty())
        e = std::min(e, regWheel_.front().at);
    e = std::min(e, hitQueue_.headReadyAt());
    e = std::min(e, lsuQueue_.headReadyAt());
    e = std::min(e, missQueue_.headReadyAt());
    return e;
}

void
SmCore::fastForward(Cycle from, Cycle to)
{
    if (residentWarps_ == 0)
        return;
    // The engine only skips windows this SM reported dead, which
    // (with warps resident) requires that the last tick issued
    // nothing — so every skipped cycle is an idle cycle.
    GPULAT_ASSERT(!issuedLastTick_, "fast-forward through active SM");
    const std::uint64_t delta = to - from;
    activeStat_->inc(delta);
    idleCum_ += delta;
    idleStat_->inc(delta);
    // Nothing changes inside a dead window, so the last scan's idle
    // classification holds across it.
    assert(idleCause_ == idleCauseCounter());
    if (idleCause_)
        idleCause_->inc(delta);
}

Counter *
SmCore::idleCauseCounter()
{
    // Attribute the dead cycle to the most actionable cause seen
    // across resident warps: memory dependency > LSU backpressure >
    // barrier > ALU dependency.
    bool saw_mem = false;
    bool saw_lsu = false;
    bool saw_barrier = false;
    bool saw_alu = false;
    for (Warp &warp : warps_) {
        if (warp.state() == WarpState::AtBarrier) {
            saw_barrier = true;
            continue;
        }
        if (warp.state() != WarpState::Ready)
            continue;
        const IssueDeps &d = deps_[warp.pc()];
        const std::uint64_t pending = warp.pendingRegMask() & d.regs;
        if (pending != 0 || (warp.pendingPredMask() & d.guard) != 0) {
            const bool on_mem = (pending & warp.pendingMemRegMask()) != 0;
            (on_mem ? saw_mem : saw_alu) = true;
        } else if (d.lsu && lsuQueue_.full()) {
            saw_lsu = true;
        }
    }
    if (saw_mem)
        return idleMemStat_;
    if (saw_lsu)
        return idleLsuStat_;
    if (saw_barrier)
        return idleBarrierStat_;
    if (saw_alu)
        return idleAluStat_;
    return nullptr;
}

std::string
SmCore::occupancySummary() const
{
    std::ostringstream oss;
    oss << "sm" << params_.smId << "{warps=" << residentWarps_
        << " lsu=" << lsuQueue_.size()
        << " missq=" << missQueue_.size()
        << " mshr=" << l1Mshr_.inFlight()
        << " loads=" << inflightCount_
        << " regwb=" << regWheel_.size()
        << " hitwb=" << hitQueue_.size() << "}";
    return oss.str();
}

void
SmCore::acceptResponse(Cycle now, MemRequest req)
{
    wokeSinceTick_ = true;
    req.trace.complete = now;
    if (latShard_ && latCollector_->enabled() && !req.isWrite)
        latShard_->record(req.trace);

    if (l1Caches(req.space) && !req.isAtomic) {
        // Allocate-on-fill; L1 is write-through so victims are
        // never dirty.
        l1_->fill(req.lineAddr, now);
        for (LoadToken token : l1Mshr_.release(req.lineAddr))
            completeLoadTxn(token, now);
    } else {
        if (req.isAtomic && req.token != kNoToken) {
            // Deliver the pre-RMW value the partition captured to
            // the issuing lane (acceptResponse runs in phase 0,
            // before any SM group ticks this cycle).
            const InflightLoad &load =
                inflight_[static_cast<std::size_t>(req.token)];
            Warp *warp = load.valid
                ? issuer(load.warpSlot, load.warpSeq)
                : nullptr;
            if (warp)
                warp->setReg(req.atomLane, load.destReg,
                             req.atomResult);
        }
        completeLoadTxn(req.token, now);
    }
}

bool
SmCore::drained() const
{
    return lsuQueue_.empty() && missQueue_.empty() &&
           hitQueue_.empty() && regWheel_.empty() &&
           inflightCount_ == 0 && l1Mshr_.empty();
}

} // namespace gpulat
