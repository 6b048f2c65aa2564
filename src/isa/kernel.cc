#include "isa/kernel.hh"

#include <algorithm>

#include "common/log.hh"
#include "isa/cfg.hh"

namespace gpulat {

namespace {

/** Simple dynamic bitset sized at construction. */
class BitSet
{
  public:
    explicit BitSet(std::size_t n, bool ones = false)
        : n_(n), words_((n + 63) / 64, ones ? ~0ull : 0ull)
    {
        trim();
    }

    void set(std::size_t i) { words_[i / 64] |= 1ull << (i % 64); }
    bool test(std::size_t i) const
    {
        return words_[i / 64] >> (i % 64) & 1;
    }

    /** this &= other; returns true if changed. */
    bool
    intersectWith(const BitSet &other)
    {
        bool changed = false;
        for (std::size_t w = 0; w < words_.size(); ++w) {
            auto nv = words_[w] & other.words_[w];
            changed |= nv != words_[w];
            words_[w] = nv;
        }
        return changed;
    }

    bool operator==(const BitSet &other) const
    {
        return words_ == other.words_;
    }

    std::size_t
    count() const
    {
        std::size_t c = 0;
        for (auto w : words_)
            c += static_cast<std::size_t>(__builtin_popcountll(w));
        return c;
    }

  private:
    void
    trim()
    {
        if (n_ % 64)
            words_.back() &= (1ull << (n_ % 64)) - 1;
    }

    std::size_t n_;
    std::vector<std::uint64_t> words_;
};

} // namespace

int
highestRegister(const std::vector<Instruction> &code)
{
    int highest = kNoReg;
    for (const Instruction &inst : code) {
        for (const int r : inst.registers())
            highest = std::max(highest, r);
    }
    return highest;
}

KernelBuilder::KernelBuilder(std::string name) : name_(std::move(name)) {}

KernelBuilder &
KernelBuilder::emit(Instruction inst, const std::string &target_label)
{
    GPULAT_ASSERT(!finalized_, "builder reused after finalize");
    inst.pred = pendingPred_;
    inst.predNeg = pendingPredNeg_;
    pendingPred_ = kNoReg;
    pendingPredNeg_ = false;
    if (!target_label.empty())
        fixups_.emplace_back(pc(), target_label);
    code_.push_back(inst);
    return *this;
}

KernelBuilder &
KernelBuilder::pred(int p, bool negate)
{
    if (p < 0 || p >= kNumPreds)
        fatal("kernel '", name_, "': predicate p", p, " out of range");
    pendingPred_ = p;
    pendingPredNeg_ = negate;
    return *this;
}

KernelBuilder &
KernelBuilder::nop()
{
    return emit({.op = Opcode::NOP});
}

KernelBuilder &
KernelBuilder::exit()
{
    return emit({.op = Opcode::EXIT});
}

KernelBuilder &
KernelBuilder::bar()
{
    return emit({.op = Opcode::BAR});
}

KernelBuilder &
KernelBuilder::movImm(int rd, std::int64_t imm)
{
    return emit({.op = Opcode::MOV, .dst = rd, .imm = imm, .useImm = true});
}

KernelBuilder &
KernelBuilder::movReg(int rd, int rs)
{
    return emit({.op = Opcode::MOV, .dst = rd, .srcB = rs});
}

KernelBuilder &
KernelBuilder::movParam(int rd, int param_idx)
{
    if (param_idx < 0 || param_idx >= kMaxParams)
        fatal("kernel '", name_, "': param", param_idx,
              " out of range");
    return emit({.op = Opcode::MOV, .dst = rd, .param = param_idx});
}

KernelBuilder &
KernelBuilder::s2r(int rd, SpecialReg sr)
{
    return emit({.op = Opcode::S2R, .dst = rd, .sreg = sr});
}

KernelBuilder &
KernelBuilder::clock(int rd, int dep)
{
    return emit({.op = Opcode::CLOCK, .dst = rd, .srcA = dep});
}

KernelBuilder &
KernelBuilder::alu(Opcode op, int rd, int ra, int rb)
{
    return emit({.op = op, .dst = rd, .srcA = ra, .srcB = rb});
}

KernelBuilder &
KernelBuilder::aluImm(Opcode op, int rd, int ra, std::int64_t imm)
{
    return emit(
        {.op = op, .dst = rd, .srcA = ra, .imm = imm, .useImm = true});
}

KernelBuilder &
KernelBuilder::imad(int rd, int ra, int rb, int rc)
{
    return emit({.op = Opcode::IMAD, .dst = rd, .srcA = ra, .srcB = rb,
                 .srcC = rc});
}

KernelBuilder &
KernelBuilder::ffma(int rd, int ra, int rb, int rc)
{
    return emit({.op = Opcode::FFMA, .dst = rd, .srcA = ra, .srcB = rb,
                 .srcC = rc});
}

KernelBuilder &
KernelBuilder::cvt(Opcode op, int rd, int ra)
{
    GPULAT_ASSERT(op == Opcode::I2F || op == Opcode::F2I,
                  "cvt expects I2F/F2I");
    return emit({.op = op, .dst = rd, .srcA = ra});
}

KernelBuilder &
KernelBuilder::setp(CmpOp cmp, int pd, int ra, int rb)
{
    return emit({.op = Opcode::SETP, .srcA = ra, .srcB = rb, .cmp = cmp,
                 .predDst = pd});
}

KernelBuilder &
KernelBuilder::setpImm(CmpOp cmp, int pd, int ra, std::int64_t imm)
{
    return emit({.op = Opcode::SETP, .srcA = ra, .imm = imm,
                 .useImm = true, .cmp = cmp, .predDst = pd});
}

KernelBuilder &
KernelBuilder::bra(const std::string &label)
{
    return emit({.op = Opcode::BRA}, label);
}

KernelBuilder &
KernelBuilder::ld(MemSpace space, int rd, int ra, std::int64_t offset)
{
    return emit({.op = Opcode::LD, .dst = rd, .srcA = ra, .imm = offset,
                 .space = space});
}

KernelBuilder &
KernelBuilder::st(MemSpace space, int ra, int rb, std::int64_t offset)
{
    return emit({.op = Opcode::ST, .srcA = ra, .srcB = rb, .imm = offset,
                 .space = space});
}

KernelBuilder &
KernelBuilder::atom(AtomOp op, int rd, int ra, int rb,
                    std::int64_t offset)
{
    return emit({.op = Opcode::ATOM, .dst = rd, .srcA = ra, .srcB = rb,
                 .imm = offset, .atomOp = op});
}

KernelBuilder &
KernelBuilder::label(const std::string &name)
{
    if (labels_.count(name))
        fatal("kernel '", name_, "': duplicate label '", name, "'");
    labels_[name] = static_cast<std::uint32_t>(code_.size());
    return *this;
}

KernelBuilder &
KernelBuilder::shared(std::uint32_t bytes)
{
    sharedBytes_ = bytes;
    return *this;
}

KernelBuilder &
KernelBuilder::regs(int n)
{
    numRegs_ = n;
    return *this;
}

std::uint32_t
KernelBuilder::pc() const
{
    return static_cast<std::uint32_t>(code_.size());
}

void
KernelBuilder::validate() const
{
    if (code_.empty())
        fatal("kernel '", name_, "' has no instructions");
    const Instruction &last = code_.back();
    if (!last.isExit() && !(last.isBranch() && last.pred == kNoReg))
        fatal("kernel '", name_, "' does not end in exit/bra");

    for (const auto &inst : code_) {
        for (const int r : inst.registers()) {
            if (r != kNoReg && (r < 0 || r >= kNumRegs))
                fatal("kernel '", name_, "': register r", r,
                      " out of range");
        }
        if (inst.isBranch() && inst.target >= code_.size())
            fatal("kernel '", name_, "': branch target ", inst.target,
                  " out of range");
        if (inst.op == Opcode::SETP &&
            (inst.predDst < 0 || inst.predDst >= kNumPreds))
            fatal("kernel '", name_, "': bad setp destination");
    }
}

void
KernelBuilder::computeReconvergence()
{
    const Cfg cfg = Cfg::build(code_);
    const std::size_t nblocks = cfg.blocks.size();

    // Post-dominator sets over nblocks + 1 nodes (virtual exit at
    // index nblocks). Iterative dataflow to a fixpoint.
    const std::size_t universe = nblocks + 1;
    std::vector<BitSet> pdom(universe, BitSet(universe, true));
    BitSet virt_only(universe);
    virt_only.set(nblocks);
    pdom[nblocks] = virt_only;

    bool changed = true;
    while (changed) {
        changed = false;
        for (std::size_t b = nblocks; b-- > 0;) {
            BitSet nv(universe, true);
            const std::vector<std::uint32_t> &succs = cfg.blocks[b].succs;
            if (succs.empty()) {
                nv = virt_only;
            } else {
                for (const std::uint32_t s : succs)
                    nv.intersectWith(pdom[s]);
            }
            nv.set(b);
            if (!(nv == pdom[b])) {
                pdom[b] = nv;
                changed = true;
            }
        }
    }

    // Immediate post-dominator: the strict post-dominator with the
    // largest pdom set (post-dominators of a node form a chain).
    auto ipdom_pc = [&](std::size_t b) -> std::uint32_t {
        std::size_t best = universe;
        std::size_t best_count = 0;
        for (std::size_t c = 0; c < nblocks; ++c) {
            if (c == b || !pdom[b].test(c))
                continue;
            std::size_t cnt = pdom[c].count();
            if (cnt > best_count) {
                best_count = cnt;
                best = c;
            }
        }
        if (best == universe)
            return UINT32_MAX; // paths never reconverge (exit-only)
        return cfg.blocks[best].first;
    };

    for (std::size_t pc = 0; pc < code_.size(); ++pc) {
        Instruction &inst = code_[pc];
        if (inst.isBranch() && inst.pred != kNoReg)
            inst.reconv = ipdom_pc(cfg.blockOf[pc]);
    }
}

Kernel
KernelBuilder::finalize()
{
    GPULAT_ASSERT(!finalized_, "finalize called twice");
    finalized_ = true;

    for (const auto &[pc, label] : fixups_) {
        auto it = labels_.find(label);
        if (it == labels_.end())
            fatal("kernel '", name_, "': undefined label '", label,
                  "'");
        if (it->second >= code_.size())
            fatal("kernel '", name_, "': label '", label,
                  "' points past the end");
        code_[pc].target = it->second;
    }

    validate();
    computeReconvergence();

    Kernel k;
    k.name = name_;
    k.code = std::move(code_);
    k.sharedBytes = sharedBytes_;
    k.numRegs = numRegs_ > 0 ? numRegs_
                             : std::max(highestRegister(k.code) + 1, 1);
    if (k.numRegs > kNumRegs)
        fatal("kernel '", name_, "' uses ", k.numRegs,
              " registers; ISA max is ", kNumRegs);
    return k;
}

} // namespace gpulat
