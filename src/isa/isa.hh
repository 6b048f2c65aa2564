/**
 * @file
 * The gpulat mini SIMT ISA.
 *
 * A deliberately small, SASS-flavoured register ISA that is rich
 * enough to express the paper's workloads (pointer chases, BFS,
 * streaming and irregular kernels): 64-bit integer ALU ops, bit-cast
 * double FP ops, predicated execution, divergent branches with
 * post-dominator reconvergence, per-space loads/stores, block
 * barriers and a clock-register read for microbenchmark timing.
 */

#ifndef GPULAT_ISA_ISA_HH
#define GPULAT_ISA_ISA_HH

#include <array>
#include <cstdint>
#include <string>
#include <string_view>
#include <vector>

#include "common/spelling.hh"
#include "common/types.hh"

namespace gpulat {

/** Machine operations. */
enum class Opcode : std::uint8_t {
    NOP,   ///< no operation
    EXIT,  ///< retire the lanes; under a guard, those whose guard holds
    BAR,   ///< block-wide barrier
    MOV,   ///< rd = reg | imm | kernel parameter
    S2R,   ///< rd = special register (tid, ctaid, ...)
    CLOCK, ///< rd = current cycle; optional srcA creates a timing dep
    IADD, ISUB, IMUL,
    IMAD,  ///< rd = ra * rb + rc
    SHL, SHR,
    AND, OR, XOR,
    IMIN, IMAX,
    FADD, FMUL,
    FFMA,  ///< rd = ra * rb + rc (double)
    I2F,   ///< rd = double(int64(ra))
    F2I,   ///< rd = int64(double(ra))
    SETP,  ///< pd = compare(ra, b)
    BRA,   ///< (possibly predicated/divergent) branch
    LD,    ///< rd = mem[ra + imm]  (8 bytes)
    ST,    ///< mem[ra + imm] = rb  (8 bytes)
    ATOM,  ///< rd = atomic-op(mem[ra + imm], rb), serviced at the L2
};

/** Atomic read-modify-write operations. */
enum class AtomOp : std::uint8_t { Add, Max, Exch };

/** `atom.op` suffix spellings. */
inline constexpr Spelling<AtomOp> kAtomOpSpellings[] = {
    {"add", AtomOp::Add},
    {"max", AtomOp::Max},
    {"exch", AtomOp::Exch},
};

/** SETP comparison operators (signed 64-bit). */
enum class CmpOp : std::uint8_t { EQ, NE, LT, LE, GT, GE };

/** `setp.cc` suffix spellings. */
inline constexpr Spelling<CmpOp> kCmpOpSpellings[] = {
    {"eq", CmpOp::EQ}, {"ne", CmpOp::NE}, {"lt", CmpOp::LT},
    {"le", CmpOp::LE}, {"gt", CmpOp::GT}, {"ge", CmpOp::GE},
};

/** Special (read-only) registers readable via S2R. */
enum class SpecialReg : std::uint8_t {
    Tid,    ///< thread index within the block (x)
    Ctaid,  ///< block index within the grid (x)
    Ntid,   ///< threads per block
    Nctaid, ///< blocks per grid
    LaneId, ///< lane within warp
    WarpId, ///< warp within block
    SmId,   ///< SM executing this thread
};

/** `s2r` source spellings. */
inline constexpr Spelling<SpecialReg> kSpecialRegSpellings[] = {
    {"tid", SpecialReg::Tid},       {"ctaid", SpecialReg::Ctaid},
    {"ntid", SpecialReg::Ntid},     {"nctaid", SpecialReg::Nctaid},
    {"laneid", SpecialReg::LaneId}, {"warpid", SpecialReg::WarpId},
    {"smid", SpecialReg::SmId},
};

/** Architectural limits of the ISA. */
inline constexpr int kNumRegs = 64;
inline constexpr int kNumPreds = 8;
inline constexpr int kMaxParams = 16;
inline constexpr int kNoReg = -1;

/**
 * One decoded machine instruction. Flat POD: fields are valid or not
 * depending on the opcode (documented per field).
 */
struct Instruction
{
    Opcode op = Opcode::NOP;

    /** Guard predicate index, or kNoReg for unpredicated. */
    int pred = kNoReg;
    /** If true the guard is @!p rather than @p. */
    bool predNeg = false;

    /** Destination register (MOV/S2R/CLOCK/ALU/LD), else kNoReg. */
    int dst = kNoReg;
    /** First source register; LD/ST address base. */
    int srcA = kNoReg;
    /** Second source register; ST data register. kNoReg if imm used. */
    int srcB = kNoReg;
    /** Third source register (IMAD/FFMA). */
    int srcC = kNoReg;

    /** Immediate: ALU second operand, or LD/ST address offset. */
    std::int64_t imm = 0;
    /** True if srcB position holds `imm` instead of a register. */
    bool useImm = false;

    /** MOV from kernel parameter index, or kNoReg. */
    int param = kNoReg;

    /** S2R source. */
    SpecialReg sreg = SpecialReg::Tid;

    /** SETP comparison and destination predicate. */
    CmpOp cmp = CmpOp::EQ;
    int predDst = kNoReg;

    /** LD/ST/ATOM memory space. */
    MemSpace space = MemSpace::Global;

    /** ATOM sub-operation. */
    AtomOp atomOp = AtomOp::Add;

    /** BRA target pc (instruction index). */
    std::uint32_t target = 0;
    /**
     * BRA reconvergence pc (immediate post-dominator); filled in by
     * KernelBuilder::finalize() for predicated branches.
     */
    std::uint32_t reconv = 0;

    /**
     * The registers this instruction reads or writes: dst, srcA,
     * srcB (unless an immediate takes its place) and srcC, kNoReg in
     * an unused slot. The builder's register count, the launch check
     * and the SM scoreboard all read this one footprint.
     */
    std::array<int, 4>
    registers() const
    {
        return {dst, srcA, useImm ? kNoReg : srcB, srcC};
    }

    /** True for LD/ST/ATOM. */
    bool
    isMemory() const
    {
        return op == Opcode::LD || op == Opcode::ST ||
               op == Opcode::ATOM;
    }
    /** True for LD (produces a register from memory). */
    bool isLoad() const { return op == Opcode::LD; }
    bool isStore() const { return op == Opcode::ST; }
    bool isAtomic() const { return op == Opcode::ATOM; }
    bool isBranch() const { return op == Opcode::BRA; }
    bool isExit() const { return op == Opcode::EXIT; }
    bool isBarrier() const { return op == Opcode::BAR; }

    /** True if the FP pipeline executes this op. */
    bool
    isFloat() const
    {
        switch (op) {
          case Opcode::FADD: case Opcode::FMUL: case Opcode::FFMA:
          case Opcode::I2F: case Opcode::F2I:
            return true;
          default:
            return false;
        }
    }
};

/** The enum an opcode's ".suffix" spells. */
enum class Suffix : std::uint8_t { None, Cmp, Space, Atom };

/** One operand slot of an opcode's shape, and the fields it fills. */
enum class Operand : std::uint8_t {
    None,     ///< no further operand
    Dst,      ///< rd: dst
    SrcA,     ///< ra: srcA
    SrcB,     ///< rb: srcB
    SrcC,     ///< rc: srcC
    RegOrImm, ///< b: srcB, or imm with useImm
    MovSrc,   ///< src: paramN (param), rb (srcB) or imm (useImm)
    Sreg,     ///< sreg: sreg
    PredDst,  ///< pd: predDst
    Target,   ///< label: target, printed as a pc
    Address,  ///< [ra+off]: srcA and imm
    Dep,      ///< optional trailing rdep: srcA
};

/**
 * What the assembler, disassemble() and the assembler fuzz know of
 * one opcode: `mnemonic[.suffix] operands...`.
 */
struct OpcodeInfo
{
    Opcode op;
    const char *mnemonic;
    /** Operand slots in order, padded with Operand::None. */
    std::array<Operand, 4> shape;
    /** Usage text: what follows "mnemonic." (suffixed) or
     *  "mnemonic " in a usage error; "" for no operands. */
    const char *usage;
    Suffix suffix = Suffix::None;
};

/** Every opcode, in enum order. */
inline constexpr std::array<OpcodeInfo, 27> kOpcodes = [] {
    using enum Operand;
    return std::array<OpcodeInfo, 27>{{
        {Opcode::NOP, "nop", {}, ""},
        {Opcode::EXIT, "exit", {}, ""},
        {Opcode::BAR, "bar", {}, ""},
        {Opcode::MOV, "mov", {Dst, MovSrc}, "rd, src"},
        {Opcode::S2R, "s2r", {Dst, Sreg}, "rd, sreg"},
        {Opcode::CLOCK, "clock", {Dst, Dep}, "rd [, rdep]"},
        {Opcode::IADD, "iadd", {Dst, SrcA, RegOrImm}, "rd, ra, b"},
        {Opcode::ISUB, "isub", {Dst, SrcA, RegOrImm}, "rd, ra, b"},
        {Opcode::IMUL, "imul", {Dst, SrcA, RegOrImm}, "rd, ra, b"},
        {Opcode::IMAD, "imad", {Dst, SrcA, SrcB, SrcC}, "rd, ra, rb, rc"},
        {Opcode::SHL, "shl", {Dst, SrcA, RegOrImm}, "rd, ra, b"},
        {Opcode::SHR, "shr", {Dst, SrcA, RegOrImm}, "rd, ra, b"},
        {Opcode::AND, "and", {Dst, SrcA, RegOrImm}, "rd, ra, b"},
        {Opcode::OR, "or", {Dst, SrcA, RegOrImm}, "rd, ra, b"},
        {Opcode::XOR, "xor", {Dst, SrcA, RegOrImm}, "rd, ra, b"},
        {Opcode::IMIN, "imin", {Dst, SrcA, RegOrImm}, "rd, ra, b"},
        {Opcode::IMAX, "imax", {Dst, SrcA, RegOrImm}, "rd, ra, b"},
        {Opcode::FADD, "fadd", {Dst, SrcA, RegOrImm}, "rd, ra, b"},
        {Opcode::FMUL, "fmul", {Dst, SrcA, RegOrImm}, "rd, ra, b"},
        {Opcode::FFMA, "ffma", {Dst, SrcA, SrcB, SrcC}, "rd, ra, rb, rc"},
        {Opcode::I2F, "i2f", {Dst, SrcA}, "rd, ra"},
        {Opcode::F2I, "f2i", {Dst, SrcA}, "rd, ra"},
        {Opcode::SETP, "setp", {PredDst, SrcA, RegOrImm}, "cc pd, ra, b",
         Suffix::Cmp},
        {Opcode::BRA, "bra", {Target}, "label"},
        {Opcode::LD, "ld", {Dst, Address}, "space rd, [ra+off]",
         Suffix::Space},
        {Opcode::ST, "st", {Address, SrcB}, "space [ra+off], rb",
         Suffix::Space},
        {Opcode::ATOM, "atom", {Dst, Address, SrcB},
         "op rd, [ra+off], rb", Suffix::Atom},
    }};
}();

/** The table row of @p op. */
constexpr const OpcodeInfo &
opcodeInfo(Opcode op)
{
    return kOpcodes[static_cast<std::size_t>(op)];
}

static_assert(
    [] {
        for (std::size_t i = 0; i < kOpcodes.size(); ++i) {
            if (static_cast<std::size_t>(kOpcodes[i].op) != i)
                return false;
        }
        return kOpcodes.back().op == Opcode::ATOM;
    }(),
    "kOpcodes lists every Opcode once, in enum order");

/** The row whose mnemonic is @p mnemonic; nullptr if none. */
const OpcodeInfo *findOpcode(std::string_view mnemonic);

/**
 * Call @p f(table, field) with the spelling table and the field of
 * @p inst that its opcode's suffix names; no call for Suffix::None.
 */
template <typename I, typename F>
void
visitSuffix(I &inst, F &&f)
{
    switch (opcodeInfo(inst.op).suffix) {
      case Suffix::None: return;
      case Suffix::Cmp: f(kCmpOpSpellings, inst.cmp); return;
      case Suffix::Space: f(kMemSpaceSpellings, inst.space); return;
      case Suffix::Atom: f(kAtomOpSpellings, inst.atomOp); return;
    }
}

/** The suffix spellings @p op takes, in table order. */
std::vector<const char *> suffixSpellings(Opcode op);

/** Render one instruction as assembler-like text (for tests/debug). */
std::string disassemble(const Instruction &inst);

} // namespace gpulat

#endif // GPULAT_ISA_ISA_HH
