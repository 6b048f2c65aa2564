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

#include <cstdint>
#include <string>

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

/** SETP comparison operators (signed 64-bit). */
enum class CmpOp : std::uint8_t { EQ, NE, LT, LE, GT, GE };

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

/** Mnemonic for an opcode ("iadd", "ld", ...). */
const char *toString(Opcode op);
/** Mnemonic for a comparison ("eq", ...). */
const char *toString(CmpOp cmp);
/** Mnemonic for an atomic op ("add", ...). */
const char *toString(AtomOp op);
/** Mnemonic for a special register ("tid", ...). */
const char *toString(SpecialReg sreg);

/** Render one instruction as assembler-like text (for tests/debug). */
std::string disassemble(const Instruction &inst);

} // namespace gpulat

#endif // GPULAT_ISA_ISA_HH
