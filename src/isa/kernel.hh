/**
 * @file
 * Kernel container and programmatic KernelBuilder.
 *
 * A Kernel is a finalized instruction sequence plus launch metadata
 * (register/shared-memory footprint). KernelBuilder provides a fluent
 * API used both by generated microbenchmarks and by the text
 * assembler; finalize() performs control-flow analysis (basic blocks,
 * post-dominators) to annotate divergent branches with their
 * reconvergence pc.
 */

#ifndef GPULAT_ISA_KERNEL_HH
#define GPULAT_ISA_KERNEL_HH

#include <cstdint>
#include <map>
#include <string>
#include <vector>

#include "isa/isa.hh"

namespace gpulat {

/** An immutable, analysis-annotated instruction sequence. */
struct Kernel
{
    std::string name;
    std::vector<Instruction> code;

    /** Architectural registers used per thread (occupancy input). */
    int numRegs = 16;
    /** Static shared memory per block, bytes. */
    std::uint32_t sharedBytes = 0;

    std::size_t size() const { return code.size(); }
};

/** The highest register @p code reads or writes; kNoReg if none. */
int highestRegister(const std::vector<Instruction> &code);

/**
 * Incrementally assembles a Kernel.
 *
 * Branch targets may be forward label references; finalize() patches
 * them, builds the CFG, computes immediate post-dominators and fills
 * Instruction::reconv for every predicated branch.
 */
class KernelBuilder
{
  public:
    explicit KernelBuilder(std::string name);

    /** @name Guard for the next emitted instruction. @{ */
    KernelBuilder &pred(int p, bool negate = false);
    /** @} */

    /** @name Instruction emitters (each returns *this). @{ */
    KernelBuilder &nop();
    KernelBuilder &exit();
    KernelBuilder &bar();
    KernelBuilder &movImm(int rd, std::int64_t imm);
    KernelBuilder &movReg(int rd, int rs);
    KernelBuilder &movParam(int rd, int param_idx);
    KernelBuilder &s2r(int rd, SpecialReg sr);
    KernelBuilder &clock(int rd, int dep = kNoReg);
    KernelBuilder &alu(Opcode op, int rd, int ra, int rb);
    KernelBuilder &aluImm(Opcode op, int rd, int ra, std::int64_t imm);
    KernelBuilder &imad(int rd, int ra, int rb, int rc);
    KernelBuilder &ffma(int rd, int ra, int rb, int rc);
    KernelBuilder &cvt(Opcode op, int rd, int ra);
    KernelBuilder &setp(CmpOp cmp, int pd, int ra, int rb);
    KernelBuilder &setpImm(CmpOp cmp, int pd, int ra, std::int64_t imm);
    KernelBuilder &bra(const std::string &label);
    KernelBuilder &ld(MemSpace space, int rd, int ra,
                      std::int64_t offset = 0);
    KernelBuilder &st(MemSpace space, int ra, int rb,
                      std::int64_t offset = 0);
    KernelBuilder &atom(AtomOp op, int rd, int ra, int rb,
                        std::int64_t offset = 0);
    /**
     * Append @p inst under the pending guard. A non-empty
     * @p target_label becomes its branch target at finalize().
     */
    KernelBuilder &emit(Instruction inst,
                        const std::string &target_label = "");
    /** @} */

    /** Bind @p name to the next emitted instruction's pc. */
    KernelBuilder &label(const std::string &name);

    /** Declare shared-memory usage (bytes). */
    KernelBuilder &shared(std::uint32_t bytes);

    /** Declare per-thread register usage (defaults to the highest
     *  register used + 1). */
    KernelBuilder &regs(int n);

    /** Number of instructions emitted so far (== next pc). */
    std::uint32_t pc() const;

    /**
     * Resolve labels, verify operands, run reconvergence analysis and
     * return the finished kernel. The builder must not be reused.
     */
    Kernel finalize();

    /** Label → pc map of the labels bound so far. */
    const std::map<std::string, std::uint32_t> &labels() const
    {
        return labels_;
    }

  private:
    void validate() const;
    void computeReconvergence();

    std::string name_;
    std::vector<Instruction> code_;
    std::map<std::string, std::uint32_t> labels_;
    /** pc → unresolved label, patched at finalize. */
    std::vector<std::pair<std::uint32_t, std::string>> fixups_;

    int pendingPred_ = kNoReg;
    bool pendingPredNeg_ = false;
    int numRegs_ = -1;
    std::uint32_t sharedBytes_ = 0;
    bool finalized_ = false;
};

} // namespace gpulat

#endif // GPULAT_ISA_KERNEL_HH
