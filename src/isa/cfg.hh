/**
 * @file
 * Control-flow graph extraction over an instruction sequence: the one
 * CFG of a kernel.
 *
 * KernelBuilder::finalize() runs its post-dominator pass over these
 * blocks to place reconvergence points, and the SM-parallel safety
 * analysis (src/gpu/kernel_analysis.cc) interprets kernels per basic
 * block with a worklist fixpoint, so it needs leaders, successor
 * edges, a reverse post-order and loop-head marks. The rules mirror
 * the execution model:
 *
 *  - a BRA target starts a block, as does the instruction after any
 *    BRA or EXIT;
 *  - an unpredicated BRA has a single successor (its target), a
 *    predicated BRA has two (target + fall-through);
 *  - an unpredicated EXIT has no successors; a predicated EXIT
 *    retires only its guarded lanes (SmCore::execExit), so the rest
 *    fall through to the next pc;
 *  - BAR is *not* a block boundary: it synchronizes lanes but does
 *    not redirect control flow.
 *
 * Loop heads are the targets of retreating edges in a depth-first
 * order (for the reducible CFGs KernelBuilder emits these are
 * exactly the natural-loop headers); the analysis widens there.
 */

#ifndef GPULAT_ISA_CFG_HH
#define GPULAT_ISA_CFG_HH

#include <cstdint>
#include <vector>

#include "isa/isa.hh"

namespace gpulat {

/** One basic block: the inclusive pc range [first, last]. */
struct CfgBlock
{
    std::uint32_t first = 0;
    std::uint32_t last = 0;
    std::vector<std::uint32_t> succs; ///< successor block ids
    std::vector<std::uint32_t> preds; ///< predecessor block ids
    /** Target of a retreating edge: widening point. */
    bool loopHead = false;
    /** Reachable from the entry block. */
    bool reachable = false;
};

/** CFG of one kernel. Block 0 is the entry (pc 0). */
struct Cfg
{
    std::vector<CfgBlock> blocks;
    /** pc -> owning block id. */
    std::vector<std::uint32_t> blockOf;
    /** Reachable block ids in reverse post-order (entry first). */
    std::vector<std::uint32_t> rpo;
    /** rpo position per block id (blocks.size() if unreachable). */
    std::vector<std::uint32_t> rpoIndex;
    unsigned numLoopHeads = 0;

    /** Extract the CFG of @p code (empty code yields no blocks);
     *  every branch target must lie inside @p code. */
    static Cfg build(const std::vector<Instruction> &code);
};

} // namespace gpulat

#endif // GPULAT_ISA_CFG_HH
