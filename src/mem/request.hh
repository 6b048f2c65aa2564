/**
 * @file
 * The memory request (one cache-line transaction) that travels
 * SM -> L1 -> interconnect -> memory partition -> DRAM and back.
 */

#ifndef GPULAT_MEM_REQUEST_HH
#define GPULAT_MEM_REQUEST_HH

#include <cstdint>

#include "common/types.hh"
#include "isa/isa.hh"
#include "latency/stages.hh"

namespace gpulat {

/** Token linking a request back to its issuing load instruction. */
using LoadToken = std::int32_t;
inline constexpr LoadToken kNoToken = -1;

/** One line-sized memory transaction. */
struct MemRequest
{
    std::uint64_t id = 0;     ///< unique (for debug/determinism)
    Addr lineAddr = kNoAddr;  ///< line-aligned address
    bool isWrite = false;
    /** Atomic RMW: read-like (gets a response) but dirties the L2. */
    bool isAtomic = false;
    MemSpace space = MemSpace::Global;

    unsigned smId = 0;        ///< issuing SM (response routing)
    unsigned partition = 0;   ///< destination memory partition
    LoadToken token = kNoToken; ///< issuing load instr, or kNoToken

    /**
     * Slice-local address: the global line address with the
     * partition-interleave bits squeezed out, so L2 sets and DRAM
     * rows inside one partition see a dense address space (set by
     * MemPartition::accept()).
     */
    Addr sliceAddr = kNoAddr;

    /** Address the partition's L2/DRAM should operate on. */
    Addr
    dramAddr() const
    {
        return sliceAddr != kNoAddr ? sliceAddr : lineAddr;
    }

    /** If true this is an L2 dirty-line writeback, not an
     *  instruction-generated request (excluded from Fig. 1, exactly
     *  as the paper excludes eviction traffic). */
    bool isWriteback = false;

    /**
     * @name Atomic operand (one lane per request)
     *
     * The functional read-modify-write of an atomic is performed by
     * the owning MemPartition::accept() — which runs under the
     * coordinator barrier, so the RMW order is the crossbar's
     * schedule-invariant arrival order — not at SM issue. This is
     * what lets kernels with atomics tick SM-parallel. The
     * partition fills @p atomResult with the pre-RMW value; the SM
     * writes it to the destination register lane on response.
     * @{
     */
    Addr atomAddr = kNoAddr;       ///< exact byte address of the RMW
    AtomOp atomOp = AtomOp::Add;
    unsigned atomLane = 0;         ///< issuing lane in the warp
    std::uint64_t atomArg = 0;     ///< the lane's source operand
    std::uint64_t atomResult = 0;  ///< pre-RMW value (response)
    /** @} */

    LatencyTrace trace;
};

} // namespace gpulat

#endif // GPULAT_MEM_REQUEST_HH
