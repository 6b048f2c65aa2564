/**
 * @file
 * Fundamental scalar types shared by every gpulat module.
 */

#ifndef GPULAT_COMMON_TYPES_HH
#define GPULAT_COMMON_TYPES_HH

#include <cstdint>
#include <limits>

#include "common/spelling.hh"

namespace gpulat {

/** Simulated time, measured in core ("hot") clock cycles. */
using Cycle = std::uint64_t;

/** A byte address in the simulated device address space. */
using Addr = std::uint64_t;

/** 64-bit architectural register value (int or bit-cast double). */
using RegValue = std::uint64_t;

/** Sentinel for "not a valid cycle" / "event never happened". */
inline constexpr Cycle kNoCycle = std::numeric_limits<Cycle>::max();

/** Sentinel for "not a valid address". */
inline constexpr Addr kNoAddr = std::numeric_limits<Addr>::max();

/** Number of threads in a warp. Fixed at 32 across all NVIDIA gens. */
inline constexpr unsigned kWarpSize = 32;

/** Lane activity mask within a warp; bit i = lane i active. */
using LaneMask = std::uint32_t;

/** Mask with all kWarpSize lanes active. */
inline constexpr LaneMask kFullMask = 0xffffffffu;

/**
 * True when [addr, addr + bytes) does not lie inside [0, size).
 * No term can wrap, so an address near 2^64 fails too.
 */
inline constexpr bool
outOfRange(std::uint64_t addr, std::uint64_t bytes, std::uint64_t size)
{
    return bytes > size || addr > size - bytes;
}

/** Memory spaces visible to the ISA. */
enum class MemSpace : std::uint8_t {
    Global, ///< device memory, possibly cached in L1/L2
    Local,  ///< per-thread private (spills/stack), interleaved in DRAM
    Shared, ///< on-chip per-SM scratchpad
};

/** Memory space spellings (`ld.space`, `st.space`). */
inline constexpr Spelling<MemSpace> kMemSpaceSpellings[] = {
    {"global", MemSpace::Global},
    {"local", MemSpace::Local},
    {"shared", MemSpace::Shared},
};

} // namespace gpulat

#endif // GPULAT_COMMON_TYPES_HH
