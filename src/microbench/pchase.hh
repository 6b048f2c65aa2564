/**
 * @file
 * Pointer-chase microbenchmark (the paper's §II methodology, after
 * Wong et al.): a single active thread chases pointers through
 * global or local memory; two clock-register reads bracket a chain
 * of dependent loads and the mean per-access latency falls out.
 */

#ifndef GPULAT_MICROBENCH_PCHASE_HH
#define GPULAT_MICROBENCH_PCHASE_HH

#include <cstdint>

#include "common/spelling.hh"
#include "gpu/gpu.hh"
#include "isa/kernel.hh"

namespace gpulat {

/** The spaces a chase runs in (`pchase space=`), as the ISA spells
 *  them. */
inline constexpr Spelling<MemSpace> kChaseSpaceSpellings[] = {
    {spell(kMemSpaceSpellings, MemSpace::Global), MemSpace::Global},
    {spell(kMemSpaceSpellings, MemSpace::Local), MemSpace::Local},
};

/** Parameters of one pointer-chase measurement. */
struct PChaseConfig
{
    MemSpace space = MemSpace::Global;
    std::uint64_t footprintBytes = 64 * 1024;
    std::uint64_t strideBytes = 128;
    /** Dependent accesses inside the timed window. */
    std::uint64_t timedAccesses = 2048;
    /** Upper bound on warm-up accesses (one full traversal is used
     *  when it fits under this cap). */
    std::uint64_t maxWarmupAccesses = 64 * 1024;
    bool warmup = true;
};

/** Result of one measurement. */
struct PChaseResult
{
    double cyclesPerAccess = 0.0;
    std::uint64_t timedAccesses = 0;
    Cycle timedCycles = 0;

    /** The final chase pointer landed where the chain predicts —
     *  the measurement provably followed every dependent load. */
    bool chainOk = false;
};

/**
 * Build the unrolled chase kernel: optional warm-up traversal, a
 * clock read, @p timed dependent loads, a second clock read, and a
 * store of the delta to param1. Global chases load absolute
 * addresses from param0; local chases load local-space offsets
 * starting at offset 0.
 */
Kernel buildChaseKernel(MemSpace space, std::uint64_t warmup_accesses,
                        std::uint64_t timed_accesses);

/**
 * Build the init kernel that writes a circular offset chain of
 * @p elems entries with @p stride spacing into the local memory of
 * thread 0 (local memory cannot be initialized from the host).
 */
Kernel buildLocalChainInitKernel(std::uint64_t elems,
                                 std::uint64_t stride);

/**
 * Run one pointer-chase measurement on @p gpu.
 *
 * For MemSpace::Local the GPU config's localBytesPerThread must be
 * at least footprintBytes.
 */
PChaseResult runPointerChase(Gpu &gpu, const PChaseConfig &cfg);

} // namespace gpulat

#endif // GPULAT_MICROBENCH_PCHASE_HH
