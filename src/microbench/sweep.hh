/**
 * @file
 * Footprint/stride sweep harness: runs the pointer chase across a
 * footprint ladder (fresh GPU per point so caches start cold and
 * device memory is plentiful) and returns the latency curve that
 * plateau detection consumes.
 */

#ifndef GPULAT_MICROBENCH_SWEEP_HH
#define GPULAT_MICROBENCH_SWEEP_HH

#include <cstdint>
#include <vector>

#include "gpu/gpu_config.hh"
#include "latency/static_analyzer.hh"
#include "microbench/pchase.hh"

namespace gpulat {

/** Sweep options shared by every point. */
struct SweepOptions
{
    MemSpace space = MemSpace::Global;
    std::uint64_t strideBytes = 128;
    std::uint64_t timedAccesses = 1024;
    /** Footprints above this skip the warm-up traversal (beyond all
     *  cache capacities a cold sweep misses everywhere anyway). */
    std::uint64_t warmupMaxFootprint = UINT64_MAX;
};

/**
 * Measure one latency-vs-footprint curve on configuration @p cfg.
 * A fresh Gpu is constructed per point; fatal() if a point's chase
 * did not follow its chain (PChaseResult::chainOk).
 */
std::vector<LatencyCurvePoint>
sweepFootprints(const GpuConfig &cfg,
                const std::vector<std::uint64_t> &footprints,
                const SweepOptions &opts);

/**
 * Measure a latency-vs-stride curve at a fixed footprint (the
 * paper's "varying both the stride as well as footprint"); with the
 * footprint above a cache's capacity the curve saturates at the
 * line size (see detectLineSize()). fatal() on an unverified point,
 * like sweepFootprints().
 */
std::vector<StrideCurvePoint>
sweepStrides(const GpuConfig &cfg, std::uint64_t footprint_bytes,
             const std::vector<std::uint64_t> &strides,
             const SweepOptions &opts);

} // namespace gpulat

#endif // GPULAT_MICROBENCH_SWEEP_HH
