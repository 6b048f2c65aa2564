#include "microbench/sweep.hh"

#include "common/log.hh"

namespace gpulat {

std::vector<LatencyCurvePoint>
sweepFootprints(const GpuConfig &cfg,
                const std::vector<std::uint64_t> &footprints,
                const SweepOptions &opts)
{
    std::vector<LatencyCurvePoint> curve;
    for (const std::uint64_t fp : footprints) {
        GpuConfig point_cfg = cfg;
        if (opts.space == MemSpace::Local)
            point_cfg.localBytesPerThread = fp;

        Gpu gpu(point_cfg);
        PChaseConfig pc;
        pc.space = opts.space;
        pc.footprintBytes = fp;
        pc.strideBytes = opts.strideBytes;
        pc.timedAccesses = opts.timedAccesses;
        pc.warmup = fp <= opts.warmupMaxFootprint;
        const PChaseResult r = runPointerChase(gpu, pc);
        if (!r.chainOk)
            fatal("pointer chase at footprint ", fp,
                  " B did not follow its chain");
        curve.push_back(LatencyCurvePoint{fp, r.cyclesPerAccess});
    }
    return curve;
}

std::vector<StrideCurvePoint>
sweepStrides(const GpuConfig &cfg, std::uint64_t footprint_bytes,
             const std::vector<std::uint64_t> &strides,
             const SweepOptions &opts)
{
    std::vector<StrideCurvePoint> curve;
    for (const std::uint64_t stride : strides) {
        GpuConfig point_cfg = cfg;
        if (opts.space == MemSpace::Local)
            point_cfg.localBytesPerThread = footprint_bytes;

        Gpu gpu(point_cfg);
        PChaseConfig pc;
        pc.space = opts.space;
        pc.footprintBytes = footprint_bytes;
        pc.strideBytes = stride;
        pc.timedAccesses = opts.timedAccesses;
        pc.warmup = footprint_bytes <= opts.warmupMaxFootprint;
        const PChaseResult r = runPointerChase(gpu, pc);
        if (!r.chainOk)
            fatal("pointer chase at stride ", stride, " B (footprint ",
                  footprint_bytes, " B) did not follow its chain");
        curve.push_back(StrideCurvePoint{stride, r.cyclesPerAccess});
    }
    return curve;
}

} // namespace gpulat
