/**
 * @file
 * Figure-2 analysis: per latency bucket, which fraction of global
 * load latency was exposed (the SM issued nothing) versus hidden
 * (covered by other warps' work).
 */

#ifndef GPULAT_LATENCY_EXPOSURE_HH
#define GPULAT_LATENCY_EXPOSURE_HH

#include <ostream>
#include <vector>

#include "latency/collector.hh"

namespace gpulat {

/** One bucket of the exposure breakdown. */
struct ExposureBucket
{
    Cycle lo = 0;
    Cycle hi = 0;
    std::uint64_t count = 0;
    std::uint64_t totalCycles = 0;
    std::uint64_t exposedCycles = 0;

    double
    exposedPct() const
    {
        return totalCycles == 0
            ? 0.0
            : 100.0 * static_cast<double>(exposedCycles) /
                  static_cast<double>(totalCycles);
    }

    double hiddenPct() const { return 100.0 - exposedPct(); }
};

/** The full exposure breakdown (the data behind Figure 2). */
struct ExposureBreakdown
{
    std::vector<ExposureBucket> buckets;
    Cycle minLatency = 0;
    Cycle maxLatency = 0;
    std::uint64_t loads = 0;

    /** Aggregate exposed share over every load, percent. */
    double overallExposedPct() const;

    /** Loads (weighted by count) whose bucket is >50% exposed. */
    double fractionOfLoadsMostlyExposed() const;

    std::string bucketLabel(std::size_t i) const;
    void printChart(std::ostream &os, std::size_t width = 60) const;
};

/** Bucket per-load exposure records (48 linear buckets, like Fig 2). */
ExposureBreakdown
computeExposure(const std::vector<ExposureRecord> &records,
                std::size_t num_buckets = 48);

} // namespace gpulat

#endif // GPULAT_LATENCY_EXPOSURE_HH
