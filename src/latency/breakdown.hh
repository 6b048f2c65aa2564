/**
 * @file
 * Figure-1 analysis: bucket completed memory requests by total
 * latency and break each bucket down into pipeline-stage
 * percentages.
 */

#ifndef GPULAT_LATENCY_BREAKDOWN_HH
#define GPULAT_LATENCY_BREAKDOWN_HH

#include <array>
#include <ostream>
#include <vector>

#include "latency/stages.hh"

namespace gpulat {

/** One latency bucket of the breakdown. */
struct BreakdownBucket
{
    Cycle lo = 0; ///< inclusive
    Cycle hi = 0; ///< exclusive (inclusive for the last bucket)
    std::uint64_t count = 0;
    /** Total cycles spent in each stage by this bucket's requests. */
    std::array<std::uint64_t, kNumStages> stageSum{};

    /** Stage share in percent of the bucket's total latency. */
    double
    stagePct(Stage s) const
    {
        std::uint64_t total = 0;
        for (auto v : stageSum)
            total += v;
        if (total == 0)
            return 0.0;
        return 100.0 *
               static_cast<double>(
                   stageSum[static_cast<std::size_t>(s)]) /
               static_cast<double>(total);
    }
};

/** The full per-bucket breakdown (the data behind Figure 1). */
struct Breakdown
{
    std::vector<BreakdownBucket> buckets;
    Cycle minLatency = 0;
    Cycle maxLatency = 0;
    std::uint64_t requests = 0;
    /** Aggregate cycles per stage across all requests. */
    std::array<std::uint64_t, kNumStages> totalByStage{};

    /** Paper-style "lo-hi" label for bucket @p i. */
    std::string bucketLabel(std::size_t i) const;

    /** Render as an ASCII stacked-bar chart (Figure 1 lookalike). */
    void printChart(std::ostream &os, std::size_t width = 60) const;
};

/**
 * Compute the breakdown.
 *
 * @param traces completed request traces.
 * @param num_buckets linear buckets between observed min and max
 *        total latency (the paper uses 48).
 */
Breakdown computeBreakdown(const std::vector<LatencyTrace> &traces,
                           std::size_t num_buckets = 48);

} // namespace gpulat

#endif // GPULAT_LATENCY_BREAKDOWN_HH
