#include "latency/breakdown.hh"

#include <algorithm>
#include <numeric>
#include <sstream>

#include "common/log.hh"
#include "common/table.hh"

namespace gpulat {

Breakdown
computeBreakdown(const std::vector<LatencyTrace> &traces,
                 std::size_t num_buckets)
{
    GPULAT_ASSERT(num_buckets > 0, "need at least one bucket");
    Breakdown bd;
    bd.requests = traces.size();
    if (traces.empty())
        return bd;

    Cycle lo = traces.front().total();
    Cycle hi = lo;
    for (const auto &t : traces) {
        lo = std::min(lo, t.total());
        hi = std::max(hi, t.total());
    }
    bd.minLatency = lo;
    bd.maxLatency = hi;

    const double span = hi > lo ? static_cast<double>(hi - lo) : 1.0;
    bd.buckets.resize(num_buckets);
    for (std::size_t b = 0; b < num_buckets; ++b) {
        bd.buckets[b].lo = lo + static_cast<Cycle>(
            span * static_cast<double>(b) /
            static_cast<double>(num_buckets));
        bd.buckets[b].hi = lo + static_cast<Cycle>(
            span * static_cast<double>(b + 1) /
            static_cast<double>(num_buckets));
    }

    for (const auto &t : traces) {
        auto idx = static_cast<std::size_t>(
            static_cast<double>(t.total() - lo) / span *
            static_cast<double>(num_buckets));
        if (idx >= num_buckets)
            idx = num_buckets - 1;
        BreakdownBucket &bucket = bd.buckets[idx];
        ++bucket.count;
        const auto stages = t.stageCycles();
        for (std::size_t s = 0; s < kNumStages; ++s) {
            bucket.stageSum[s] += stages[s];
            bd.totalByStage[s] += stages[s];
        }
    }
    return bd;
}

std::string
Breakdown::bucketLabel(std::size_t i) const
{
    std::ostringstream oss;
    oss << buckets[i].lo << "-" << buckets[i].hi;
    return oss.str();
}

void
Breakdown::printChart(std::ostream &os, std::size_t width) const
{
    std::vector<std::string> names;
    for (std::size_t s = 0; s < kNumStages; ++s)
        names.emplace_back(toString(static_cast<Stage>(s)));
    StackedBarChart chart(names, width);

    for (std::size_t b = 0; b < buckets.size(); ++b) {
        if (buckets[b].count == 0)
            continue;
        std::vector<double> parts;
        for (std::size_t s = 0; s < kNumStages; ++s)
            parts.push_back(static_cast<double>(buckets[b].stageSum[s]));
        chart.addBar(bucketLabel(b), std::move(parts),
                     "n=" + std::to_string(buckets[b].count));
    }
    chart.print(os);
}

} // namespace gpulat
