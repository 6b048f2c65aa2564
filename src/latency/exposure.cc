#include "latency/exposure.hh"

#include <algorithm>
#include <sstream>

#include "common/log.hh"
#include "common/table.hh"

namespace gpulat {

ExposureBreakdown
computeExposure(const std::vector<ExposureRecord> &records,
                std::size_t num_buckets)
{
    GPULAT_ASSERT(num_buckets > 0, "need at least one bucket");
    ExposureBreakdown eb;
    eb.loads = records.size();
    if (records.empty())
        return eb;

    Cycle lo = records.front().total;
    Cycle hi = lo;
    for (const auto &r : records) {
        lo = std::min(lo, r.total);
        hi = std::max(hi, r.total);
    }
    eb.minLatency = lo;
    eb.maxLatency = hi;

    const double span = hi > lo ? static_cast<double>(hi - lo) : 1.0;
    eb.buckets.resize(num_buckets);
    for (std::size_t b = 0; b < num_buckets; ++b) {
        eb.buckets[b].lo = lo + static_cast<Cycle>(
            span * static_cast<double>(b) /
            static_cast<double>(num_buckets));
        eb.buckets[b].hi = lo + static_cast<Cycle>(
            span * static_cast<double>(b + 1) /
            static_cast<double>(num_buckets));
    }

    for (const auto &r : records) {
        auto idx = static_cast<std::size_t>(
            static_cast<double>(r.total - lo) / span *
            static_cast<double>(num_buckets));
        if (idx >= num_buckets)
            idx = num_buckets - 1;
        ExposureBucket &bucket = eb.buckets[idx];
        ++bucket.count;
        bucket.totalCycles += r.total;
        bucket.exposedCycles += r.exposed;
    }
    return eb;
}

double
ExposureBreakdown::overallExposedPct() const
{
    std::uint64_t total = 0;
    std::uint64_t exposed = 0;
    for (const auto &bucket : buckets) {
        total += bucket.totalCycles;
        exposed += bucket.exposedCycles;
    }
    return total == 0 ? 0.0
                      : 100.0 * static_cast<double>(exposed) /
                            static_cast<double>(total);
}

double
ExposureBreakdown::fractionOfLoadsMostlyExposed() const
{
    std::uint64_t n = 0;
    std::uint64_t mostly = 0;
    for (const auto &bucket : buckets) {
        n += bucket.count;
        if (bucket.exposedPct() > 50.0)
            mostly += bucket.count;
    }
    return n == 0 ? 0.0
                  : static_cast<double>(mostly) /
                        static_cast<double>(n);
}

std::string
ExposureBreakdown::bucketLabel(std::size_t i) const
{
    std::ostringstream oss;
    oss << buckets[i].lo << "-" << buckets[i].hi;
    return oss.str();
}

void
ExposureBreakdown::printChart(std::ostream &os,
                              std::size_t width) const
{
    StackedBarChart chart({"exposed latency", "hidden latency"},
                          width);
    for (std::size_t b = 0; b < buckets.size(); ++b) {
        if (buckets[b].count == 0)
            continue;
        chart.addBar(bucketLabel(b),
                     {buckets[b].exposedPct(), buckets[b].hiddenPct()},
                     "n=" + std::to_string(buckets[b].count));
    }
    chart.print(os);
}

} // namespace gpulat
