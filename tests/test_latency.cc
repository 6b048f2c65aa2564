/**
 * @file
 * Unit + property tests for the latency analysis core: stage
 * attribution, breakdown bucketization, exposure accounting and
 * plateau detection.
 */

#include <gtest/gtest.h>

#include "common/log.hh"
#include "common/random.hh"
#include "latency/breakdown.hh"
#include "latency/exposure.hh"
#include "latency/stages.hh"
#include "latency/static_analyzer.hh"
#include "latency/summary.hh"

namespace gpulat {
namespace {

LatencyTrace
dramTrace(Cycle issue = 100)
{
    LatencyTrace t;
    t.issue = issue;
    t.l1Access = issue + 15;
    t.icntInject = issue + 25;
    t.ropEnq = issue + 70;
    t.l2Enq = issue + 95;
    t.dramEnq = issue + 130;
    t.dramSched = issue + 180;
    t.dramData = issue + 500;
    t.complete = issue + 560;
    t.hitLevel = HitLevel::Dram;
    return t;
}

TEST(Stages, L1HitAttributesEverythingToSmBase)
{
    LatencyTrace t;
    t.issue = 10;
    t.l1Access = 25;
    t.complete = 55;
    t.hitLevel = HitLevel::L1;
    const auto stages = t.stageCycles();
    EXPECT_EQ(stages[static_cast<std::size_t>(Stage::SmBase)], 45u);
    Cycle sum = 0;
    for (auto v : stages)
        sum += v;
    EXPECT_EQ(sum, t.total());
}

TEST(Stages, L2HitSplitsAcrossFiveStages)
{
    LatencyTrace t;
    t.issue = 0;
    t.l1Access = 15;
    t.icntInject = 20;
    t.ropEnq = 60;
    t.l2Enq = 85;
    t.l2Done = 200;
    t.complete = 260;
    t.hitLevel = HitLevel::L2;
    const auto stages = t.stageCycles();
    EXPECT_EQ(stages[static_cast<std::size_t>(Stage::SmBase)], 15u);
    EXPECT_EQ(stages[static_cast<std::size_t>(Stage::L1ToIcnt)], 5u);
    EXPECT_EQ(stages[static_cast<std::size_t>(Stage::IcntToRop)], 40u);
    EXPECT_EQ(stages[static_cast<std::size_t>(Stage::RopToL2Q)], 25u);
    EXPECT_EQ(stages[static_cast<std::size_t>(Stage::L2QToDramQ)],
              115u);
    EXPECT_EQ(stages[static_cast<std::size_t>(Stage::FetchToSm)], 60u);
    EXPECT_EQ(stages[static_cast<std::size_t>(Stage::DramQToSched)],
              0u);
}

TEST(Stages, DramTraceSumsToTotal)
{
    const LatencyTrace t = dramTrace();
    Cycle sum = 0;
    for (auto v : t.stageCycles())
        sum += v;
    EXPECT_EQ(sum, t.total());
    EXPECT_EQ(t.total(), 560u);
}

/** Property: random monotone traces always sum to their total. */
TEST(StagesProperty, StageDecompositionAlwaysSumsToTotal)
{
    Rng rng(3);
    for (int trial = 0; trial < 1000; ++trial) {
        LatencyTrace t;
        Cycle c = rng.below(1000);
        t.issue = c;
        c += 1 + rng.below(50);
        t.l1Access = c;
        const int kind = static_cast<int>(rng.below(3));
        if (kind == 0) {
            t.hitLevel = HitLevel::L1;
            c += 1 + rng.below(100);
            t.complete = c;
        } else {
            c += 1 + rng.below(50);
            t.icntInject = c;
            c += 1 + rng.below(50);
            t.ropEnq = c;
            c += 1 + rng.below(50);
            t.l2Enq = c;
            if (kind == 1) {
                t.hitLevel = HitLevel::L2;
                c += 1 + rng.below(200);
                t.l2Done = c;
            } else {
                t.hitLevel = HitLevel::Dram;
                c += 1 + rng.below(100);
                t.dramEnq = c;
                c += 1 + rng.below(300);
                t.dramSched = c;
                c += 1 + rng.below(400);
                t.dramData = c;
            }
            c += 1 + rng.below(100);
            t.complete = c;
        }
        Cycle sum = 0;
        for (auto v : t.stageCycles())
            sum += v;
        EXPECT_EQ(sum, t.total()) << "trial " << trial;
    }
}

TEST(Breakdown, EmptyInputYieldsEmptyBreakdown)
{
    const Breakdown bd = computeBreakdown({}, 48);
    EXPECT_EQ(bd.requests, 0u);
    EXPECT_TRUE(bd.buckets.empty());
}

TEST(Breakdown, SingleTraceLandsInLastBucket)
{
    const Breakdown bd = computeBreakdown({dramTrace()}, 8);
    EXPECT_EQ(bd.requests, 1u);
    std::uint64_t count = 0;
    for (const auto &bucket : bd.buckets)
        count += bucket.count;
    EXPECT_EQ(count, 1u);
}

TEST(Breakdown, BucketsSpanObservedRange)
{
    std::vector<LatencyTrace> traces;
    for (Cycle issue : {0u, 100u, 200u}) {
        LatencyTrace t = dramTrace(issue);
        t.complete = t.issue + 560 + issue; // totals 560, 660, 760
        traces.push_back(t);
    }
    const Breakdown bd = computeBreakdown(traces, 10);
    EXPECT_EQ(bd.minLatency, 560u);
    EXPECT_EQ(bd.maxLatency, 760u);
    EXPECT_EQ(bd.buckets.front().lo, 560u);
    EXPECT_EQ(bd.buckets.back().hi, 760u);
}

TEST(Breakdown, CountsAreConserved)
{
    Rng rng(7);
    std::vector<LatencyTrace> traces;
    for (int i = 0; i < 500; ++i) {
        LatencyTrace t = dramTrace();
        t.complete = t.issue + 300 + rng.below(1000);
        // keep monotonicity: dramData must stay below complete
        t.dramData = std::min(t.dramData, t.complete - 1);
        t.dramSched = std::min(t.dramSched, t.dramData);
        traces.push_back(t);
    }
    const Breakdown bd = computeBreakdown(traces, 48);
    std::uint64_t count = 0;
    for (const auto &bucket : bd.buckets)
        count += bucket.count;
    EXPECT_EQ(count, traces.size());
}

TEST(Breakdown, StagePercentagesSumTo100PerNonEmptyBucket)
{
    std::vector<LatencyTrace> traces{dramTrace(0), dramTrace(50)};
    const Breakdown bd = computeBreakdown(traces, 4);
    for (const auto &bucket : bd.buckets) {
        if (bucket.count == 0)
            continue;
        double sum = 0.0;
        for (std::size_t s = 0; s < kNumStages; ++s)
            sum += bucket.stagePct(static_cast<Stage>(s));
        EXPECT_NEAR(sum, 100.0, 1e-9);
    }
}

TEST(Exposure, PercentagesPartition)
{
    std::vector<ExposureRecord> records{{100, 30}, {100, 70}};
    const ExposureBreakdown eb = computeExposure(records, 1);
    EXPECT_NEAR(eb.buckets[0].exposedPct(), 50.0, 1e-9);
    EXPECT_NEAR(eb.buckets[0].hiddenPct(), 50.0, 1e-9);
}

TEST(Exposure, OverallExposedWeightsByCycles)
{
    std::vector<ExposureRecord> records{{100, 100}, {300, 0}};
    const ExposureBreakdown eb = computeExposure(records, 4);
    EXPECT_NEAR(eb.overallExposedPct(), 25.0, 1e-9);
}

TEST(Exposure, MostlyExposedFraction)
{
    // Two well-separated buckets: one fully exposed, one hidden.
    std::vector<ExposureRecord> records{{100, 100}, {1000, 0}};
    const ExposureBreakdown eb = computeExposure(records, 2);
    EXPECT_NEAR(eb.fractionOfLoadsMostlyExposed(), 0.5, 1e-9);
}

TEST(Exposure, EmptyInput)
{
    const ExposureBreakdown eb = computeExposure({}, 48);
    EXPECT_EQ(eb.loads, 0u);
    EXPECT_EQ(eb.overallExposedPct(), 0.0);
}

TEST(Plateaus, SingleFlatCurveIsOneLevel)
{
    std::vector<LatencyCurvePoint> curve{
        {1024, 440.0}, {2048, 441.0}, {4096, 440.5}};
    const auto levels = detectPlateaus(curve);
    ASSERT_EQ(levels.size(), 1u);
    EXPECT_NEAR(levels[0].latency, 440.5, 1.0);
}

TEST(Plateaus, ThreeLevelHierarchyDetected)
{
    std::vector<LatencyCurvePoint> curve{
        {4096, 45.0},    {8192, 45.2},    {16384, 45.1},
        {32768, 310.0},  {65536, 310.4},  {131072, 309.8},
        {262144, 684.0}, {524288, 685.0}, {1048576, 685.5},
    };
    const auto levels = detectPlateaus(curve);
    ASSERT_EQ(levels.size(), 3u);
    EXPECT_NEAR(levels[0].latency, 45.1, 0.5);
    EXPECT_NEAR(levels[1].latency, 310.0, 1.0);
    EXPECT_NEAR(levels[2].latency, 685.0, 1.0);
    EXPECT_EQ(levels[0].maxFootprint, 16384u);
    EXPECT_EQ(levels[1].maxFootprint, 131072u);
}

TEST(Plateaus, NoiseBelowThresholdIsAbsorbed)
{
    std::vector<LatencyCurvePoint> curve{
        {1024, 100.0}, {2048, 108.0}, {4096, 95.0}, {8192, 104.0}};
    EXPECT_EQ(detectPlateaus(curve, 0.15).size(), 1u);
}

TEST(Plateaus, RejectsUnsortedCurve)
{
    std::vector<LatencyCurvePoint> curve{{2048, 1.0}, {1024, 2.0}};
    EXPECT_THROW(detectPlateaus(curve), PanicError);
}

TEST(Plateaus, EmptyCurveYieldsNoLevels)
{
    EXPECT_TRUE(detectPlateaus({}).empty());
}

TEST(Summary, SplitsByHitLevel)
{
    std::vector<LatencyTrace> traces;
    for (int i = 0; i < 10; ++i) {
        LatencyTrace t;
        t.issue = 0;
        t.l1Access = 15;
        t.complete = 40 + static_cast<Cycle>(i);
        t.hitLevel = HitLevel::L1;
        traces.push_back(t);
    }
    traces.push_back(dramTrace());
    const LatencySummary s = computeSummary(traces);
    EXPECT_EQ(s.at(HitLevel::L1).count, 10u);
    EXPECT_EQ(s.at(HitLevel::L1).min, 40u);
    EXPECT_EQ(s.at(HitLevel::L1).max, 49u);
    EXPECT_NEAR(s.at(HitLevel::L1).mean, 44.5, 1e-9);
    EXPECT_EQ(s.at(HitLevel::Dram).count, 1u);
    EXPECT_EQ(s.at(HitLevel::L2).count, 0u);
}

TEST(Summary, PercentilesAreOrdered)
{
    std::vector<LatencyTrace> traces;
    for (int i = 0; i < 100; ++i) {
        LatencyTrace t = dramTrace();
        t.complete = t.issue + 500 + static_cast<Cycle>(i * 13);
        t.dramData = std::min(t.dramData, t.complete - 1);
        traces.push_back(t);
    }
    const LatencySummary s = computeSummary(traces);
    const LevelSummary &d = s.at(HitLevel::Dram);
    EXPECT_LE(d.min, d.p50);
    EXPECT_LE(d.p50, d.p90);
    EXPECT_LE(d.p90, d.p99);
    EXPECT_LE(d.p99, d.max);
}

TEST(LineSize, RecoversSaturationPoint)
{
    // stride/line miss mixing: latency = hit + (s/128)*(miss-hit).
    std::vector<StrideCurvePoint> curve;
    for (std::uint64_t s = 8; s <= 512; s *= 2) {
        const double frac = std::min(1.0, static_cast<double>(s) / 128.0);
        curve.push_back(StrideCurvePoint{s, 45.0 + frac * (685.0 - 45.0)});
    }
    EXPECT_EQ(detectLineSize(curve), 128u);
}

TEST(LineSize, FlatCurveMeansNoCache)
{
    std::vector<StrideCurvePoint> curve{
        {8, 440.0}, {64, 441.0}, {128, 440.2}, {512, 440.9}};
    EXPECT_EQ(detectLineSize(curve), 0u);
}

TEST(LineSize, RejectsUnsortedCurve)
{
    std::vector<StrideCurvePoint> curve{{64, 1.0}, {8, 2.0}};
    EXPECT_THROW(detectLineSize(curve), PanicError);
}

/** Property: synthetic staircases of random height/width are
 *  recovered exactly. */
TEST(PlateausProperty, RecoversRandomStaircases)
{
    Rng rng(21);
    for (int trial = 0; trial < 100; ++trial) {
        const std::size_t nlevels = 1 + rng.below(4);
        std::vector<LatencyCurvePoint> curve;
        std::vector<double> lats;
        double lat = 30.0 + static_cast<double>(rng.below(50));
        std::uint64_t fp = 1024;
        for (std::size_t l = 0; l < nlevels; ++l) {
            lats.push_back(lat);
            const std::size_t pts = 2 + rng.below(3);
            for (std::size_t i = 0; i < pts; ++i) {
                curve.push_back(LatencyCurvePoint{
                    fp, lat + rng.uniform() * lat * 0.02});
                fp *= 2;
            }
            lat *= 1.5 + rng.uniform(); // clear jump
        }
        const auto levels = detectPlateaus(curve);
        ASSERT_EQ(levels.size(), nlevels) << "trial " << trial;
        for (std::size_t l = 0; l < nlevels; ++l)
            EXPECT_NEAR(levels[l].latency, lats[l], lats[l] * 0.05);
    }
}

} // namespace
} // namespace gpulat
