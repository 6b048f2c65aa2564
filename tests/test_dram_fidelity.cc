/**
 * @file
 * Whole-GPU tests for the memory-fidelity axes: the ddr DRAM timing
 * must be deterministic across engine execution knobs (fast-forward
 * modes, tick jobs), the default simple timing must be unaffected by
 * the new knobs' defaults, and the new counters must actually move
 * under load.
 */

#include <string>
#include <vector>

#include <gtest/gtest.h>

#include "api/experiment.hh"

namespace gpulat {
namespace {

/** A short but DRAM-heavy run: streaming vecadd on the calibrated
 *  sim preset, small enough for unit-test latency. */
ExperimentSpec
baseSpec(std::vector<std::string> overrides)
{
    ExperimentSpec spec;
    spec.gpu = "gf100-sim";
    spec.workload = "vecadd";
    spec.params = {"n=8192"};
    spec.overrides = std::move(overrides);
    return spec;
}

/** Overrides that exercise every ddr mechanism quickly: frequent
 *  refresh plus the full command FSM at its defaults. */
std::vector<std::string>
ddrOverrides()
{
    return {"mem.dram.model=ddr", "mem.dram.tREFI=2000",
            "mem.dram.tRFC=200"};
}

/** Simulated-outcome equality: cycles + metrics + unit counters,
 *  ignoring engine execution-shape telemetry (tick/skip counts and
 *  ff_skip_pct legitimately differ across engine knobs). */
void
expectSameOutcome(const ExperimentRecord &a, const ExperimentRecord &b,
                  const std::string &label)
{
    EXPECT_EQ(a.cycles, b.cycles) << label;
    EXPECT_EQ(a.instructions, b.instructions) << label;
    for (const auto &[k, v] : a.metrics) {
        if (k.rfind("ff_skip_pct.", 0) == 0)
            continue;
        ASSERT_TRUE(b.metrics.count(k)) << label << ": " << k;
        EXPECT_DOUBLE_EQ(v, b.metrics.at(k)) << label << ": " << k;
    }
    for (const auto &[k, v] : a.counters) {
        if (k.rfind("engine.", 0) == 0)
            continue;
        ASSERT_TRUE(b.counters.count(k)) << label << ": " << k;
        EXPECT_EQ(v, b.counters.at(k)) << label << ": " << k;
    }
}

TEST(DramFidelity, DdrIdenticalAcrossFastForwardModes)
{
    std::vector<ExperimentRecord> recs;
    for (const char *mode : {"off", "perDomain"}) {
        auto ov = ddrOverrides();
        ov.push_back(std::string("idleFastForward=") + mode);
        recs.push_back(runExperiment(baseSpec(std::move(ov))));
    }
    // Refresh must actually fire in the window this test covers,
    // otherwise fast-forward correctness is vacuous here.
    EXPECT_GT(recs[0].counters.at("dram.refreshes"), 0u);
    expectSameOutcome(recs[0], recs[1], "off vs perDomain");
}

TEST(DramFidelity, DdrIdenticalAcrossTickJobs)
{
    std::vector<ExperimentRecord> recs;
    for (const char *knob : {"engine.tickJobs=1", "engine.tickJobs=4"}) {
        auto ov = ddrOverrides();
        ov.push_back(knob);
        recs.push_back(runExperiment(baseSpec(std::move(ov))));
    }
    expectSameOutcome(recs[0], recs[1], "tickJobs 1 vs 4");
}

TEST(DramFidelity, SimpleModelUntouchedByNewKnobDefaults)
{
    const ExperimentRecord base = runExperiment(baseSpec({}));
    const ExperimentRecord spelled = runExperiment(baseSpec(
        {"mem.dram.model=simple", "mem.dram.map=row",
         "mem.dram.pagePolicy=open", "mem.dram.ranks=1",
         "mem.mshr.banks=1"}));
    expectSameOutcome(base, spelled, "default vs spelled-out");
    // The rd/wr split is live even on the simple model and
    // partitions the aggregate exactly.
    EXPECT_EQ(base.counters.at("dram.rd_row_hits") +
                  base.counters.at("dram.wr_row_hits"),
              base.counters.at("dram.row_hits"));
    EXPECT_EQ(base.metrics.at("dram_refresh_stall_cycles"), 0.0);
}

TEST(DramFidelity, SimpleTimingHonorsPagePolicyAndTimingKeys)
{
    // Under `simple`, the page policy and the mem.dram.t* keys used
    // to be ignored; they now apply on every config.
    const ExperimentRecord base = runExperiment(baseSpec({}));
    EXPECT_GT(base.counters.at("dram.row_hits"), 0u);
    const ExperimentRecord closed =
        runExperiment(baseSpec({"mem.dram.pagePolicy=closed"}));
    EXPECT_EQ(closed.counters.at("dram.row_hits"), 0u);
    const ExperimentRecord refresh = runExperiment(
        baseSpec({"mem.dram.tREFI=2000", "mem.dram.tRFC=200"}));
    EXPECT_GT(refresh.counters.at("dram.refreshes"), 0u);
}

TEST(DramFidelity, DdrRefreshAndConflictsMoveTheBreakdown)
{
    const ExperimentRecord rec =
        runExperiment(baseSpec(ddrOverrides()));
    EXPECT_GT(rec.metrics.at("dram_refresh_stall_cycles"), 0.0);
    EXPECT_GT(rec.metrics.at("dram_row_conflict_pct"), 0.0);
    // Per-bank-group counters partition the aggregate outcomes.
    std::uint64_t bg_total = 0;
    for (const auto &[k, v] : rec.counters) {
        if (k.rfind("dram.bg", 0) == 0)
            bg_total += v;
    }
    EXPECT_EQ(bg_total, rec.counters.at("dram.row_hits") +
                            rec.counters.at("dram.row_misses") +
                            rec.counters.at("dram.row_closed"));
    // And the ddr constraints cost latency vs the simple model.
    const ExperimentRecord simple = runExperiment(baseSpec({}));
    EXPECT_GT(rec.metrics.at("mean_load_latency"),
              simple.metrics.at("mean_load_latency"));
}

TEST(DramFidelity, AddressMapIsALiveAblationAxis)
{
    double mean[2];
    int i = 0;
    for (const char *map : {"mem.dram.map=row", "mem.dram.map=bg"}) {
        auto ov = ddrOverrides();
        ov.push_back(map);
        mean[i++] = runExperiment(baseSpec(std::move(ov)))
                        .metrics.at("mean_load_latency");
    }
    EXPECT_NE(mean[0], mean[1])
        << "bank-group interleave should shift activate spacing "
           "costs on a streaming sweep";
}

TEST(DramFidelity, MshrBankingIsALiveAblationAxis)
{
    // Squeeze the banked front-end: 8 entries over 8 banks leaves
    // one entry per bank, so hot banks conflict while the table
    // still has room.
    auto ov = ddrOverrides();
    ov.push_back("partition.l2MshrEntries=8");
    ov.push_back("mem.mshr.banks=8");
    const ExperimentRecord banked =
        runExperiment(baseSpec(std::move(ov)));
    EXPECT_GT(banked.metrics.at("mshr_bank_conflicts"), 0.0);

    auto flat_ov = ddrOverrides();
    flat_ov.push_back("partition.l2MshrEntries=8");
    const ExperimentRecord flat =
        runExperiment(baseSpec(std::move(flat_ov)));
    EXPECT_EQ(flat.metrics.at("mshr_bank_conflicts"), 0.0);
    EXPECT_NE(banked.metrics.at("mean_load_latency"),
              flat.metrics.at("mean_load_latency"));
}

} // namespace
} // namespace gpulat
