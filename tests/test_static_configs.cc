/**
 * @file
 * Table-I calibration tests: the measured pointer-chase latencies on
 * each per-generation config must reproduce the paper's values
 * (within a small tolerance), and the structural properties the
 * paper highlights must hold (Kepler L1 is local-only, Maxwell has
 * no L1, Tesla has no caches, latencies grew after Kepler).
 */

#include <gtest/gtest.h>

#include "microbench/table1.hh"

namespace gpulat {
namespace {

/** Measure the full table once for all tests in this file. */
const std::vector<Table1Column> &
measured()
{
    static const std::vector<Table1Column> table = measureTable1();
    return table;
}

constexpr double kTolerance = 0.03; // 3 %

void
expectNear(const std::optional<double> &measured_value, double paper)
{
    ASSERT_TRUE(measured_value.has_value());
    EXPECT_NEAR(*measured_value, paper, paper * kTolerance);
}

TEST(Table1, ColumnsAreTheFourGenerations)
{
    const auto &t = measured();
    ASSERT_EQ(t.size(), 4u);
    EXPECT_EQ(t[0].gpu, "gt200");
    EXPECT_EQ(t[1].gpu, "gf106");
    EXPECT_EQ(t[2].gpu, "gk104");
    EXPECT_EQ(t[3].gpu, "gm107");
}

TEST(Table1, TeslaHasNoCachesAndDram440)
{
    const Table1Column &gt200 = measured()[0];
    EXPECT_FALSE(gt200.l1.has_value());
    EXPECT_FALSE(gt200.l2.has_value());
    expectNear(gt200.dram, 440.0);
}

TEST(Table1, FermiMatchesPaper)
{
    const Table1Column &gf106 = measured()[1];
    expectNear(gf106.l1, 45.0);
    expectNear(gf106.l2, 310.0);
    expectNear(gf106.dram, 685.0);
}

TEST(Table1, KeplerMatchesPaper)
{
    const Table1Column &gk104 = measured()[2];
    expectNear(gk104.l1, 30.0); // via local space
    expectNear(gk104.l2, 175.0);
    expectNear(gk104.dram, 300.0);
}

TEST(Table1, MaxwellMatchesPaper)
{
    const Table1Column &gm107 = measured()[3];
    EXPECT_FALSE(gm107.l1.has_value());
    expectNear(gm107.l2, 194.0);
    expectNear(gm107.dram, 350.0);
}

TEST(Table1, MaxwellSlowerThanKeplerEverywhere)
{
    // The paper: "effectively making Maxwell's global/local memory
    // pipeline slower than Kepler's on every level".
    const Table1Column &gk104 = measured()[2];
    const Table1Column &gm107 = measured()[3];
    EXPECT_GT(*gm107.l2, *gk104.l2);
    EXPECT_GT(*gm107.dram, *gk104.dram);
}

TEST(Table1, FermiDramIsTheLargestLatency)
{
    const auto &t = measured();
    for (const auto &col : t) {
        if (col.gpu != "gf106") {
            EXPECT_GT(*t[1].dram, *col.dram);
        }
    }
}

TEST(Table1, StructuralFlagsMatchThePaper)
{
    // Kepler: L1 must not serve global accesses.
    const GpuConfig gk104 = makeGK104();
    EXPECT_TRUE(gk104.sm.l1Enabled);
    EXPECT_FALSE(gk104.sm.l1CachesGlobal);
    EXPECT_TRUE(gk104.sm.l1CachesLocal);

    // Maxwell: no L1 at all.
    EXPECT_FALSE(makeGM107().sm.l1Enabled);

    // Tesla: neither L1 nor L2.
    const GpuConfig gt200 = makeGT200();
    EXPECT_FALSE(gt200.sm.l1Enabled);
    EXPECT_FALSE(gt200.partition.l2Enabled);

    // Fermi: both, with global caching.
    const GpuConfig gf106 = makeGF106();
    EXPECT_TRUE(gf106.sm.l1Enabled);
    EXPECT_TRUE(gf106.sm.l1CachesGlobal);
}

TEST(Table1, ConfigLookupByName)
{
    EXPECT_EQ(makeConfig("gf106").name, "gf106");
    EXPECT_EQ(makeConfig("gf100-sim").name, "gf100-sim");
    EXPECT_THROW(makeConfig("gp100"), FatalError);
}

} // namespace
} // namespace gpulat
