/**
 * @file
 * Config-level sanity tests: partition interleaving, preset
 * invariants, and launch-time validation.
 */

#include <gtest/gtest.h>

#include "api/config_override.hh"
#include "gpu/gpu.hh"
#include "isa/assembler.hh"

namespace gpulat {
namespace {

TEST(Config, PartitionMapRoundRobinsLines)
{
    GpuConfig cfg = makeGF100Sim();
    ASSERT_EQ(cfg.numPartitions, 6u);
    for (Addr line = 0; line < 64; ++line) {
        EXPECT_EQ(cfg.partitionOf(line * 128),
                  static_cast<unsigned>(line % 6));
        // All addresses within one line map to the same partition.
        EXPECT_EQ(cfg.partitionOf(line * 128),
                  cfg.partitionOf(line * 128 + 127));
    }
}

TEST(Config, TotalL2AggregatesSlices)
{
    const GpuConfig gf106 = makeGF106();
    EXPECT_EQ(gf106.totalL2Bytes(),
              gf106.partition.l2Cache.capacityBytes *
                  gf106.numPartitions);
    EXPECT_EQ(makeGT200().totalL2Bytes(), 0u);
}

TEST(Config, Gf100MatchesThePapersMachine)
{
    const GpuConfig cfg = makeGF100Sim();
    EXPECT_EQ(cfg.numSms, 15u);
    EXPECT_EQ(cfg.numPartitions, 6u);
    EXPECT_EQ(cfg.sm.warpSlots, 48u);
    EXPECT_EQ(cfg.partition.sched, DramSchedPolicy::FRFCFS);
}

TEST(Config, L2WritePolicyIsWriteBackEverywhere)
{
    for (const char *name :
         {"gf106", "gk104", "gm107", "gf100-sim"}) {
        const GpuConfig cfg = makeConfig(name);
        EXPECT_EQ(cfg.partition.l2Cache.write, WritePolicy::WriteBack)
            << name;
        EXPECT_EQ(cfg.sm.l1Cache.write, WritePolicy::WriteThrough)
            << name;
    }
}

TEST(LaunchValidation, TooManyParamsIsFatal)
{
    Gpu gpu(makeGF106());
    const Kernel k = assemble("exit\n");
    const std::vector<RegValue> params(kMaxParams + 1, 0);
    EXPECT_THROW(gpu.launch(k, 1, 32, params), FatalError);
}

TEST(LaunchValidation, DeviceMemoryExhaustionIsFatal)
{
    GpuConfig cfg = makeGF106();
    cfg.deviceMemBytes = 1024 * 1024;
    Gpu gpu(cfg);
    gpu.alloc(512 * 1024);
    EXPECT_THROW(gpu.alloc(1024 * 1024), FatalError);
}

TEST(LaunchValidation, OutOfRangeAccessIsFatal)
{
    Gpu gpu(makeGF106());
    const Kernel k = assemble(R"(
        mov r1, 0x40000000
        ld.global r2, [r1]
        st.global [r1], r2
        exit
    )");
    EXPECT_THROW(gpu.launch(k, 1, 1, {}), FatalError);
}

TEST(LaunchValidation, LocalOverflowIsFatal)
{
    GpuConfig cfg = makeGF106();
    cfg.localBytesPerThread = 64;
    Gpu gpu(cfg);
    const Kernel k = assemble(R"(
        mov r1, 128
        st.local [r1], r1
        exit
    )");
    EXPECT_THROW(gpu.launch(k, 1, 1, {}), FatalError);
}

TEST(LaunchValidation, SharedOverflowIsFatal)
{
    Gpu gpu(makeGF106());
    const Kernel k = assemble(R"(
        .shared 64
        mov r1, 128
        st.shared [r1], r1
        exit
    )");
    EXPECT_THROW(gpu.launch(k, 1, 1, {}), FatalError);
}

TEST(LaunchValidation, WrappingAddressIsFatal)
{
    // -4 + 8 wraps to 4, so a range check written as addr + 8 > size
    // lets these accesses through to host memory outside the buffer.
    GpuConfig cfg = makeGF106();
    cfg.deviceMemBytes = 1024 * 1024;
    cfg.localBytesPerThread = 64;
    for (const char *access :
         {"ld.global r2, [r1]", "st.global [r1], r1",
          "ld.shared r2, [r1]", "st.shared [r1], r1",
          "st.local [r1], r1", "atom.add r2, [r1], r1"}) {
        Gpu gpu(cfg);
        const Kernel k = assemble(std::string(".shared 64\n"
                                              "mov r1, -4\n") +
                                  access + "\nexit\n");
        EXPECT_THROW(gpu.launch(k, 1, 1, {}), FatalError) << access;
    }
}

TEST(LaunchValidation, BadShapesNameTheirKey)
{
    for (const std::string bad :
         {"sm.lineBytes=4", "sm.lineBytes=0", "sm.lineBytes=96",
          "sm.lineBytes=65536", "numSms=0", "numPartitions=0"}) {
        GpuConfig cfg = makeGF106();
        applyOverride(cfg, bad);
        const std::string key = bad.substr(0, bad.find('='));
        try {
            Gpu gpu(cfg);
            ADD_FAILURE() << bad << " accepted";
        } catch (const FatalError &e) {
            const std::string what = e.what();
            EXPECT_NE(what.find(key), std::string::npos) << what;
        }
    }
    // With the L1 off, the L2 is the cache a huge line leaves
    // without a set.
    GpuConfig cfg = makeGF106();
    cfg.sm.l1Enabled = false;
    cfg.sm.lineBytes = 65536;
    try {
        Gpu gpu(cfg);
        ADD_FAILURE() << "a 64 KiB line accepted";
    } catch (const FatalError &e) {
        const std::string what = e.what();
        EXPECT_NE(what.find("partition.l2Cache"), std::string::npos)
            << what;
    }
}

TEST(LaunchValidation, AllPresetsRunAKernel)
{
    for (const char *name :
         {"gt200", "gf106", "gk104", "gm107", "gf100-sim"}) {
        GpuConfig cfg = makeConfig(name);
        cfg.deviceMemBytes = 8 * 1024 * 1024;
        Gpu gpu(cfg);
        const Kernel k = assemble(R"(
            s2r r0, tid
            shl r1, r0, 3
            mov r2, param0
            iadd r2, r2, r1
            st.global [r2], r0
            exit
        )");
        const Addr buf = gpu.alloc(64 * 8);
        gpu.launch(k, 2, 32, {buf});
        std::uint64_t v = 0;
        gpu.copyFromDevice(&v, buf + 5 * 8, 8);
        EXPECT_EQ(v, 5u) << name;
    }
}

} // namespace
} // namespace gpulat
