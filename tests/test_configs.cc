/**
 * @file
 * Config-level sanity tests: partition interleaving, preset
 * invariants, and launch-time validation.
 */

#include <chrono>
#include <sstream>
#include <string>
#include <vector>

#include <gtest/gtest.h>

#include "api/cli.hh"
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

TEST(LaunchValidation, BlockThatCanNeverFitNamesItsKey)
{
    // A block no empty SM can hold would wait for room until the
    // watchdog fires; each such launch is a named error instead.
    const Kernel k = assemble(R"(
        .shared 1024
        s2r r9, tid
        exit
    )");
    struct Case
    {
        const char *set;
        const char *key;
        unsigned threads;
    };
    for (const Case &c : {Case{"sm.warpSlots=4", "sm.warpSlots", 160},
                          Case{"sm.smemPerSm=512", "sm.smemPerSm", 32},
                          Case{"sm.regsPerSm=0", "sm.regsPerSm", 32},
                          Case{"sm.regsPerSm=64", "sm.regsPerSm", 32}}) {
        GpuConfig cfg = makeGF106();
        applyOverride(cfg, c.set);
        Gpu gpu(cfg);
        try {
            gpu.launch(k, 1, c.threads, {});
            ADD_FAILURE() << c.set << " launched";
        } catch (const FatalError &e) {
            const std::string what = e.what();
            EXPECT_NE(what.find(c.key), std::string::npos) << what;
        }
    }
    // A block that fits exactly still runs: 2 warps x 32 lanes x the
    // kernel's registers.
    GpuConfig cfg = makeGF106();
    cfg.sm.regsPerSm = 64 * static_cast<unsigned>(k.numRegs);
    Gpu gpu(cfg);
    EXPECT_NO_THROW(gpu.launch(k, 2, 64, {}));
}

/** `gpulat run --no-table ARGS` in process: exit code and stderr. */
int
runGpulat(const std::vector<std::string> &args, std::string &err)
{
    std::vector<const char *> argv = {"gpulat", "run", "--no-table"};
    for (const std::string &arg : args)
        argv.push_back(arg.c_str());
    std::ostringstream out;
    std::ostringstream errs;
    const int rc = runCli(static_cast<int>(argv.size()), argv.data(),
                          out, errs);
    err = errs.str();
    return rc;
}

TEST(Validation, EveryBadInputExitsTwoByName)
{
    struct Case
    {
        std::vector<std::string> args;
        std::string names; ///< the key or parameter to blame
    };
    // Default cell: gf106 vecadd n=4096 with one bad override.
    auto set = [](const std::string &assignment) {
        return Case{{"--gpu", "gf106", "--workload", "vecadd", "n=4096",
                     "--set", assignment},
                    assignment.substr(0, assignment.find('='))};
    };
    auto cell = [](const std::string &gpu, const std::string &workload,
                   std::vector<std::string> rest,
                   const std::string &names) {
        std::vector<std::string> args = {"--gpu", gpu, "--workload",
                                         workload};
        args.insert(args.end(), rest.begin(), rest.end());
        return Case{args, names};
    };
    const std::vector<Case> cases = {
        // Rules that moved from the constructors.
        set("icntClock=65/1"),
        set("dramClock=1/65"),
        set("numSms=0"),
        set("numPartitions=0"),
        set("sm.lineBytes=96"),
        set("sm.lineBytes=4"),
        set("sm.lineBytes=65536"),
        set("partition.dram.banks=0"),
        set("partition.dram.rowBytes=0"),
        set("mem.dram.ranks=0"),
        set("mem.dram.bankGroups=3"),
        cell("gf106", "vecadd",
             {"n=4096", "--set", "mem.dram.tREFI=100", "--set",
              "mem.dram.tRFC=100"},
             "mem.dram.tRFC"),
        set("partition.dramQueueSize=0"),
        // Each key at least 1.
        set("partition.dramCmdInterval=0"),
        set("sm.maxBlocksPerSm=0"),
        set("sm.lsuQueueSize=0"),
        set("sm.l1MissQueueSize=0"),
        set("icntInQueue=0"),
        set("icntOutQueue=0"),
        set("partition.ropQueueSize=0"),
        set("partition.l2QueueSize=0"),
        set("partition.returnQueueSize=0"),
        set("sm.numSchedulers=0"),
        set("sm.warpSlots=0"),
        set("sm.smemBanks=0"),
        cell("gf106", "reduction",
             {"n=4096", "--set", "sm.smemBanks=0"}, "sm.smemBanks"),
        set("sm.l1MshrEntries=0"),
        set("sm.l1MshrMaxMerge=0"),
        set("partition.l2MshrEntries=0"),
        set("partition.l2MshrMaxMerge=0"),
        set("mem.mshr.banks=0"),
        set("sm.l1Cache.ways=0"),
        set("partition.l2Cache.ways=0"),
        set("serving.maxConcurrent=0"),
        // Rules between keys.
        set("sm.l1Cache.ways=3"),
        cell("gt200", "vecadd",
             {"n=4096", "--set", "sm.lineBytes=2147483648"},
             "sm.lineBytes"),
        set("partition.dram.rowBytes=64"),
        set("mem.mshr.banks=128"),
        set("serving.smsPerLaunch=5"),
        // Upper bounds on counts that size host arrays.
        set("numSms=100000"),
        set("numPartitions=100000"),
        set("sm.warpSlots=4294967295"),
        set("sm.maxBlocksPerSm=4294967295"),
        set("sm.numSchedulers=4294967295"),
        set("partition.dram.banks=4294967295"),
        set("mem.dram.ranks=4294967295"),
        set("mem.dram.bankGroups=4294967295"),
        set("mem.mshr.banks=4294967295"),
        set("sm.l1Cache.capacityBytes=1099511627776"),
        set("partition.l2Cache.capacityBytes=1099511627776"),
        // Cycle counts whose sums wrapped: the first panicked on the
        // L2 hit pipe's capacity, the second ran as if ropLatency=0.
        cell("gf106", "vecadd",
             {"n=256", "--set",
              "partition.l2QueueSize=18446744073709551615", "--set",
              "partition.l2HitLatency=1"},
             "partition.l2QueueSize"),
        cell("gf106", "vecadd",
             {"n=256", "--set",
              "partition.ropLatency=18446744073709551615"},
             "partition.ropLatency"),
        // One decimal, range-checked number parser.
        set("seed=99999999999999999999"),
        set("dramClock=4294967297/1"),
        set("sm.warpSlots=0x10"),
        set("sm.warpSlots=+16"),
        cell("gf106", "vecadd", {"n=1024", "threadsPerBlock=4294967328"},
             "threadsPerBlock"),
        cell("gf106", "serve.mixed", {"load=nan"}, "load"),
        cell("gf106", "vecadd", {"n=4096", "--scale", "nan"}, "--scale"),
        // Report flags: --buckets 0 panicked, --report fig9 printed
        // a bare header and exited 0.
        cell("gf106", "vecadd", {"n=256", "--report", "fig9"},
             "--report"),
        cell("gf106", "vecadd", {"n=256", "--report", "fig1", "--buckets",
                                 "0"},
             "--buckets"),
        cell("gf106", "vecadd", {"n=256", "--report", "fig1", "--buckets",
                                 "100000000"},
             "--buckets"),
        // Launches that could never dispatch.
        set("sm.regsPerSm=0"),
        set("sm.regsPerSm=64"),
        set("sm.warpSlots=4"),
        cell("gf106", "reduction", {"n=4096", "--set", "sm.smemPerSm=1024"},
             "sm.smemPerSm"),
        // Workload parameters: never a signal (a block of 0 threads
        // divides by zero) or an assertion inside the simulator.
        cell("gf106", "vecadd", {"n=4096", "threadsPerBlock=0"},
             "threadsPerBlock"),
        cell("gf106", "bfs", {"scale=6", "threadsPerBlock=0"},
             "threadsPerBlock"),
        cell("gf106", "compute_stream", {"n=1024", "threadsPerBlock=0"},
             "threadsPerBlock"),
        cell("gf106", "histogram", {"n=1024", "threadsPerBlock=0"},
             "threadsPerBlock"),
        cell("gf106", "reduction", {"n=1024", "threadsPerBlock=0"},
             "threadsPerBlock"),
        cell("gf106", "spmv", {"rows=256", "threadsPerBlock=0"},
             "threadsPerBlock"),
        cell("gf106", "scan", {"n=1024", "blockElems=0"}, "blockElems"),
        cell("gf106", "gemm", {"n=17"}, "'n'"),
        cell("gf106", "transpose_naive", {"n=17"}, "'n'"),
        cell("gf106", "transpose_tiled", {"n=2048"}, "'n'"),
        cell("gf106", "bfs", {"scale=6", "source=64"}, "source"),
        cell("gf106", "bfs", {"nodes=1"}, "nodes"),
        cell("gf106", "bfs", {"scale=1"}, "scale"),
        cell("gf106", "histogram", {"n=1024", "bins=3"}, "bins"),
        cell("gf106", "reduction", {"n=1024", "threadsPerBlock=96"},
             "threadsPerBlock"),
        cell("gf106", "scan", {"n=1024", "blockElems=96"}, "blockElems"),
        cell("gf106", "pchase", {"strideBytes=4"}, "strideBytes"),
        cell("gf106", "pchase", {"footprintBytes=64"}, "footprintBytes"),
        cell("gf106", "pchase", {"timedAccesses=0"}, "timedAccesses"),
        cell("gf106", "serve.closed", {"think=-5"}, "think"),
        cell("gf106", "serve.mixed", {"load=0"}, "load"),
        cell("gf106", "serve.mixed", {"buffers=0"}, "buffers"),
        // One grammar: workload keys fail like `--set` keys.
        cell("gf106", "pchase", {"warmup=maybe"}, "warmup"),
        cell("gf106", "pchase", {"warmup=yes"}, "warmup"),
        cell("gf106", "serve.mixed", {"think=5"}, "think"),
        cell("gf106", "vecadd", {"n=256", "ndoes=5"}, "ndoes"),
    };
    for (const Case &c : cases) {
        std::string what;
        for (const std::string &arg : c.args)
            what += arg + " ";
        std::string err;
        EXPECT_EQ(runGpulat(c.args, err), 2) << what << "\n" << err;
        EXPECT_NE(err.find(c.names), std::string::npos)
            << what << "\n" << err;
        EXPECT_EQ(err.find("panic"), std::string::npos)
            << what << "\n" << err;
    }

    // The fan-out wedge: at the parent this cell never ended, and
    // the watchdog never fired.
    std::string err;
    const auto t0 = std::chrono::steady_clock::now();
    EXPECT_EQ(runGpulat({"--gpu", "gf106", "--workload", "histogram",
                         "bins=1", "n=2048", "--set",
                         "partition.l2MshrMaxMerge=64"},
                        err),
              2);
    const std::chrono::duration<double> took =
        std::chrono::steady_clock::now() - t0;
    EXPECT_LT(took.count(), 1.0);
    EXPECT_NE(err.find("partition.l2MshrMaxMerge=64 exceeds "
                       "partition.returnQueueSize=32"),
              std::string::npos)
        << err;
}

TEST(Validation, CycleCountsStopAtTwoToTheThirtyTwo)
{
    // Every `cycles` key, and the L2 queue whose size is added to
    // the L2 hit latency, takes 2^32-1 and refuses 2^32 by name,
    // stating the bound.
    std::vector<std::string> keys = {"partition.l2QueueSize"};
    for (const ConfigKey &key : configKeys()) {
        if (key.type.rfind("cycles", 0) == 0)
            keys.push_back(key.path);
    }
    ASSERT_EQ(keys.size(), 29u);
    auto errors_naming = [](const std::string &key,
                            const std::string &value) {
        GpuConfig cfg = makeGF106();
        applyOverride(cfg, key + "=" + value);
        std::vector<std::string> named;
        for (const std::string &error : cfg.validate()) {
            if (error.rfind(key, 0) == 0)
                named.push_back(error);
        }
        return named;
    };
    for (const std::string &key : keys) {
        EXPECT_TRUE(errors_naming(key, "4294967295").empty()) << key;
        const auto named = errors_naming(key, "4294967296");
        ASSERT_EQ(named.size(), 1u) << key;
        EXPECT_NE(named[0].find("maximum of 4294967295"),
                  std::string::npos)
            << named[0];
    }
}

TEST(Validation, EveryViolationIsReportedAtOnce)
{
    // One FatalError, one line per violated rule, each starting with
    // its dotted key.
    GpuConfig cfg = makeGF106();
    applyOverrides(cfg, {"partition.dramCmdInterval=0",
                         "mem.mshr.banks=0", "sm.l1Cache.ways=3"});
    const std::vector<std::string> errors = cfg.validate();
    ASSERT_EQ(errors.size(), 3u);
    try {
        Gpu gpu(cfg);
        FAIL() << "three violations accepted";
    } catch (const FatalError &e) {
        std::istringstream lines(e.what());
        std::string line;
        std::getline(lines, line);
        EXPECT_EQ(line, "fatal: invalid config 'gf106':");
        for (const std::string &error : errors) {
            ASSERT_TRUE(std::getline(lines, line));
            EXPECT_EQ(line, error);
        }
        EXPECT_FALSE(std::getline(lines, line)) << line;
    }
    for (const std::string &error : errors) {
        const std::string key = error.substr(0, error.find_first_of(" ="));
        EXPECT_NO_THROW(readOverride(cfg, key)) << error;
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
