/**
 * @file
 * Tests for the experiment API front-end: workload parameters and
 * config overrides (one grammar, round-trips, ClockRatio, error
 * paths), the workload registry, sweep expansion, sinks, and a golden
 * check that the `gpulat` CLI reports bit-identical cycles to the
 * same run driven through the direct C++ API.
 */

#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <limits>
#include <map>
#include <regex>
#include <sstream>
#include <string>
#include <vector>

#include <gtest/gtest.h>

#include "api/cli.hh"
#include "api/config_override.hh"
#include "api/experiment.hh"
#include "api/param_map.hh"
#include "api/workload_registry.hh"
#include "common/log.hh"
#include "common/stats.hh"
#include "gpu/gpu.hh"
#include "workloads/bfs.hh"
#include "workloads/vecadd.hh"

namespace gpulat {
namespace {

// ------------------------------------------------- workload parameters

/** The error of creating @p workload from @p assignments, or
 *  "accepted". */
std::string
createError(const std::string &workload,
            const std::vector<std::string> &assignments)
{
    try {
        (void)WorkloadRegistry::instance().create(workload, assignments);
    } catch (const FatalError &e) {
        return e.what();
    }
    return "accepted";
}

/** The value @p workload's key reads from `key=text`, formatted. */
std::string
readParam(const std::string &workload, const std::string &key,
          const std::string &text)
{
    const WorkloadEntry *entry = WorkloadRegistry::instance().find(workload);
    return entry->format(ParamMap::parse({key + "=" + text}))
        .entries()
        .at(key);
}

TEST(WorkloadParams, ParseThroughTheirKeys)
{
    // One key of each type: a 64-bit integer, a real, a boolean and
    // an enum; a key left out keeps its Options default.
    EXPECT_EQ(createError("vecadd", {"n=4096"}), "accepted");
    EXPECT_EQ(readParam("vecadd", "n", "4096"), "4096");
    EXPECT_EQ(readParam("serve.mixed", "load", "0.5"), "0.5");
    EXPECT_EQ(readParam("pchase", "warmup", "false"), "false");
    EXPECT_EQ(readParam("bfs", "kind", "uniform"), "uniform");
    const WorkloadEntry *vecadd = WorkloadRegistry::instance().find("vecadd");
    EXPECT_EQ(vecadd->format(ParamMap::parse({"n=4096"})).entries().at(
                  "seed"),
              std::to_string(VecAdd::Options{}.seed));
}

TEST(WorkloadParams, UnknownKeyNamesTheWorkloadAndTheKey)
{
    const std::string what = createError("vecadd", {"n=1", "typo=2"});
    EXPECT_NE(what.find("vecadd"), std::string::npos) << what;
    EXPECT_NE(what.find("'typo'"), std::string::npos) << what;
}

TEST(WorkloadParams, RejectsMalformedInput)
{
    EXPECT_THROW(ParamMap::parse({"novalue"}), FatalError);
    EXPECT_THROW(ParamMap::parse({"=x"}), FatalError);
    EXPECT_NE(createError("vecadd", {"n=abc"}).find("n:"),
              std::string::npos);
    EXPECT_NE(createError("pchase", {"warmup=maybe"}).find("warmup"),
              std::string::npos);
}

TEST(WorkloadParams, RejectsNegativeIntegers)
{
    // strtoull would happily wrap "-1" to 2^64-1.
    EXPECT_NE(createError("vecadd", {"n=-1"}).find("n:"),
              std::string::npos);
}

TEST(WorkloadParams, IntegersAreDecimalAndFitTheirField)
{
    // A leading 0 is decimal, not octal.
    EXPECT_EQ(createError("vecadd", {"seed=010"}), "accepted");
    EXPECT_EQ(readParam("vecadd", "seed", "010"), "10");
    for (const char *bad : {"0x10", "+5", " 5", "-1"}) {
        EXPECT_NE(createError("vecadd", {std::string("seed=") + bad})
                      .find("seed:"),
                  std::string::npos)
            << bad;
    }
    // vecadd threadsPerBlock=4294967328 used to run 32-thread blocks.
    EXPECT_NE(createError("vecadd", {"threadsPerBlock=4294967328"})
                  .find("threadsPerBlock:"),
              std::string::npos);
    EXPECT_EQ(createError("vecadd", {"seed=4294967328"}), "accepted");
    EXPECT_EQ(readParam("vecadd", "seed", "4294967328"), "4294967328");
    EXPECT_EQ(readParam("vecadd", "seed", "18446744073709551615"),
              "18446744073709551615");
    EXPECT_NE(createError("vecadd", {"seed=18446744073709551616"})
                  .find("seed:"),
              std::string::npos);
}

TEST(WorkloadParams, RealsAreFinite)
{
    // serve.mixed load=nan used to run.
    for (const char *bad : {"nan", "inf", "1e999"}) {
        EXPECT_NE(createError("serve.mixed", {std::string("load=") + bad})
                      .find("load:"),
                  std::string::npos)
            << bad;
    }
    EXPECT_EQ(createError("serve.mixed", {"load=2.5e3"}), "accepted");
    EXPECT_EQ(readParam("serve.mixed", "load", "2.5e3"), "2500");
    EXPECT_EQ(createError("serve.mixed", {"load=-0.5"}), "accepted");
    EXPECT_EQ(readParam("serve.mixed", "load", "-0.5"), "-0.5");
}

TEST(WorkloadParams, OneGrammarOnBothSurfaces)
{
    // A `--set` key and a workload parameter of the same type accept
    // exactly the same spellings.
    auto accepts_set = [](const std::string &assignment) {
        GpuConfig cfg = makeConfig("gf106");
        try {
            applyOverride(cfg, assignment);
        } catch (const FatalError &) {
            return false;
        }
        return true;
    };
    auto accepts_param = [](const std::string &workload,
                            const std::string &assignment) {
        return createError(workload, {assignment}) == "accepted";
    };
    for (const char *x : {"1", "true", "on", "0", "false", "off", "yes",
                          "no", "maybe", ""}) {
        const std::string v = x;
        EXPECT_EQ(accepts_set("sm.l1Enabled=" + v),
                  accepts_param("pchase", "warmup=" + v))
            << "'" << v << "'";
    }
    for (const char *x : {"16", "010", "0x10", "+5", "-1", "4294967295",
                          "4294967296", "nan"}) {
        const std::string v = x;
        EXPECT_EQ(accepts_set("sm.warpSlots=" + v),
                  accepts_param("vecadd", "threadsPerBlock=" + v))
            << "'" << v << "'";
    }
    // No `--set` key is a real; the CLI's one real flag, --scale,
    // reads reals through the same parser.
    for (const char *x : {"0.5", "2.5e3", "-0.5", "nan", "inf",
                          "1e999"}) {
        const std::string v = x;
        std::ostringstream out;
        std::ostringstream err;
        const char *argv[] = {"gpulat", "run",   "--no-table",
                              "--gpu",  "gf106", "--workload",
                              "vecadd", "n=256", "--scale",
                              x};
        const bool cli_accepts = runCli(10, argv, out, err) == 0;
        EXPECT_EQ(cli_accepts, accepts_param("serve.mixed", "load=" + v))
            << "'" << v << "'";
    }
}

TEST(WorkloadParams, OnlyTheClosedLoopThinks)
{
    // `think` used to be accepted, recorded and ignored by the open
    // loops.
    for (const char *open : {"serve.mixed", "serve.uniform"}) {
        const std::string what = createError(open, {"think=5"});
        EXPECT_NE(what.find(open), std::string::npos) << what;
        EXPECT_NE(what.find("'think'"), std::string::npos) << what;
    }
    EXPECT_EQ(createError("serve.closed", {"think=5"}), "accepted");
}

// ----------------------------------------------------- config overrides

TEST(ConfigOverride, AppliesDottedPaths)
{
    GpuConfig cfg = makeConfig("gf100-sim");
    applyOverrides(cfg, {"sm.warpSlots=16", "numPartitions=3",
                         "partition.sched=fcfs",
                         "sm.schedPolicy=lrr",
                         "partition.dram.timing.tRCD=99",
                         "idleFastForward=off"});
    EXPECT_EQ(cfg.sm.warpSlots, 16u);
    EXPECT_EQ(cfg.numPartitions, 3u);
    EXPECT_EQ(cfg.partition.sched, DramSchedPolicy::FCFS);
    EXPECT_EQ(cfg.sm.schedPolicy, SchedPolicy::LRR);
    EXPECT_EQ(cfg.partition.dram.timing.tRCD, 99u);
    EXPECT_EQ(cfg.idleFastForward, IdleFastForward::Off);
}

TEST(ConfigOverride, IdleFastForwardForms)
{
    GpuConfig cfg = makeConfig("gf106");
    EXPECT_EQ(cfg.idleFastForward, IdleFastForward::PerDomain);
    applyOverride(cfg, "idleFastForward=off");
    EXPECT_EQ(readOverride(cfg, "idleFastForward"), "off");
    applyOverride(cfg, "idleFastForward=perDomain");
    EXPECT_EQ(cfg.idleFastForward, IdleFastForward::PerDomain);
    EXPECT_EQ(readOverride(cfg, "idleFastForward"), "perDomain");

    // Legacy spellings: the booleans and `full` (the removed
    // all-idle-only skip, same cycles) all mean perDomain.
    for (const char *legacy_on : {"full", "on", "true", "1"}) {
        applyOverride(cfg, "idleFastForward=off");
        applyOverride(cfg, std::string("idleFastForward=") +
                               legacy_on);
        EXPECT_EQ(cfg.idleFastForward, IdleFastForward::PerDomain)
            << legacy_on;
        EXPECT_EQ(readOverride(cfg, "idleFastForward"), "perDomain");
    }
    for (const char *legacy_off : {"false", "0"}) {
        applyOverride(cfg, std::string("idleFastForward=") +
                               legacy_off);
        EXPECT_EQ(cfg.idleFastForward, IdleFastForward::Off)
            << legacy_off;
    }
    EXPECT_THROW(applyOverride(cfg, "idleFastForward=perCore"),
                 FatalError);
}

TEST(ConfigOverride, ModelKeyWritesTheDramTimingKeys)
{
    GpuConfig cfg = makeConfig("gf106");
    EXPECT_EQ(readOverride(cfg, "mem.dram.model"), "simple");
    EXPECT_EQ(readOverride(cfg, "mem.dram.tREFI"), "0");
    applyOverride(cfg, "mem.dram.model=ddr");
    EXPECT_TRUE(cfg.partition.dram.ddr == kDdrTiming);
    EXPECT_EQ(readOverride(cfg, "mem.dram.model"), "ddr");
    // A later t* assignment still applies on top of the shorthand...
    applyOverride(cfg, "mem.dram.tREFI=2000");
    EXPECT_EQ(cfg.partition.dram.ddr.tREFI, 2000u);
    EXPECT_EQ(readOverride(cfg, "mem.dram.model"), "custom");
    // ...and `simple` zeroes all eight again.
    applyOverride(cfg, "mem.dram.model=simple");
    EXPECT_TRUE(cfg.partition.dram.ddr == DdrTiming{});
    EXPECT_THROW(applyOverride(cfg, "mem.dram.model=custom"),
                 FatalError);
}

TEST(ConfigOverride, ClockRatioForms)
{
    GpuConfig cfg = makeConfig("gf106");
    applyOverride(cfg, "dramClock=1/2");
    EXPECT_EQ(cfg.dramClock.mul, 1u);
    EXPECT_EQ(cfg.dramClock.div, 2u);
    applyOverride(cfg, "icntClock=2:3");
    EXPECT_EQ(cfg.icntClock.mul, 2u);
    EXPECT_EQ(cfg.icntClock.div, 3u);
    applyOverride(cfg, "l2Clock=2");
    EXPECT_EQ(cfg.l2Clock.mul, 2u);
    EXPECT_EQ(cfg.l2Clock.div, 1u);
    EXPECT_EQ(readOverride(cfg, "dramClock"), "1/2");

    EXPECT_THROW(applyOverride(cfg, "dramClock=0/2"), FatalError);
    EXPECT_THROW(applyOverride(cfg, "dramClock=fast"), FatalError);
    EXPECT_THROW(applyOverride(cfg, "dramClock=-1"), FatalError);
    EXPECT_THROW(applyOverride(cfg, "dramClock=1/-2"), FatalError);
    EXPECT_THROW(applyOverride(cfg, "deviceMemBytes=-5"),
                 FatalError);
}

TEST(ConfigOverride, IntegersAreDecimalAndFitTheirField)
{
    GpuConfig cfg = makeConfig("gf106");
    auto message = [&cfg](const std::string &assignment) {
        try {
            applyOverride(cfg, assignment);
        } catch (const FatalError &e) {
            return std::string(e.what());
        }
        return std::string("accepted");
    };
    // Each of these used to read back a different value.
    EXPECT_NE(message("seed=99999999999999999999").find("seed"),
              std::string::npos);
    EXPECT_EQ(readOverride(cfg, "seed"), "1");
    EXPECT_NE(message("dramClock=4294967297/1").find("dramClock"),
              std::string::npos);
    EXPECT_EQ(readOverride(cfg, "dramClock"), "1/1");
    applyOverride(cfg, "sm.warpSlots=010");
    EXPECT_EQ(cfg.sm.warpSlots, 10u);
    EXPECT_NE(message("sm.warpSlots=0x10").find("sm.warpSlots"),
              std::string::npos);
    EXPECT_NE(message("sm.warpSlots=4294967296").find("sm.warpSlots"),
              std::string::npos);
    EXPECT_NE(message("sm.warpSlots=+8").find("sm.warpSlots"),
              std::string::npos);
    EXPECT_EQ(cfg.sm.warpSlots, 10u);
    EXPECT_EQ(message("seed=18446744073709551615"), "accepted");
}

TEST(ConfigOverride, ClockRatioNormalizesOnParse)
{
    // "2/4" and "1/2" are the same frequency, so they must parse
    // to the same canonical ratio and format identically —
    // otherwise an override round-trip (read, reapply, compare)
    // spuriously fails on any non-reduced user input.
    GpuConfig cfg = makeConfig("gf106");
    applyOverride(cfg, "dramClock=2/4");
    EXPECT_EQ(cfg.dramClock.mul, 1u);
    EXPECT_EQ(cfg.dramClock.div, 2u);
    EXPECT_EQ(readOverride(cfg, "dramClock"), "1/2");

    applyOverride(cfg, "icntClock=6:4");
    EXPECT_EQ(readOverride(cfg, "icntClock"), "3/2");
    applyOverride(cfg, "l2Clock=8");
    EXPECT_EQ(readOverride(cfg, "l2Clock"), "8/1");

    // Round-trip identity on a non-reduced spelling: the formatted
    // value reapplies to the same machine.
    GpuConfig again = makeConfig("gf106");
    applyOverride(again, "dramClock=" +
                             readOverride(cfg, "dramClock"));
    EXPECT_EQ(again.dramClock.mul, cfg.dramClock.mul);
    EXPECT_EQ(again.dramClock.div, cfg.dramClock.div);

    // Normalization happens before range validation, so a reduced
    // in-range ratio with large raw terms is accepted.
    applyOverride(cfg, "dramClock=128/256");
    EXPECT_EQ(readOverride(cfg, "dramClock"), "1/2");
    Gpu gpu(cfg); // validate() sees {1,2}: in range
    EXPECT_EQ(gpu.config().dramClock.div, 2u);
}

TEST(Experiment, TickJobsIsSurfacedButNotSerialized)
{
    // engine.tickJobs is an execution knob: the resolved value is
    // surfaced on the record for programmatic consumers, but the
    // override is filtered from the serialized fields so output is
    // byte-identical across tick-jobs values (CI diffs it).
    ExperimentSpec serial;
    serial.gpu = "gf106";
    serial.workload = "vecadd";
    serial.params = {"n=2048"};
    serial.overrides = {"numPartitions=4"};
    ExperimentSpec parallel = serial;
    parallel.overrides.push_back("engine.tickJobs=4");

    const ExperimentRecord a = runExperiment(serial);
    const ExperimentRecord b = runExperiment(parallel);
    EXPECT_EQ(a.tickJobs, 1u);
    EXPECT_EQ(b.tickJobs, 4u);
    EXPECT_EQ(b.overrides.count("engine.tickJobs"), 0u);
    EXPECT_EQ(a.overrides, b.overrides);
    EXPECT_EQ(a.cycles, b.cycles);

    // Per-group tick counters ride along and are identical; every
    // SM core has its own group.
    EXPECT_GT(b.counters.at("engine.group.sm0.ticks_run"), 0u);
    EXPECT_EQ(a.counters.at("engine.group.part0.ticks_run"),
              b.counters.at("engine.group.part0.ticks_run"));

    auto render = [](const ExperimentRecord &rec) {
        std::ostringstream os;
        JsonSink sink(os);
        sink.write(rec);
        sink.finish();
        return os.str();
    };
    EXPECT_EQ(render(a), render(b));
}

TEST(ConfigOverride, EveryKeyRoundTrips)
{
    // Reading a key and applying the formatted value back must be
    // an identity for every registered key, on every preset.
    for (const std::string &preset : configNames()) {
        const GpuConfig original = makeConfig(preset);
        for (const ConfigKey &key : configKeys()) {
            const std::string value = key.get(original);
            GpuConfig copy = makeConfig(preset);
            applyOverride(copy, key.path + "=" + value);
            EXPECT_EQ(key.get(copy), value)
                << preset << ": " << key.path;
        }
    }
}

TEST(ConfigOverride, RejectsBadInput)
{
    GpuConfig cfg = makeConfig("gf106");
    EXPECT_THROW(applyOverride(cfg, "sm.noSuchKnob=1"), FatalError);
    EXPECT_THROW(applyOverride(cfg, "warpSlots=48"), FatalError);
    EXPECT_THROW(applyOverride(cfg, "sm.warpSlots"), FatalError);
    EXPECT_THROW(applyOverride(cfg, "sm.warpSlots=lots"),
                 FatalError);
    EXPECT_THROW(applyOverride(cfg, "sm.l1Enabled=maybe"),
                 FatalError);
    EXPECT_THROW((void)readOverride(cfg, "sm.noSuchKnob"),
                 FatalError);
    // Every line size derives from sm.lineBytes, and replacement
    // is always LRU.
    for (const char *removed :
         {"sm.l1Cache.lineBytes=64", "partition.lineBytes=64",
          "partition.l2Cache.lineBytes=64", "sm.l1Cache.repl=lru",
          "partition.l2Cache.repl=lru"}) {
        try {
            applyOverride(cfg, removed);
            ADD_FAILURE() << removed << " accepted";
        } catch (const FatalError &e) {
            const std::string what = e.what();
            EXPECT_NE(what.find("unknown config key"),
                      std::string::npos)
                << what;
        }
    }
}

// ----------------------------------------------------------- registry

TEST(WorkloadRegistry, ConstructsEveryRegisteredName)
{
    const WorkloadRegistry &reg = WorkloadRegistry::instance();
    const auto names = reg.names();
    ASSERT_FALSE(names.empty());
    for (const std::string &name : names) {
        auto workload = reg.create(name, ParamMap{});
        ASSERT_NE(workload, nullptr) << name;
        EXPECT_EQ(workload->name(), name);
    }
}

TEST(WorkloadRegistry, PChaseIsAddressable)
{
    // The microbench is sweepable by name through the experiment
    // API like every kernel workload.
    ExperimentSpec spec;
    spec.gpu = "gf106";
    spec.workload = "pchase";
    spec.params = {"footprintBytes=16384", "timedAccesses=64"};
    const ExperimentRecord rec = runExperiment(spec);
    EXPECT_TRUE(rec.correct);
    EXPECT_GT(rec.metrics.at("pchase_cycles_per_access"), 1.0);
}

TEST(WorkloadRegistry, RejectsUnknownNamesAndParams)
{
    const WorkloadRegistry &reg = WorkloadRegistry::instance();
    EXPECT_THROW(reg.create("warp_drive", ParamMap{}), FatalError);
    EXPECT_THROW(
        reg.create("vecadd", ParamMap::parse({"ndoes=4096"})),
        FatalError);
}

TEST(WorkloadRegistry, EveryListedDefaultRoundTrips)
{
    // `gpulat list` prints one default per declared key, and each
    // printed default parses through its key and formats back to
    // the same text.
    const WorkloadRegistry &reg = WorkloadRegistry::instance();
    for (const std::string &name : reg.names()) {
        const WorkloadEntry *entry = reg.find(name);
        const ParamMap listed = reg.listedDefaults(name);
        ASSERT_EQ(listed.entries().size(), entry->params.size()) << name;
        for (const WorkloadParamSpec &p : entry->params) {
            const std::string &text = listed.entries().at(p.name);
            EXPECT_EQ(readParam(name, p.name, text), text)
                << name << ": " << p.name;
        }
    }
}

TEST(WorkloadRegistry, BfsNodesImpliesUniform)
{
    // The CLI shorthand `bfs nodes=4096` must construct a uniform
    // graph of that size rather than silently ignoring `nodes`.
    const WorkloadRegistry &reg = WorkloadRegistry::instance();
    auto workload =
        reg.create("bfs", ParamMap::parse({"nodes=512"}));
    EXPECT_EQ(workload->name(), "bfs");
    Gpu gpu(makeConfig("gf106"));
    const WorkloadResult result = workload->run(gpu);
    EXPECT_TRUE(result.correct);
}

TEST(WorkloadRegistry, BfsNodesShorthandSurvivesRunExperiment)
{
    // The shorthand must also hold through runExperiment's
    // merging of scaled defaults under user params — a scaled
    // default kind=rmat would silently win over `nodes=`.
    ExperimentSpec spec;
    spec.gpu = "gf106";
    spec.workload = "bfs";
    spec.params = {"nodes=512"};
    const ExperimentRecord rec = runExperiment(spec);
    EXPECT_TRUE(rec.correct);
    EXPECT_EQ(rec.params.count("kind"), 0u);

    // Bit-identical to the direct uniform-graph run (degree comes
    // from the scaled defaults, everything else factory-default).
    Gpu gpu(makeConfig("gf106"));
    Bfs::Options opts;
    opts.kind = Bfs::GraphKind::Uniform;
    opts.nodes = 512;
    opts.degree = 8;
    Bfs bfs(opts);
    EXPECT_TRUE(bfs.run(gpu).correct);
    EXPECT_EQ(rec.cycles, gpu.now());
}

TEST(WorkloadRegistry, EveryPresetWorkloadCellIsConstructible)
{
    // The acceptance bar for the CLI: every preset x workload cell
    // must at least resolve and build (running all 55 cells is the
    // bench suite's job, not a unit test's).
    const WorkloadRegistry &reg = WorkloadRegistry::instance();
    for (const std::string &preset : configNames()) {
        ExperimentSpec spec;
        spec.gpu = preset;
        const GpuConfig cfg = buildConfig(spec);
        EXPECT_EQ(cfg.name, preset);
        for (const std::string &name : reg.names())
            EXPECT_NE(reg.create(name, ParamMap{}), nullptr)
                << preset << " x " << name;
    }
}

TEST(Config, PresetNameAliases)
{
    EXPECT_EQ(makeConfig("gf100sim").name, "gf100-sim");
    EXPECT_EQ(makeConfig("GF100-Sim").name, "gf100-sim");
    EXPECT_EQ(makeConfig("gt_200").name, "gt200");
    EXPECT_THROW(makeConfig("gp100"), FatalError);
}

// -------------------------------------------------------------- sweeps

TEST(Experiment, ExpandSweepCartesianProduct)
{
    ExperimentSpec spec;
    spec.workload = "vecadd";
    spec.params = {"n=1024,2048"};
    spec.overrides = {"sm.warpSlots=1,2,4", "icntLatency=32"};
    const auto runs = expandSweep(spec);
    ASSERT_EQ(runs.size(), 6u);
    // First axis (params) varies slowest, last axis fastest.
    EXPECT_EQ(runs[0].params[0], "n=1024");
    EXPECT_EQ(runs[0].overrides[0], "sm.warpSlots=1");
    EXPECT_EQ(runs[1].overrides[0], "sm.warpSlots=2");
    EXPECT_EQ(runs[2].overrides[0], "sm.warpSlots=4");
    EXPECT_EQ(runs[3].params[0], "n=2048");
    EXPECT_EQ(runs[3].overrides[0], "sm.warpSlots=1");
    for (const auto &run : runs)
        EXPECT_EQ(run.overrides[1], "icntLatency=32");
}

TEST(Experiment, SingleSpecPassesThrough)
{
    ExperimentSpec spec;
    spec.workload = "vecadd";
    spec.params = {"n=1024"};
    const auto runs = expandSweep(spec);
    ASSERT_EQ(runs.size(), 1u);
    EXPECT_EQ(runs[0].params[0], "n=1024");
}

// ------------------------------------------------ records and sinks

TEST(Experiment, RecordCarriesStableMetrics)
{
    ExperimentSpec spec;
    spec.gpu = "gf106";
    spec.workload = "vecadd";
    spec.params = {"n=2048"};
    const ExperimentRecord rec = runExperiment(spec);
    EXPECT_TRUE(rec.correct);
    EXPECT_GT(rec.cycles, 0u);
    EXPECT_EQ(rec.gpu, "gf106");
    for (const char *metric :
         {"ipc", "requests", "mean_load_latency", "exposed_pct",
          "l1_hit_pct", "dram_row_hit_pct", "mean_dram_queue_wait",
          "stage_pct.sm_base", "stage_pct.dram_qtosch"}) {
        EXPECT_TRUE(rec.metrics.count(metric)) << metric;
    }
    EXPECT_GT(rec.metrics.at("requests"), 0.0);
    // Effective parameters are reported, defaults included.
    EXPECT_EQ(rec.params.at("n"), "2048");
}

/**
 * Minimal RFC-4180 reader: split one CSV document into rows of
 * unescaped fields (quoted fields may contain delimiters, doubled
 * quotes and line breaks).
 */
std::vector<std::vector<std::string>>
parseCsv(const std::string &text)
{
    std::vector<std::vector<std::string>> rows;
    std::vector<std::string> row;
    std::string field;
    bool quoted = false;
    for (std::size_t i = 0; i < text.size(); ++i) {
        const char c = text[i];
        if (quoted) {
            if (c == '"' && i + 1 < text.size() &&
                text[i + 1] == '"') {
                field += '"';
                ++i;
            } else if (c == '"') {
                quoted = false;
            } else {
                field += c;
            }
        } else if (c == '"') {
            quoted = true;
        } else if (c == ',') {
            row.push_back(std::move(field));
            field.clear();
        } else if (c == '\n') {
            row.push_back(std::move(field));
            field.clear();
            rows.push_back(std::move(row));
            row.clear();
        } else {
            field += c;
        }
    }
    return rows;
}

TEST(StatSinks, CsvQuotesHostileFieldsRoundTrip)
{
    // A param value carrying the delimiter, quotes and a newline
    // must survive write -> RFC-4180 parse intact instead of
    // shearing the row apart (which silently broke the CI
    // serial-vs-parallel CSV byte-diff gate's coverage).
    ExperimentRecord rec;
    rec.gpu = "gf106";
    rec.workload = "vecadd";
    rec.params["label"] = "a,b\"c\"\nd";
    rec.overrides["name"] = "x,y";
    rec.correct = true;
    rec.cycles = 42;
    rec.metrics["ipc"] = 1.5;

    std::ostringstream csv;
    CsvSink sink(csv);
    sink.write(rec);
    sink.finish();

    const auto rows = parseCsv(csv.str());
    ASSERT_EQ(rows.size(), 2u);
    ASSERT_EQ(rows[0].size(), rows[1].size());
    EXPECT_EQ(rows[1][0], "gf106");
    EXPECT_EQ(rows[1][2], "label=a,b\"c\"\nd");
    EXPECT_EQ(rows[1][3], "name=x,y");
    EXPECT_EQ(rows[1][5], "42");
    EXPECT_EQ(rows[1][8], "1.5000");
}

TEST(StatSinks, NonFiniteMetricsRenderAsNullCells)
{
    // Missing or NaN/inf metrics must not leak locale-dependent
    // "nan"/"inf" tokens (or a fabricated 0.0) into the outputs:
    // empty cell in CSV, "-" in the table, null in JSON.
    ExperimentRecord rec;
    rec.gpu = "gf106";
    rec.workload = "vecadd";
    rec.correct = true;
    rec.cycles = 7;
    rec.metrics["ipc"] = std::nan("");
    rec.metrics["mean_load_latency"] =
        std::numeric_limits<double>::infinity();
    // exposed_pct intentionally absent.

    std::ostringstream csv;
    CsvSink csink(csv);
    csink.write(rec);
    csink.finish();
    const auto rows = parseCsv(csv.str());
    ASSERT_EQ(rows.size(), 2u);
    EXPECT_EQ(rows[1][8], "");  // ipc: NaN
    EXPECT_EQ(rows[1][10], ""); // mean_load_latency: inf
    EXPECT_EQ(rows[1][11], ""); // exposed_pct: missing
    EXPECT_EQ(csv.str().find("nan"), std::string::npos);
    EXPECT_EQ(csv.str().find("inf"), std::string::npos);

    std::ostringstream table;
    TextTableSink tsink(table);
    tsink.write(rec);
    tsink.finish();
    EXPECT_NE(table.str().find('-'), std::string::npos);
    EXPECT_EQ(table.str().find("nan"), std::string::npos);
    EXPECT_EQ(table.str().find("inf"), std::string::npos);

    std::ostringstream json;
    JsonSink jsink(json);
    jsink.write(rec);
    jsink.finish();
    EXPECT_NE(json.str().find("\"ipc\": null"), std::string::npos);
}

TEST(Experiment, RecordCarriesFastForwardSkipMetrics)
{
    ExperimentSpec spec;
    spec.gpu = "gf106";
    spec.workload = "vecadd";
    spec.params = {"n=2048"};
    const ExperimentRecord rec = runExperiment(spec);
    for (const char *domain : {"core", "icnt", "l2", "dram"}) {
        const std::string metric =
            std::string("ff_skip_pct.") + domain;
        ASSERT_TRUE(rec.metrics.count(metric)) << metric;
        EXPECT_GE(rec.metrics.at(metric), 0.0) << metric;
        EXPECT_LE(rec.metrics.at(metric), 100.0) << metric;
        EXPECT_TRUE(rec.counters.count("engine." +
                                       std::string(domain) +
                                       ".ticks_run"))
            << domain;
    }
    // The default perDomain policy skips real work on any run with
    // memory waits.
    EXPECT_GT(rec.metrics.at("ff_skip_pct.dram"), 0.0);
}

TEST(StatSinks, JsonAndCsvRender)
{
    ExperimentSpec spec;
    spec.gpu = "gf106";
    spec.workload = "vecadd";
    spec.params = {"n=2048"};
    const ExperimentRecord rec = runExperiment(spec);

    std::ostringstream json;
    JsonSink jsink(json);
    jsink.write(rec);
    jsink.finish();
    EXPECT_NE(json.str().find("\"schema\": \"gpulat.run.v1\""),
              std::string::npos);
    EXPECT_NE(json.str().find("\"workload\": \"vecadd\""),
              std::string::npos);
    EXPECT_NE(json.str().find("\"cycles\": " +
                              std::to_string(rec.cycles)),
              std::string::npos);

    std::ostringstream csv;
    CsvSink csink(csv);
    csink.write(rec);
    csink.finish();
    EXPECT_NE(csv.str().find("gpu,workload,params"),
              std::string::npos);
    EXPECT_NE(csv.str().find("gf106,vecadd,"), std::string::npos);
}

// ------------------------------------------------------ golden cycles

Cycle
directApiCycles()
{
    // The reference run: direct C++ API, no registry, no CLI.
    Gpu gpu(makeGF106());
    VecAdd::Options opts;
    opts.n = 4096;
    VecAdd workload(opts);
    EXPECT_TRUE(workload.run(gpu).correct);
    return gpu.now();
}

TEST(Golden, RunExperimentMatchesDirectApi)
{
    ExperimentSpec spec;
    spec.gpu = "gf106";
    spec.workload = "vecadd";
    spec.params = {"n=4096"};
    const ExperimentRecord rec = runExperiment(spec);
    EXPECT_TRUE(rec.correct);
    EXPECT_EQ(rec.cycles, directApiCycles());
}

Cycle
cyclesFromJson(const std::string &json)
{
    const std::regex pattern("\"cycles\": ([0-9]+)");
    std::smatch match;
    EXPECT_TRUE(std::regex_search(json, match, pattern)) << json;
    return match.empty() ? 0 : std::stoull(match[1].str());
}

TEST(Cli, RunRefusesCommaListsSweepExpandsThem)
{
    const char *run_argv[] = {"gpulat", "run", "--workload",
                              "vecadd", "n=1024",
                              "--set", "sm.warpSlots=8,16"};
    std::ostringstream out;
    std::ostringstream err;
    EXPECT_EQ(runCli(static_cast<int>(std::size(run_argv)),
                     run_argv, out, err),
              2);
    EXPECT_NE(err.str().find("gpulat sweep"), std::string::npos);

    const char *bad_scale[] = {"gpulat", "run", "--workload",
                               "vecadd", "--scale", "abc"};
    std::ostringstream out2;
    std::ostringstream err2;
    EXPECT_EQ(runCli(static_cast<int>(std::size(bad_scale)),
                     bad_scale, out2, err2),
              2);
}

TEST(Golden, InProcessCliMatchesDirectApi)
{
    const char *argv[] = {"gpulat", "run", "--gpu", "gf106",
                          "--workload", "vecadd", "n=4096",
                          "--json", "-"};
    std::ostringstream out;
    std::ostringstream err;
    const int rc = runCli(static_cast<int>(std::size(argv)), argv,
                          out, err);
    EXPECT_EQ(rc, 0) << err.str();
    EXPECT_EQ(cyclesFromJson(out.str()), directApiCycles());
}

TEST(Golden, CliBinaryMatchesDirectApi)
{
    // Drive the real shipped binary (path provided by CTest); the
    // CLI-reported cycle count must be bit-identical to the direct
    // C++ API run of the same preset x workload pair.
    const char *cli = std::getenv("GPULAT_CLI");
    if (!cli || !*cli)
        GTEST_SKIP() << "GPULAT_CLI not set (run under ctest)";

    const std::string cmd = std::string(cli) +
        " run --gpu gf106 --workload vecadd n=4096 --json - 2>&1";
    FILE *pipe = popen(cmd.c_str(), "r");
    ASSERT_NE(pipe, nullptr);
    std::string output;
    char buf[4096];
    while (std::fgets(buf, sizeof(buf), pipe))
        output += buf;
    const int status = pclose(pipe);
    EXPECT_EQ(status, 0) << output;
    EXPECT_EQ(cyclesFromJson(output), directApiCycles());
}

TEST(Golden, OverridesChangeTheMachine)
{
    // A --set override must actually reach the simulated hardware:
    // starving the SM of warp slots slows vecadd down.
    ExperimentSpec narrow;
    narrow.gpu = "gf106";
    narrow.workload = "vecadd";
    narrow.params = {"n=2048"};
    narrow.overrides = {"sm.warpSlots=8", "sm.maxBlocksPerSm=1"};
    ExperimentSpec wide = narrow;
    wide.overrides = {"sm.warpSlots=48"};
    const Cycle slow = runExperiment(narrow).cycles;
    const Cycle fast = runExperiment(wide).cycles;
    EXPECT_GT(slow, fast);
}

// ------------------------------------------- non-default record pins

/**
 * The perfbench goldens run only gf100-sim defaults (FR-FCFS, row
 * map, open page, one rank, unity clocks, 15 SMs). These cells pin
 * the scheduler, DRAM-model, clock-grid and crossbar paths those
 * goldens never reach. Values captured with `gpulat run --json` at
 * commit d24e189, before the crossbar, DRAM-queue and clock-grid
 * loops were rewritten. The line-size cell was captured at commit
 * ee399ae, where the L1, L2 and partition line sizes were keys of
 * their own, with all four set to 64. stage_pct.*, engine.group.*
 * and analysis* are left out on purpose.
 */
struct PinnedCell
{
    const char *name;
    ExperimentSpec spec;
    Cycle cycles;
    std::uint64_t instructions;
    std::map<std::string, std::uint64_t> counters;
};

TEST(RecordPins, NonDefaultPathsMatchCapture)
{
    const std::vector<PinnedCell> cells{
        {"fcfs scheduler",
         {"gf106", "bfs", {"scale=10"},
          {"partition.sched=fcfs"}},
         157521,
         29540,
         {
             {"idle_cycles", 274960},
             {"icnt.req.transferred", 2559},
             {"icnt.req.arb_stalls", 145},
             {"icnt.resp.transferred", 1209},
             {"icnt.resp.arb_stalls", 42},
             {"dram.rd_row_closed", 16},
             {"dram.rd_row_hits", 415},
             {"dram.rd_row_misses", 117},
             {"dram.row_closed", 16},
             {"dram.row_hits", 1047},
             {"dram.row_misses", 127},
             {"dram.wr_row_closed", 0},
             {"dram.wr_row_hits", 632},
             {"dram.wr_row_misses", 10},
             {"dram_reads", 548},
             {"dram_writes", 642},
             {"engine.core.ticks_run", 128740},
             {"engine.core.ticks_skipped", 816386},
             {"engine.icnt.ticks_run", 31733},
             {"engine.icnt.ticks_skipped", 440830},
             {"engine.l2.ticks_run", 31207},
             {"engine.l2.ticks_skipped", 441356},
             {"engine.dram.ticks_run", 20607},
             {"engine.dram.ticks_skipped", 294435},
         }},
        {"ddr timing, xor map, 2 ranks, closed page",
         {"gf106", "vecadd", {"n=32768"},
          {"mem.dram.model=ddr",
           "mem.dram.map=xor",
           "mem.dram.ranks=2",
           "mem.dram.pagePolicy=closed"}},
         65170,
         19456,
         {
             {"idle_cycles", 243385},
             {"icnt.req.transferred", 6144},
             {"icnt.req.arb_stalls", 70},
             {"icnt.resp.transferred", 4096},
             {"icnt.resp.arb_stalls", 2047},
             {"dram.bg0.row_closed", 1536},
             {"dram.bg0.row_hits", 0},
             {"dram.bg0.row_misses", 0},
             {"dram.bg1.row_closed", 1536},
             {"dram.bg1.row_hits", 0},
             {"dram.bg1.row_misses", 0},
             {"dram.bg2.row_closed", 1536},
             {"dram.bg2.row_hits", 0},
             {"dram.bg2.row_misses", 0},
             {"dram.bg3.row_closed", 1536},
             {"dram.bg3.row_hits", 0},
             {"dram.bg3.row_misses", 0},
             {"dram.rd_row_closed", 4096},
             {"dram.rd_row_hits", 0},
             {"dram.rd_row_misses", 0},
             {"dram.row_closed", 6144},
             {"dram.row_hits", 0},
             {"dram.row_misses", 0},
             {"dram.wr_row_closed", 2048},
             {"dram.wr_row_hits", 0},
             {"dram.wr_row_misses", 0},
             {"dram_reads", 4096},
             {"dram_writes", 2048},
             {"engine.core.ticks_run", 313998},
             {"engine.core.ticks_skipped", 77022},
             {"engine.icnt.ticks_run", 73777},
             {"engine.icnt.ticks_skipped", 121733},
             {"engine.l2.ticks_run", 132104},
             {"engine.l2.ticks_skipped", 63406},
             {"engine.dram.ticks_run", 70069},
             {"engine.dram.ticks_skipped", 60271},
         }},
        {"slow DRAM, fast icnt, bank-group map",
         {"gf106", "bfs", {"scale=10"},
          {"dramClock=1/3", "icntClock=2/1", "mem.dram.map=bg"}},
         235714,
         29510,
         {
             {"idle_cycles", 453873},
             {"icnt.req.transferred", 2422},
             {"icnt.req.arb_stalls", 125},
             {"icnt.resp.transferred", 1079},
             {"icnt.resp.arb_stalls", 52},
             {"dram.rd_row_closed", 16},
             {"dram.rd_row_hits", 413},
             {"dram.rd_row_misses", 119},
             {"dram.row_closed", 16},
             {"dram.row_hits", 1037},
             {"dram.row_misses", 131},
             {"dram.wr_row_closed", 0},
             {"dram.wr_row_hits", 624},
             {"dram.wr_row_misses", 12},
             {"dram_reads", 548},
             {"dram_writes", 636},
             {"engine.core.ticks_run", 142216},
             {"engine.core.ticks_skipped", 1272068},
             {"engine.icnt.ticks_run", 118403},
             {"engine.icnt.ticks_skipped", 1295878},
             {"engine.l2.ticks_run", 58166},
             {"engine.l2.ticks_skipped", 648976},
             {"engine.dram.ticks_run", 20113},
             {"engine.dram.ticks_skipped", 137031},
         }},
        {"tiny starvation limit",
         {"gf106", "bfs", {"scale=10"},
          {"mem.dram.starveLimit=16"}},
         148026,
         29510,
         {
             {"idle_cycles", 248472},
             {"icnt.req.transferred", 2512},
             {"icnt.req.arb_stalls", 150},
             {"icnt.resp.transferred", 1167},
             {"icnt.resp.arb_stalls", 32},
             {"dram.rd_row_closed", 16},
             {"dram.rd_row_hits", 412},
             {"dram.rd_row_misses", 120},
             {"dram.row_closed", 16},
             {"dram.row_hits", 1037},
             {"dram.row_misses", 131},
             {"dram.wr_row_closed", 0},
             {"dram.wr_row_hits", 625},
             {"dram.wr_row_misses", 11},
             {"dram_reads", 548},
             {"dram_writes", 636},
             {"engine.core.ticks_run", 118291},
             {"engine.core.ticks_skipped", 769865},
             {"engine.icnt.ticks_run", 27759},
             {"engine.icnt.ticks_skipped", 416319},
             {"engine.l2.ticks_run", 24285},
             {"engine.l2.ticks_skipped", 419793},
             {"engine.dram.ticks_run", 16574},
             {"engine.dram.ticks_skipped", 279478},
         }},
        {"70 SMs on 3 partitions",
         {"gf106", "vecadd", {"n=65536"},
          {"numSms=70", "numPartitions=3"}},
         96148,
         38912,
         {
             {"idle_cycles", 5808771},
             {"icnt.req.transferred", 12288},
             {"icnt.req.arb_stalls", 260820},
             {"icnt.resp.transferred", 8192},
             {"icnt.resp.arb_stalls", 1},
             {"dram.rd_row_closed", 24},
             {"dram.rd_row_hits", 2341},
             {"dram.rd_row_misses", 5827},
             {"dram.row_closed", 24},
             {"dram.row_hits", 3265},
             {"dram.row_misses", 8999},
             {"dram.wr_row_closed", 0},
             {"dram.wr_row_hits", 924},
             {"dram.wr_row_misses", 3172},
             {"dram_reads", 8192},
             {"dram_writes", 4096},
             {"engine.core.ticks_run", 5946854},
             {"engine.core.ticks_skipped", 975802},
             {"engine.icnt.ticks_run", 195416},
             {"engine.icnt.ticks_skipped", 93028},
             {"engine.l2.ticks_run", 375785},
             {"engine.l2.ticks_skipped", 8807},
             {"engine.dram.ticks_run", 154927},
             {"engine.dram.ticks_skipped", 133517},
         }},
        {"one line size, from sm.lineBytes alone",
         {"gf106", "vecadd", {"n=4096"}, {"sm.lineBytes=64"}},
         23758,
         2432,
         {
             {"active_cycles", 86716},
             {"dram.rd_row_closed", 16},
             {"dram.rd_row_hits", 770},
             {"dram.rd_row_misses", 238},
             {"dram.row_closed", 16},
             {"dram.row_hits", 1204},
             {"dram.row_misses", 316},
             {"dram.wr_row_closed", 0},
             {"dram.wr_row_hits", 434},
             {"dram.wr_row_misses", 78},
             {"dram_reads", 1024},
             {"dram_writes", 512},
             {"engine.core.ticks_run", 91729},
             {"engine.core.ticks_skipped", 50819},
             {"engine.dram.ticks_run", 24545},
             {"engine.dram.ticks_skipped", 22971},
             {"engine.icnt.ticks_run", 24616},
             {"engine.icnt.ticks_skipped", 46658},
             {"engine.l2.ticks_run", 43682},
             {"engine.l2.ticks_skipped", 27592},
             {"icnt.req.arb_stalls", 51},
             {"icnt.req.transferred", 1536},
             {"icnt.resp.arb_stalls", 512},
             {"icnt.resp.transferred", 1024},
             {"idle_cycles", 85045},
             {"idle_on_alu", 72},
             {"idle_on_barrier", 0},
             {"idle_on_lsu", 0},
             {"idle_on_memory", 84973},
             {"issued", 2432},
             {"l1.dirty_evictions", 0},
             {"l1.evictions", 0},
             {"l1.hits", 0},
             {"l1.misses", 69728},
             {"l2.dirty_evictions", 0},
             {"l2.evictions", 0},
             {"l2.hits", 0},
             {"l2.misses", 15459},
             {"l2_accesses", 15459},
             {"l2_mshr_bank_conflicts", 0},
             {"l2_writebacks", 0},
             {"loads_completed", 256},
             {"mem_instrs", 384},
         }},
    };
    for (const PinnedCell &cell : cells) {
        SCOPED_TRACE(cell.name);
        const ExperimentRecord rec = runExperiment(cell.spec);
        EXPECT_TRUE(rec.correct);
        EXPECT_EQ(rec.cycles, cell.cycles);
        EXPECT_EQ(rec.instructions, cell.instructions);
        for (const auto &[key, value] : cell.counters) {
            ASSERT_TRUE(rec.counters.count(key)) << key;
            EXPECT_EQ(rec.counters.at(key), value) << key;
        }
    }
}

} // namespace
} // namespace gpulat
