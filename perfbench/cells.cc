/**
 * @file
 * The benchmark's cell runner. One process serves one closed loop
 * with one client: it runs experiment cells of a single workload back
 * to back until the time box is spent, each cell built and torn down
 * exactly like runExperiment() does (api/experiment.cc), and prints
 * one JSON line per cell plus the run's spans and process totals.
 * run.py turns those lines into metrics; this file does no
 * arithmetic beyond reading clocks and counters.
 *
 *   perfbench_cells accuracy
 *       Table I pointer-chase probes (same plan and reference values
 *       as bench_table1_static_latency), one JSON line per probe.
 *   perfbench_cells cells --workload NAME --seconds S [--param k=v]...
 *                   [--set path=v]... [--setup-samples N]
 *                   [--alternate-set path=v]
 *       Timed cells for S seconds (at least two cells), then N setup
 *       samples (config + workload + Gpu, never simulated). With
 *       --alternate-set, every odd-numbered cell also applies that
 *       override, so two settings share the same minutes of host
 *       load. A host-speed probe pass (host_probe.hh) runs before
 *       the first cell and after every cell and sample, each one a
 *       top-level "hostref" span.
 *
 * perfbench_traced accepts the same arguments. It arms its linker
 * wraps (tracer_on.cc) on every other cell and adds their per-cell
 * aggregates to those cells' lines.
 */

#include <sys/resource.h>

#include <cstdint>
#include <cstdlib>
#include <exception>
#include <iostream>
#include <memory>
#include <sstream>
#include <string>
#include <vector>

#include "api/experiment.hh"
#include "api/param_map.hh"
#include "api/stat_sink.hh"
#include "api/workload_registry.hh"
#include "gpu/gpu.hh"
#include "gpu/gpu_config.hh"
#include "host_probe.hh"
#include "microbench/pchase.hh"
#include "span_log.hh"
#include "tracer.hh"

using namespace gpulat;

namespace perfbench {
namespace {

struct Options
{
    std::string mode;
    ExperimentSpec spec;
    double seconds = 0.0;
    unsigned setupSamples = 0;
    /** Extra override for every odd-numbered cell (empty = none). */
    std::string alternateSet;
};

[[noreturn]] void
usage(const std::string &why)
{
    std::cerr << "perfbench_cells: " << why << "\n"
              << "usage: perfbench_cells accuracy\n"
              << "       perfbench_cells cells --workload NAME "
                 "--seconds S [--param k=v]... [--set path=v]... "
                 "[--setup-samples N] [--alternate-set path=v]\n";
    std::exit(2);
}

Options
parseArgs(int argc, char **argv)
{
    if (argc < 2)
        usage("missing mode");
    Options opts;
    opts.mode = argv[1];
    for (int i = 2; i < argc; ++i) {
        const std::string arg = argv[i];
        if (i + 1 >= argc)
            usage("option '" + arg + "' needs a value");
        const std::string value = argv[++i];
        if (arg == "--workload")
            opts.spec.workload = value;
        else if (arg == "--param")
            opts.spec.params.push_back(value);
        else if (arg == "--set")
            opts.spec.overrides.push_back(value);
        else if (arg == "--seconds")
            opts.seconds = std::stod(value);
        else if (arg == "--setup-samples")
            opts.setupSamples =
                static_cast<unsigned>(std::stoul(value));
        else if (arg == "--alternate-set")
            opts.alternateSet = value;
        else
            usage("unknown option '" + arg + "'");
    }
    if (opts.mode == "cells" && opts.spec.workload.empty())
        usage("cells needs --workload");
    if (opts.mode == "cells" && !(opts.seconds > 0.0))
        usage("cells needs a positive --seconds");
    return opts;
}

/** runExperiment()'s effective parameters: scaled registry
 *  defaults under the spec's explicit assignments. */
ParamMap
effectiveParams(const ExperimentSpec &spec)
{
    ParamMap params = WorkloadRegistry::instance().scaledParams(
        spec.workload, spec.scale);
    for (const std::string &a : spec.params) {
        auto [key, value] = ParamMap::splitAssignment(a);
        params.set(key, value);
    }
    return params;
}

/** The record exactly as `gpulat run --json FILE` writes it. */
std::string
recordJson(const ExperimentRecord &rec)
{
    std::ostringstream os;
    JsonSink sink(os);
    sink.write(rec);
    sink.finish();
    return os.str();
}

/**
 * Everything before the first simulated cycle, in runExperiment()'s
 * order: the workload (input generation and kernel assembly), the
 * config, then the device.
 */
struct Setup
{
    std::unique_ptr<Workload> workload;
    ParamMap params;
    std::unique_ptr<Gpu> gpu;
};

Setup
setUp(SpanLog &log, const ExperimentSpec &spec)
{
    Setup s;
    {
        SpanScope span(log, "create");
        s.params = effectiveParams(spec);
        s.workload =
            WorkloadRegistry::instance().create(spec.workload, s.params);
    }
    GpuConfig cfg;
    {
        SpanScope span(log, "build_config");
        cfg = buildConfig(spec);
    }
    {
        SpanScope span(log, "construct");
        s.gpu = std::make_unique<Gpu>(std::move(cfg));
    }
    return s;
}

void
tearDown(SpanLog &log, Setup &s)
{
    {
        SpanScope span(log, "destroy");
        s.gpu.reset();
    }
    s.workload.reset();
}

/** One timed cell, from spec to record, including ~Gpu; @p traced
 *  arms the traced build's wraps for it. */
void
runCell(SpanLog &log, const ExperimentSpec &spec, std::uint64_t index,
        bool traced)
{
    log.setCell(index);
    if (traced)
        traceBeginCell(log);
    ExperimentRecord rec;
    std::uint64_t steps = 0;
    {
        SpanScope cell(log, "cell");
        Setup s = setUp(log, spec);
        WorkloadResult result;
        {
            SpanScope span(log, "run");
            result = s.workload->run(*s.gpu);
        }
        {
            // The first read merges the per-SM collector shards;
            // collectRecord() then reads the merged traces.
            SpanScope span(log, "traces");
            (void)s.gpu->latencies().traces();
        }
        {
            SpanScope span(log, "collect");
            rec = collectRecord(*s.gpu, spec, result);
            rec.params.clear();
            for (const auto &[k, v] : s.params.entries())
                rec.params[k] = v;
        }
        steps = s.gpu->engine().steps();
        tearDown(log, s);
    }
    const std::string trace = traced ? traceEndCell() : std::string();

    std::cout << "{\"kind\": \"cell\", \"index\": " << index
              << ", \"correct\": " << (rec.correct ? "true" : "false")
              << ", \"cycles\": " << rec.cycles
              << ", \"instructions\": " << rec.instructions
              << ", \"launches\": " << rec.launches
              << ", \"steps\": " << steps
              << ", \"tick_jobs\": " << rec.tickJobs
              << ", \"record\": " << jsonQuote(recordJson(rec));
    if (!trace.empty())
        std::cout << ", \"trace\": " << trace;
    std::cout << "}\n" << std::flush;
}

/** Set-up cost alone: build everything a cell needs, simulate
 *  nothing, tear it down again. */
void
runSetupSample(SpanLog &log, const ExperimentSpec &spec,
               std::uint64_t index)
{
    log.setCell(index);
    SpanScope sample(log, "setup_sample");
    Setup s = setUp(log, spec);
    tearDown(log, s);
}

/** One host-speed probe pass between two cells or samples. */
void
probeHost(SpanLog &log, HostProbe &probe)
{
    const std::uint64_t id = log.open("hostref");
    const std::uint64_t checksum = probe.run();
    log.close(id);
    // Written out with the span, so the probe's work cannot be
    // optimized away.
    log.span(id).attrs["checksum"] = static_cast<std::int64_t>(checksum);
}

void
printProcessTotals(std::int64_t wall_ns)
{
    rusage ru{};
    getrusage(RUSAGE_SELF, &ru);
    const double cpu_s =
        static_cast<double>(ru.ru_utime.tv_sec + ru.ru_stime.tv_sec) +
        static_cast<double>(ru.ru_utime.tv_usec + ru.ru_stime.tv_usec) *
            1e-6;
    std::cout << "{\"kind\": \"process\", \"peak_rss_kb\": "
              << ru.ru_maxrss << ", \"nivcsw\": " << ru.ru_nivcsw
              << ", \"nvcsw\": " << ru.ru_nvcsw
              << ", \"cpu_s\": " << cpu_s
              << ", \"wall_s\": " << static_cast<double>(wall_ns) * 1e-9
              << "}\n";
}

int
runCells(const Options &opts)
{
    const std::int64_t start = steadyNs();
    const std::string calibration = traceCalibrate();
    if (!calibration.empty()) {
        std::cout << "{\"kind\": \"calibration\", \"calibration\": "
                  << calibration << "}\n";
    }

    SpanLog log;
    HostProbe probe;
    ExperimentSpec alternate = opts.spec;
    if (!opts.alternateSet.empty())
        alternate.overrides.push_back(opts.alternateSet);
    const std::int64_t box = static_cast<std::int64_t>(opts.seconds * 1e9);
    const std::int64_t timed_from = steadyNs();
    std::uint64_t index = 0;
    // The traced build alternates armed and bare cells, so the
    // tracing overhead is measured against cells of the same process
    // and the same minutes of host load. Two cells at least, so that
    // both kinds of cell exist in every run.
    probeHost(log, probe);
    while (index < 2 || steadyNs() - timed_from < box) {
        const bool odd = index % 2 == 1;
        runCell(log, odd ? alternate : opts.spec, index,
                traceEnabled() && !odd);
        probeHost(log, probe);
        ++index;
    }
    for (unsigned i = 0; i < opts.setupSamples; ++i) {
        runSetupSample(log, opts.spec, index++);
        probeHost(log, probe);
    }

    log.write(std::cout);
    printProcessTotals(steadyNs() - start);
    return 0;
}

/** One Table I probe: a preset, a level and the paper's cycles. */
struct Probe
{
    const char *gpu;
    const char *unit;
    double paperCycles;
    MemSpace space;
    std::uint64_t footprintBytes;
    bool warmup;
};

/**
 * bench_table1_static_latency's probe plan: a half-capacity
 * footprint pins the chase to one hierarchy level; beyond the last
 * cache the cold chase skips its warm-up traversal.
 */
std::vector<Probe>
table1Probes()
{
    struct PaperColumn
    {
        const char *preset;
        double l1, l2, dram; ///< 0 = not published
    };
    static const PaperColumn paper[] = {
        {"gt200", 0, 0, 440},
        {"gf106", 45, 310, 685},
        {"gk104", 30, 175, 300},
        {"gm107", 0, 194, 350},
    };
    std::vector<Probe> probes;
    for (const PaperColumn &col : paper) {
        const GpuConfig cfg = makeConfig(col.preset);
        const std::uint64_t l1 = cfg.sm.l1Cache.capacityBytes;
        const std::uint64_t l2 = cfg.totalL2Bytes();
        if (cfg.sm.l1Enabled && cfg.sm.l1CachesGlobal) {
            probes.push_back({col.preset, "L1 D$", col.l1,
                              MemSpace::Global, l1 / 2, true});
        } else if (cfg.sm.l1Enabled && cfg.sm.l1CachesLocal) {
            probes.push_back({col.preset, "L1 D$", col.l1,
                              MemSpace::Local, l1 / 2, true});
        }
        if (cfg.partition.l2Enabled) {
            probes.push_back({col.preset, "L2 D$", col.l2,
                              MemSpace::Global, l2 / 2, true});
        }
        probes.push_back({col.preset, "DRAM", col.dram, MemSpace::Global,
                          l2 ? l2 * 3 : std::uint64_t{1} << 20, false});
    }
    return probes;
}

int
runAccuracy()
{
    for (const Probe &probe : table1Probes()) {
        GpuConfig cfg = makeConfig(probe.gpu);
        PChaseConfig chase;
        chase.space = probe.space;
        chase.footprintBytes = probe.footprintBytes;
        chase.strideBytes = cfg.sm.lineBytes;
        chase.timedAccesses = 1024;
        chase.warmup = probe.warmup;
        // A local chase needs the per-thread window to hold the
        // whole chain.
        if (probe.space == MemSpace::Local)
            cfg.localBytesPerThread = probe.footprintBytes;
        Gpu gpu(std::move(cfg));
        const PChaseResult r = runPointerChase(gpu, chase);
        std::ostringstream measured;
        measured.precision(17);
        measured << r.cyclesPerAccess;
        std::cout << "{\"kind\": \"probe\", \"gpu\": "
                  << jsonQuote(probe.gpu)
                  << ", \"unit\": " << jsonQuote(probe.unit)
                  << ", \"paper\": " << probe.paperCycles
                  << ", \"measured\": " << measured.str()
                  << ", \"chain_ok\": " << (r.chainOk ? "true" : "false")
                  << "}\n";
    }
    return 0;
}

} // namespace
} // namespace perfbench

int
main(int argc, char **argv)
{
    const perfbench::Options opts = perfbench::parseArgs(argc, argv);
    std::cout.precision(12);
    try {
        if (opts.mode == "accuracy")
            return perfbench::runAccuracy();
        if (opts.mode == "cells")
            return perfbench::runCells(opts);
    } catch (const std::exception &e) {
        std::cerr << "perfbench_cells: " << e.what() << "\n";
        return 1;
    }
    perfbench::usage("unknown mode '" + opts.mode + "'");
}
