#include "api/cli.hh"

#include <chrono>
#include <iomanip>
#include <iostream>
#include <limits>
#include <memory>
#include <sstream>
#include <string>
#include <vector>

#include "api/config_override.hh"
#include "api/experiment.hh"
#include "api/parallel_runner.hh"
#include "api/param_map.hh"
#include "api/workload_registry.hh"
#include "common/log.hh"
#include "common/table.hh"
#include "latency/breakdown.hh"
#include "latency/exposure.hh"
#include "latency/summary.hh"

namespace gpulat {

namespace {

int
usage(std::ostream &err)
{
    err << "usage: gpulat <command> [options]\n"
           "\n"
           "commands:\n"
           "  list [workloads|gpus|keys]   what can be run/overridden\n"
           "  run    run one experiment\n"
           "  sweep  run a sweep (comma-separated values expand to\n"
           "         the cartesian product)\n"
           "  analyze  run the SM-parallel footprint analysis for a\n"
           "           workload (or a --set sweep of it) and print\n"
           "           each launch verdict, reason chain and\n"
           "           per-access footprints; exits nonzero when any\n"
           "           analysis diverges or any cell crashes\n"
           "\n"
           "run/sweep options:\n"
           "  --gpu NAME         config preset (default gf100-sim)\n"
           "  --workload NAME    registered workload (or the first\n"
           "                     bare argument: `gpulat run vecadd`)\n"
           "  key=value          workload parameter (positional)\n"
           "  --set path=value   config override (repeatable)\n"
           "  --scale S          shrink workload defaults, (0,1]\n"
           "  --json FILE|-      write JSON records\n"
           "  --csv FILE|-       write CSV records\n"
           "  --no-table         suppress the text table\n"
           "  --jobs N           run up to N experiments "
           "concurrently (default 1;\n"
           "                     0 = hardware concurrency; output "
           "is byte-identical\n"
           "                     to --jobs 1, committed in sweep "
           "order)\n"
           "  --tick-jobs N      worker threads ticking partition "
           "and SM groups\n"
           "                     *inside* each simulation (default "
           "1 = serial; 0 = hardware\n"
           "                     concurrency; output is "
           "byte-identical to\n"
           "                     --tick-jobs 1; same as --set "
           "engine.tickJobs=N)\n"
           "  --report KIND      summary|fig1|fig2|all per-run "
           "latency reports\n"
           "  --buckets N        report latency buckets "
           "(default 48)\n"
           "  --stats            dump raw per-unit counters per "
           "run\n"
           "\n"
           "examples:\n"
           "  gpulat run --gpu gf100sim --workload bfs scale=12\n"
           "  gpulat run --workload vecadd n=4096 "
           "--set sm.warpSlots=16 --json out.json\n"
           "  gpulat sweep --workload bfs "
           "--set sm.warpSlots=1,2,4,8,16,32,48\n"
           "  gpulat analyze reduction n=65536\n"
           "  gpulat analyze gemm --set sm.warpSlots=8,16\n";
    return 2;
}

/**
 * The verdict tag shown by `gpulat list`: the analysis outcome of
 * the workload's registry defaults shrunk to a quick probe scale.
 * The verdict is a pure function of (kernel, grid, params), so the
 * probe must actually run the workload to obtain its launches —
 * kept cheap with a small scale (the same mechanism the quick-CI
 * suites use). Workloads whose verdict is shape-dependent report
 * the probe shape's verdict; `gpulat analyze` gives the full story
 * at any size.
 */
const char *
workloadVerdictTag(const std::string &name)
{
    try {
        ExperimentSpec spec;
        spec.workload = name;
        spec.scale = 0.05;
        SmParallelVerdict verdict;
        runExperiment(spec,
                      [&](Gpu &gpu, const ExperimentRecord &) {
                          verdict = gpu.lastVerdict();
                      });
        return verdict.safe ? " [sm-parallel]" : " [serialized]";
    } catch (const FatalError &) {
        return " [analysis-failed]";
    }
}

void
listWorkloads(std::ostream &out)
{
    out << "workloads:\n";
    const WorkloadRegistry &reg = WorkloadRegistry::instance();
    for (const std::string &name : reg.names()) {
        const WorkloadEntry *entry = reg.find(name);
        out << "  " << name << workloadVerdictTag(name)
            << " — " << entry->description << "\n";
        for (const WorkloadParamSpec &p : entry->params) {
            out << "      " << p.name << " (default "
                << p.defaultValue << "): " << p.help << "\n";
        }
    }
}

void
listGpus(std::ostream &out)
{
    out << "gpu presets:\n";
    for (const std::string &name : configNames()) {
        const GpuConfig cfg = makeConfig(name);
        out << "  " << name << " — " << cfg.numSms << " SMs, "
            << cfg.numPartitions << " partitions, "
            << cfg.sm.warpSlots << " warps/SM\n";
    }
}

void
listKeys(std::ostream &out)
{
    out << "config override keys (--set path=value):\n";
    const GpuConfig defaults = makeConfig("gf100-sim");
    for (const ConfigKey &key : configKeys()) {
        out << "  " << key.path << " (" << key.type
            << ", gf100-sim: " << key.get(defaults) << ")\n";
    }
}

double
parseDouble(const std::string &flag, const std::string &text)
{
    const auto v = parseFinite(text);
    if (!v)
        fatal("'", flag, "' needs a finite number, got '", text, "'");
    return *v;
}

std::size_t
parseSize(const std::string &flag, const std::string &text)
{
    const auto v =
        parseDecimal(text, std::numeric_limits<std::size_t>::max());
    if (!v)
        fatal("'", flag, "' needs a non-negative integer, got '",
              text, "'");
    return *v;
}

struct CliOptions
{
    ExperimentSpec spec;
    std::vector<std::string> jsonOuts;
    std::vector<std::string> csvOuts;
    bool table = true;
    std::string report;
    std::size_t buckets = 48;
    bool dumpStats = false;
    std::size_t jobs = 1; ///< 0 = hardware concurrency
};

/** Parse run/sweep arguments; returns false after printing usage. */
bool
parseRunArgs(const std::vector<std::string> &args, CliOptions &opts,
             std::ostream &err)
{
    for (std::size_t i = 0; i < args.size(); ++i) {
        const std::string &arg = args[i];
        auto next = [&]() -> const std::string & {
            if (i + 1 >= args.size())
                fatal("option '", arg, "' needs a value");
            return args[++i];
        };
        if (arg == "--gpu") {
            opts.spec.gpu = next();
        } else if (arg == "--workload") {
            opts.spec.workload = next();
        } else if (arg == "--set") {
            opts.spec.overrides.push_back(next());
        } else if (arg == "--scale") {
            opts.spec.scale = parseDouble(arg, next());
        } else if (arg == "--json") {
            opts.jsonOuts.push_back(next());
        } else if (arg == "--csv") {
            opts.csvOuts.push_back(next());
        } else if (arg == "--no-table") {
            opts.table = false;
        } else if (arg == "--report") {
            opts.report = next();
        } else if (arg == "--buckets") {
            opts.buckets = parseSize(arg, next());
        } else if (arg == "--jobs") {
            opts.jobs = parseJobs(next());
        } else if (arg == "--tick-jobs") {
            // Sugar for the config override (same parse rules as
            // --jobs); collectRecord() keeps it out of the record.
            opts.spec.overrides.push_back(
                "engine.tickJobs=" +
                std::to_string(parseJobs(next(), "--tick-jobs")));
        } else if (arg == "--stats") {
            opts.dumpStats = true;
        } else if (arg.rfind("--", 0) == 0) {
            err << "unknown option '" << arg << "'\n";
            return false;
        } else if (arg.find('=') != std::string::npos) {
            opts.spec.params.push_back(arg);
        } else if (opts.spec.workload.empty()) {
            // First bare token names the workload, so
            // `gpulat run serve.mixed load=2` works without
            // --workload.
            opts.spec.workload = arg;
        } else {
            err << "expected key=value or an option, got '" << arg
                << "'\n";
            return false;
        }
    }
    return true;
}

int
runOrSweep(const CliOptions &opts, bool allow_sweep,
           std::ostream &out, std::ostream &err)
{
    if (opts.spec.workload.empty()) {
        err << "run/sweep needs a workload (--workload NAME or the "
               "first bare argument; see `gpulat list`)\n";
        return 2;
    }

    const auto runs = expandSweep(opts.spec);
    if (!allow_sweep && runs.size() > 1) {
        err << "`gpulat run` runs one experiment; comma-separated "
               "values expand to " << runs.size()
            << " runs — use `gpulat sweep`\n";
        return 2;
    }

    MultiSink sinks;
    bool stdoutTaken = false;
    for (const std::string &path : opts.jsonOuts) {
        if (path == "-") {
            sinks.add(std::make_unique<JsonSink>(out));
            stdoutTaken = true;
        } else {
            sinks.add(std::make_unique<JsonSink>(path));
        }
    }
    for (const std::string &path : opts.csvOuts) {
        if (path == "-") {
            sinks.add(std::make_unique<CsvSink>(out));
            stdoutTaken = true;
        } else {
            sinks.add(std::make_unique<CsvSink>(path));
        }
    }
    // The human-readable table is on by default but must not
    // corrupt machine-readable output already claimed on stdout.
    if (opts.table && !stdoutTaken)
        sinks.add(std::make_unique<TextTableSink>(out));

    const bool wantsReport = !opts.report.empty() || opts.dumpStats;
    if (wantsReport && stdoutTaken) {
        fatal("--report/--stats write to stdout; use a file for "
              "--json/--csv");
    }

    // Reports need the still-live Gpu, so they render on the worker
    // thread into an index-private slot; the commit below prints
    // them in sweep order, keeping --jobs N output byte-identical
    // to --jobs 1.
    std::vector<std::string> reports(runs.size());
    auto inspect = [&](std::size_t index, Gpu &gpu,
                       const ExperimentRecord &rec) {
        if (!wantsReport)
            return;
        std::ostringstream ros;
        ros << "=== " << rec.gpu << " x " << rec.workload;
        for (const auto &[k, v] : rec.overrides)
            ros << " " << k << "=" << v;
        ros << " ===\n";
        const bool all = opts.report == "all";
        if (opts.report == "summary" || all) {
            computeSummary(gpu.latencies().traces()).print(ros);
            ros << "\n";
        }
        if (opts.report == "fig1" || all) {
            computeBreakdown(gpu.latencies().traces(), opts.buckets)
                .printChart(ros);
            ros << "\n";
        }
        if (opts.report == "fig2" || all) {
            computeExposure(gpu.exposure().records(), opts.buckets)
                .printChart(ros);
            ros << "\n";
        }
        if (opts.dumpStats)
            gpu.stats().dump(ros);
        reports[index] = ros.str();
    };

    bool allCorrect = true;
    bool anyFailed = false;
    auto commit = [&](std::size_t index, const JobOutcome &outcome) {
        if (outcome.failed) {
            const ExperimentSpec &spec = runs[index];
            err << "run " << index << " (" << spec.gpu << " x "
                << spec.workload << "): " << outcome.error << "\n";
            anyFailed = true;
            return;
        }
        out << reports[index];
        allCorrect = allCorrect && outcome.record.correct;
        sinks.write(outcome.record);
    };

    const std::size_t jobs = resolveJobs(opts.jobs);
    const auto t0 = std::chrono::steady_clock::now();
    ParallelRunner runner(jobs);
    runner.run(runs, inspect, commit);
    sinks.finish();

    // Wall-clock goes to stderr only: record streams carry no
    // timing, so --jobs 1 and --jobs N stdout/file output diffs
    // clean (the CI determinism gate relies on this).
    if (runs.size() > 1) {
        const std::chrono::duration<double, std::milli> wall =
            std::chrono::steady_clock::now() - t0;
        err << runs.size() << " experiments, " << jobs
            << (jobs == 1 ? " job, " : " jobs, ") << std::fixed
            << std::setprecision(0) << wall.count() << " ms\n";
    }

    if (anyFailed)
        return 2;
    if (!allCorrect)
        err << "FAILED: at least one workload did not verify\n";
    return allCorrect ? 0 : 1;
}

// ------------------------------------------------------------- analyze

/** Footprint bound with the +-inf sentinels spelt out. */
std::string
boundText(std::int64_t v)
{
    if (v == kNegInf)
        return "-inf";
    if (v == kPosInf)
        return "+inf";
    return std::to_string(v);
}

/**
 * One launch verdict, in full: headline, derivation chain, every
 * global access site with its affine form and block/grid byte
 * intervals, and the composable whole-grid footprint.
 */
void
printVerdict(std::ostream &out, const SmParallelVerdict &v)
{
    out << "verdict: "
        << (v.safe ? "sm-parallel" : "serialized") << " — "
        << v.reason << "\n";
    for (const std::string &step : v.reasonChain)
        out << "  | " << step << "\n";
    if (!v.accesses.empty()) {
        out << "global accesses:\n";
        for (const AccessFootprint &a : v.accesses) {
            out << "  pc " << a.pc << "  "
                << (a.atomic ? "atom" : a.store ? "st  " : "ld  ");
            if (a.affine) {
                out << "  " << a.form << "  block0=["
                    << boundText(a.blockLo) << ", "
                    << boundText(a.blockHi) << ")  grid=["
                    << boundText(a.gridLo) << ", "
                    << boundText(a.gridHi) << ")";
            } else {
                out << "  (non-affine)";
            }
            out << "\n";
        }
    }
    if (v.footprintKnown) {
        out << "grid footprint (" << v.footprint.size()
            << " range(s), " << (v.hasStore ? "has stores" : "loads only")
            << (v.atomicsForwarded
                    ? ", atomics partition-forwarded"
                    : "")
            << "):\n";
        for (const FootprintRange &r : v.footprint) {
            out << "  [" << boundText(r.lo) << ", "
                << boundText(r.hi) << ") "
                << (r.atomic ? "atom" : r.store ? "store" : "load")
                << "\n";
        }
    } else {
        out << "grid footprint: unknown\n";
    }
}

/**
 * `gpulat analyze`: run each expanded cell (the verdict is a pure
 * function of the kernel and launch shape, but obtaining those
 * requires executing the workload — e.g. bfs launches until its
 * frontier drains) and print the last launch's verdict per cell.
 * Exit 2 when a cell crashes, 1 when any analysis failed to
 * converge (its verdict is "unknown" rather than a sound
 * serialized/parallel call), else 0.
 */
int
runAnalyze(const CliOptions &opts, std::ostream &out,
           std::ostream &err)
{
    if (opts.spec.workload.empty()) {
        err << "analyze needs a workload (--workload NAME or the "
               "first bare argument; see `gpulat list`)\n";
        return 2;
    }

    const auto runs = expandSweep(opts.spec);
    std::vector<SmParallelVerdict> verdicts(runs.size());
    std::vector<unsigned> launchCounts(runs.size(), 0);
    auto inspect = [&](std::size_t index, Gpu &gpu,
                       const ExperimentRecord &rec) {
        verdicts[index] = gpu.lastVerdict();
        launchCounts[index] = rec.launches;
    };

    bool anyFailed = false;
    bool anyUnknown = false;
    auto commit = [&](std::size_t index, const JobOutcome &outcome) {
        const ExperimentSpec &spec = runs[index];
        out << "=== " << spec.gpu << " x " << spec.workload;
        for (const std::string &p : spec.params)
            out << " " << p;
        for (const std::string &o : spec.overrides) {
            // engine.tickJobs is an execution knob, filtered from
            // record overrides for the same reason: analyze output
            // must be identical across --tick-jobs values.
            if (o.rfind("engine.tickJobs=", 0) == 0)
                continue;
            out << " " << o;
        }
        out << " ===\n";
        if (outcome.failed) {
            out << "verdict: crash — " << outcome.error << "\n";
            anyFailed = true;
            return;
        }
        if (launchCounts[index] > 1) {
            out << "(" << launchCounts[index]
                << " launches; verdict of the last)\n";
        }
        printVerdict(out, verdicts[index]);
        // The one verdict that is neither "safe" nor a sound
        // serialization argument: the fixpoint gave up, so the
        // footprint story is unknown (reason string is part of the
        // stable verdict vocabulary, see kernel_analysis.cc).
        if (verdicts[index].reason == "fixpoint did not converge")
            anyUnknown = true;
    };

    ParallelRunner runner(resolveJobs(opts.jobs));
    runner.run(runs, inspect, commit);
    if (anyFailed)
        return 2;
    return anyUnknown ? 1 : 0;
}

} // namespace

int
runCli(int argc, const char *const *argv, std::ostream &out,
       std::ostream &err)
{
    std::vector<std::string> args(argv + 1, argv + argc);
    if (args.empty())
        return usage(err);

    const std::string command = args.front();
    args.erase(args.begin());

    try {
        if (command == "list") {
            const std::string what = args.empty() ? "" : args.front();
            if (what.empty() || what == "workloads")
                listWorkloads(out);
            if (what.empty() || what == "gpus")
                listGpus(out);
            if (what.empty() || what == "keys")
                listKeys(out);
            if (!what.empty() && what != "workloads" &&
                what != "gpus" && what != "keys") {
                err << "unknown list section '" << what
                    << "' (workloads|gpus|keys)\n";
                return 2;
            }
            return 0;
        }
        if (command == "run" || command == "sweep") {
            CliOptions opts;
            if (!parseRunArgs(args, opts, err))
                return usage(err);
            return runOrSweep(opts, command == "sweep", out, err);
        }
        if (command == "analyze") {
            CliOptions opts;
            if (!parseRunArgs(args, opts, err))
                return usage(err);
            return runAnalyze(opts, out, err);
        }
        if (command == "--help" || command == "-h" ||
            command == "help") {
            usage(out);
            return 0;
        }
        err << "unknown command '" << command << "'\n";
        return usage(err);
    } catch (const FatalError &e) {
        err << e.what() << "\n";
        return 2;
    }
}

} // namespace gpulat
