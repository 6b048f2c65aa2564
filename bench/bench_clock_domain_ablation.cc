/**
 * @file
 * Clock-domain ablation: sweep the DRAM and interconnect clock
 * ratios (relative to the core clock) and decompose the resulting
 * memory latency into pipeline stages, in the spirit of the paper's
 * Figure 1 — adding the clock-ratio dimension the single-clock
 * simulator could not express.
 *
 * Driven through the experiment API: every point is one
 * ExperimentSpec, sweeps run concurrently on the ParallelRunner
 * (`--jobs N`, 0 = hardware concurrency, records stream to
 * `--json/--csv` sinks), and with more than one worker the DRAM
 * sweep is re-run serially to report the measured speedup.
 *
 * Three experiments:
 *   1. DRAM-clock sweep under load (BFS): per-stage latency
 *      breakdown vs DRAM frequency.
 *   2. ICNT-clock sweep under load (BFS).
 *   3. Idle pointer-chase latency vs DRAM clock (Table-I style),
 *      plus the wall-clock effect of both idle fast-forward modes
 *      (off / perDomain) on this latency-bound microbench,
 *      with per-domain skipped-tick ratios. `--ff-json FILE`
 *      writes the BENCH_fastforward.json perf-trajectory artifact
 *      CI's Release job uploads.
 */

#include <chrono>
#include <fstream>
#include <iomanip>
#include <iostream>
#include <string>
#include <vector>

#include "api/parallel_runner.hh"
#include "common/log.hh"
#include "latency/breakdown.hh"

using namespace gpulat;

namespace {

/** gf106 shrunk to 4 SMs / 2 partitions, as config overrides. */
std::vector<std::string>
baseOverrides()
{
    return {"numSms=4", "numPartitions=2",
            "deviceMemBytes=" + std::to_string(64 * 1024 * 1024)};
}

const std::vector<std::string> kDramSweep{"2/1", "1/1", "2/3",
                                          "1/2", "1/3"};
const std::vector<std::string> kIcntSweep{"2/1", "1/1", "1/2"};

double
wallMs(const std::chrono::steady_clock::time_point &t0)
{
    using ms = std::chrono::duration<double, std::milli>;
    return ms(std::chrono::steady_clock::now() - t0).count();
}

ExperimentSpec
loadSpec(const std::string &knob, const std::string &ratio)
{
    ExperimentSpec spec;
    spec.gpu = "gf106";
    spec.workload = "bfs";
    spec.params = {"kind=rmat", "scale=12", "degree=8"};
    spec.overrides = baseOverrides();
    spec.overrides.push_back(knob + "=" + ratio);
    return spec;
}

ExperimentSpec
chaseSpec(const std::vector<std::string> &extra_overrides,
          std::uint64_t timed_accesses)
{
    ExperimentSpec spec;
    spec.gpu = "gf106";
    spec.workload = "pchase";
    spec.params = {"footprintBytes=" +
                       std::to_string(4 * 1024 * 1024), // DRAM
                   "strideBytes=512",
                   "timedAccesses=" +
                       std::to_string(timed_accesses)};
    spec.overrides = baseOverrides();
    for (const std::string &o : extra_overrides)
        spec.overrides.push_back(o);
    return spec;
}

void
printHeader()
{
    std::cout << std::setw(6) << "ratio" << std::setw(12) << "cycles"
              << std::setw(9) << "mean";
    for (std::size_t s = 0; s < kNumStages; ++s)
        std::cout << std::setw(9) << toString(static_cast<Stage>(s));
    std::cout << "\n";
}

void
printPoint(const std::string &label, Cycle cycles,
           const Breakdown &bd)
{
    std::uint64_t total = 0;
    for (auto v : bd.totalByStage)
        total += v;
    const double mean = bd.requests
        ? static_cast<double>(total) / static_cast<double>(bd.requests)
        : 0.0;
    std::cout << std::setw(6) << label << std::setw(12) << cycles
              << std::setw(9) << std::fixed << std::setprecision(1)
              << mean;
    for (auto v : bd.totalByStage) {
        const double pct = total
            ? 100.0 * static_cast<double>(v) /
                  static_cast<double>(total)
            : 0.0;
        std::cout << std::setw(8) << std::setprecision(1) << pct
                  << "%";
    }
    std::cout << "\n";
}

/** @return {all points verified, wall-clock ms}. */
std::pair<bool, double>
sweepUnderLoad(const char *what, const std::string &knob,
               const std::vector<std::string> &sweep,
               std::size_t workers, MultiSink &sinks, bool quiet)
{
    std::vector<ExperimentSpec> specs;
    for (const std::string &ratio : sweep)
        specs.push_back(loadSpec(knob, ratio));

    if (!quiet) {
        std::cout << "\n== " << what
                  << "-clock sweep under load (BFS, RMAT scale 12, "
                  << workers << (workers == 1 ? " job" : " jobs")
                  << ") ==\n"
                  << "stage columns: % of aggregate fetch latency\n";
        printHeader();
    }

    // The chart needs the raw latency traces, so each point's
    // breakdown is computed on the worker thread into its own slot.
    std::vector<Breakdown> breakdowns(specs.size());
    const auto t0 = std::chrono::steady_clock::now();
    const auto outcomes = ParallelRunner(workers).run(
        specs,
        [&](std::size_t index, Gpu &gpu, const ExperimentRecord &) {
            breakdowns[index] =
                computeBreakdown(gpu.latencies().traces(), 32);
        });
    const double ms = wallMs(t0);

    bool all_correct = true;
    for (std::size_t i = 0; i < specs.size(); ++i) {
        if (outcomes[i].failed) {
            std::cout << sweep[i]
                      << ": ERROR: " << outcomes[i].error << "\n";
            all_correct = false;
            continue;
        }
        const ExperimentRecord &rec = outcomes[i].record;
        if (!quiet)
            sinks.write(rec);
        if (!rec.correct) {
            std::cout << sweep[i] << ": FUNCTIONAL MISMATCH\n";
            all_correct = false;
            continue;
        }
        if (!quiet)
            printPoint(sweep[i], rec.cycles, breakdowns[i]);
    }
    return {all_correct, ms};
}

bool
idleLatencySweep(std::size_t workers, MultiSink &sinks)
{
    std::cout << "\n== idle DRAM latency vs DRAM clock "
                 "(pointer chase, Table-I style) ==\n";
    std::cout << std::setw(6) << "ratio" << std::setw(16)
              << "cycles/access" << "\n";

    std::vector<ExperimentSpec> specs;
    for (const std::string &ratio : kDramSweep)
        specs.push_back(chaseSpec({"dramClock=" + ratio}, 256));
    const auto outcomes = ParallelRunner(workers).run(specs);

    bool ok = true;
    for (std::size_t i = 0; i < specs.size(); ++i) {
        if (outcomes[i].failed || !outcomes[i].record.correct) {
            std::cout << kDramSweep[i] << ": FAILED\n";
            ok = false;
            continue;
        }
        sinks.write(outcomes[i].record);
        std::cout << std::setw(6) << kDramSweep[i] << std::setw(16)
                  << std::fixed << std::setprecision(1)
                  << outcomes[i].record.metric(
                         "pchase_cycles_per_access")
                  << "\n";
    }
    return ok;
}

/** One fast-forward mode's measured effect on the DRAM chase. */
struct ModeSample
{
    std::string mode;
    double wallMs = 0.0;
    std::uint64_t steps = 0;
    std::uint64_t skippedCycles = 0;
    Cycle cycles = 0;

    struct DomainShare
    {
        std::string name;
        std::uint64_t ticksRun = 0;
        std::uint64_t ticksSkipped = 0;

        double
        skipPct() const
        {
            const std::uint64_t total = ticksRun + ticksSkipped;
            return total ? 100.0 * static_cast<double>(ticksSkipped) /
                    static_cast<double>(total)
                         : 0.0;
        }
    };
    std::vector<DomainShare> domains;
};

/**
 * The perf-trajectory artifact: wall-clock and per-domain
 * skipped-tick ratios per fast-forward mode, uploaded by CI's
 * Release job so fast-forward regressions are visible PR-over-PR.
 */
void
writeFastForwardArtifact(const std::string &path,
                         const std::vector<ModeSample> &samples)
{
    std::ofstream os(path);
    if (!os)
        fatal("cannot write '", path, "'");
    os << "{\n  \"schema\": \"gpulat.bench_fastforward.v2\",\n"
       << "  \"bench\": \"clock_domain_ablation\",\n"
       << "  \"workload\": "
       << jsonQuote("pchase footprintBytes=4194304 strideBytes=512 "
                    "timedAccesses=2048 (gf106, 4 SMs / 2 parts)")
       << ",\n  \"modes\": [\n";
    for (std::size_t i = 0; i < samples.size(); ++i) {
        const ModeSample &s = samples[i];
        os << "    {\"mode\": " << jsonQuote(s.mode)
           << ", \"wall_ms\": " << std::fixed << std::setprecision(2)
           << s.wallMs << ", \"steps\": " << s.steps
           << ", \"skipped_cycles\": " << s.skippedCycles
           << ", \"cycles\": " << s.cycles << ",\n"
           << "     \"domains\": [";
        for (std::size_t d = 0; d < s.domains.size(); ++d) {
            const auto &dom = s.domains[d];
            os << (d ? ", " : "") << "{\"name\": "
               << jsonQuote(dom.name)
               << ", \"ticks_run\": " << dom.ticksRun
               << ", \"ticks_skipped\": " << dom.ticksSkipped
               << ", \"skip_pct\": " << std::setprecision(2)
               << dom.skipPct() << "}";
        }
        os << "]}" << (i + 1 < samples.size() ? "," : "") << "\n";
    }
    os << "  ],\n  \"speedup\": {";
    auto wall = [&](const char *mode) {
        for (const ModeSample &s : samples)
            if (s.mode == mode)
                return s.wallMs;
        return 0.0;
    };
    const double off_ms = wall("off");
    const double per_ms = wall("perDomain");
    os << "\"perDomain_vs_off\": " << std::setprecision(2)
       << (per_ms > 0 ? off_ms / per_ms : 0.0) << "}\n}\n";
    std::cout << "wrote " << path << "\n";
}

bool
fastForwardEffect(const std::string &ff_json_path)
{
    std::cout << "\n== idle fast-forward on a latency-bound "
                 "microbench (single-warp DRAM chase) ==\n";
    std::cout << std::setw(12) << "mode" << std::setw(12) << "wall ms"
              << std::setw(14) << "loop steps" << std::setw(14)
              << "skipped cyc" << std::setw(12) << "cycles"
              << "   per-domain skip % (core/icnt/l2/dram)\n";

    std::vector<ModeSample> samples;
    for (const char *mode : {"off", "perDomain"}) {
        const ExperimentSpec spec = chaseSpec(
            {std::string("idleFastForward=") + mode}, 2048);
        ModeSample sample;
        sample.mode = mode;
        const auto t0 = std::chrono::steady_clock::now();
        const auto outcomes = ParallelRunner(1).run(
            {spec},
            [&](std::size_t, Gpu &gpu, const ExperimentRecord &) {
                sample.steps = gpu.engine().steps();
                sample.skippedCycles = gpu.engine().skippedCycles();
                sample.cycles = gpu.now();
                for (const auto &d : gpu.engine().domains()) {
                    sample.domains.push_back(
                        {d->name(), d->componentTicksRun(),
                         d->componentTicksSkipped()});
                }
            });
        sample.wallMs = wallMs(t0);
        if (outcomes[0].failed || !outcomes[0].record.correct) {
            std::cout << "chase FAILED under idleFastForward="
                      << mode << "\n";
            return false;
        }
        std::cout << std::setw(12) << mode << std::setw(12)
                  << std::fixed << std::setprecision(1)
                  << sample.wallMs << std::setw(14) << sample.steps
                  << std::setw(14) << sample.skippedCycles
                  << std::setw(12) << sample.cycles << "   ";
        for (std::size_t d = 0; d < sample.domains.size(); ++d)
            std::cout << (d ? "/" : "") << std::setprecision(1)
                      << sample.domains[d].skipPct();
        std::cout << "\n";
        samples.push_back(std::move(sample));
    }

    bool ok = true;
    for (const ModeSample &s : samples)
        ok &= s.cycles == samples.front().cycles;
    std::cout << (ok ? "simulated cycles identical: OK\n"
                     : "simulated cycles DIFFER: BUG\n");
    if (!ff_json_path.empty())
        writeFastForwardArtifact(ff_json_path, samples);
    return ok;
}

} // namespace

int
main(int argc, char **argv)
{
    // Pull out `--ff-json FILE` (the perf-trajectory artifact path)
    // before handing the standard --json/--csv/--jobs set over.
    std::string ff_json;
    std::vector<const char *> rest{argv[0]};
    for (int i = 1; i < argc; ++i) {
        if (std::string(argv[i]) == "--ff-json") {
            if (i + 1 >= argc)
                fatal("'--ff-json' needs a file path");
            ff_json = argv[++i];
            continue;
        }
        rest.push_back(argv[i]);
    }

    MultiSink sinks;
    std::size_t jobs = 0; // default: hardware concurrency
    addOutputSinks(sinks, static_cast<int>(rest.size()), rest.data(),
                   &jobs);
    const std::size_t workers = resolveJobs(jobs);

    std::cout << "Clock-domain ablation on gf106 (4 SMs / 2 "
                 "partitions; core : icnt : L2 : DRAM, default "
                 "1:1:1:1)\n";

    auto [dram_ok, dram_ms] = sweepUnderLoad(
        "DRAM", "dramClock", kDramSweep, workers, sinks, false);
    bool ok = dram_ok;
    ok &= sweepUnderLoad("ICNT", "icntClock", kIcntSweep, workers,
                         sinks, false)
              .first;
    ok &= idleLatencySweep(workers, sinks);
    ok &= fastForwardEffect(ff_json);
    sinks.finish();

    if (workers > 1) {
        // Measured multi-core speedup: the same DRAM sweep, serial.
        const auto [serial_ok, serial_ms] = sweepUnderLoad(
            "DRAM", "dramClock", kDramSweep, 1, sinks, true);
        ok &= serial_ok;
        std::cout << "\nDRAM sweep wall-clock: " << std::fixed
                  << std::setprecision(0) << serial_ms
                  << " ms serial vs " << dram_ms << " ms with "
                  << workers << " jobs (" << std::setprecision(2)
                  << serial_ms / dram_ms << "x)\n";
    }
    return ok ? 0 : 1;
}
