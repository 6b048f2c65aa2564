/**
 * @file
 * google-benchmark microbenchmarks of the simulator's hot
 * components: cache accesses, coalescing, DRAM scheduling,
 * whole-GPU cycles/second and the ParallelRunner's sweep
 * throughput. The GPU-level benches run through runExperiment();
 * a verification failure in any of them makes the binary exit
 * nonzero like the rest of the bench suite.
 */

#include <atomic>

#include <benchmark/benchmark.h>

#include "api/parallel_runner.hh"
#include "cache/cache.hh"
#include "common/random.hh"
#include "gpu/gpu.hh"
#include "mem/dram_sched.hh"
#include "simt/coalescer.hh"

namespace {

using namespace gpulat;

/** Any experiment failed verification (checked by main()). */
std::atomic<bool> g_verificationFailed{false};

void
BM_CacheAccess(benchmark::State &state)
{
    StatRegistry stats;
    CacheParams params;
    params.capacityBytes = 64 * 1024;
    params.lineBytes = 128;
    params.ways = 8;
    Cache cache("bm.cache", params, &stats);
    Rng rng(1);
    Cycle now = 0;
    for (auto _ : state) {
        const Addr line = rng.below(4096) * 128;
        if (cache.access(line, false, now) == CacheOutcome::Miss)
            cache.fill(line, now);
        ++now;
    }
    state.SetItemsProcessed(static_cast<std::int64_t>(
        state.iterations()));
}
BENCHMARK(BM_CacheAccess);

void
BM_Coalesce(benchmark::State &state)
{
    const bool scattered = state.range(0) != 0;
    std::array<Addr, kWarpSize> addrs{};
    Rng rng(2);
    for (unsigned lane = 0; lane < kWarpSize; ++lane)
        addrs[lane] = scattered ? rng.below(1 << 20) * 8 : lane * 8;
    for (auto _ : state) {
        auto txns = coalesce(addrs, kFullMask, 128);
        benchmark::DoNotOptimize(txns);
    }
    state.SetItemsProcessed(static_cast<std::int64_t>(
        state.iterations() * kWarpSize));
}
BENCHMARK(BM_Coalesce)->Arg(0)->Arg(1);

void
BM_FrFcfsPick(benchmark::State &state)
{
    StatRegistry stats;
    DramParams params;
    DramChannel channel("bm.dram", params, &stats);
    std::deque<DramQueueEntry> queue;
    Rng rng(3);
    for (int i = 0; i < 32; ++i) {
        MemRequest req;
        req.lineAddr = rng.below(1 << 16) * 128;
        req.trace.dramEnq = 0;
        queue.push_back({req, channel.coordOf(req.lineAddr)});
    }
    Cycle now = 1;
    for (auto _ : state) {
        auto pick = pickDramRequest(DramSchedPolicy::FRFCFS, queue,
                                    channel, now);
        benchmark::DoNotOptimize(pick);
        ++now;
    }
}
BENCHMARK(BM_FrFcfsPick);

void
BM_GpuCyclesPerSecond(benchmark::State &state)
{
    ExperimentSpec spec;
    spec.workload = "vecadd";
    spec.params = {"n=" + std::to_string(1 << 14)};
    for (auto _ : state) {
        const ExperimentRecord rec = runExperiment(spec);
        if (!rec.correct) {
            g_verificationFailed = true;
            state.SkipWithError("vecadd did not verify");
            break;
        }
        benchmark::DoNotOptimize(rec.cycles);
        state.counters["sim_cycles"] =
            static_cast<double>(rec.cycles);
    }
}
BENCHMARK(BM_GpuCyclesPerSecond)->Unit(benchmark::kMillisecond);

/**
 * Sweep throughput at 1 / hardware-concurrency workers: the same
 * 4-cell vecadd sweep through the ParallelRunner. The serial and
 * parallel rows dividing out is the measured multi-core speedup.
 */
void
BM_ParallelSweep(benchmark::State &state)
{
    const std::size_t jobs = state.range(0) != 0
        ? static_cast<std::size_t>(state.range(0))
        : resolveJobs(0);
    ExperimentSpec spec;
    spec.gpu = "gf106";
    spec.workload = "vecadd";
    spec.params = {"n=2048,4096"};
    spec.overrides = {"sm.warpSlots=8,16"};
    const auto specs = expandSweep(spec);
    for (auto _ : state) {
        const auto outcomes = ParallelRunner(jobs).run(specs);
        for (const JobOutcome &outcome : outcomes) {
            if (outcome.failed || !outcome.record.correct) {
                g_verificationFailed = true;
                state.SkipWithError("sweep cell did not verify");
                return;
            }
        }
        benchmark::DoNotOptimize(outcomes);
    }
    state.counters["jobs"] = static_cast<double>(jobs);
    state.SetItemsProcessed(static_cast<std::int64_t>(
        state.iterations() * specs.size()));
}
BENCHMARK(BM_ParallelSweep)
    ->Arg(1)
    ->Arg(0) // 0 = hardware concurrency
    ->Unit(benchmark::kMillisecond);

} // namespace

int
main(int argc, char **argv)
{
    benchmark::Initialize(&argc, argv);
    if (benchmark::ReportUnrecognizedArguments(argc, argv))
        return 1;
    benchmark::RunSpecifiedBenchmarks();
    benchmark::Shutdown();
    return g_verificationFailed ? 1 : 0;
}
