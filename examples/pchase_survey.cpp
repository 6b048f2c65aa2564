/**
 * @file
 * Pointer-chase survey: the §II methodology of the paper, end to
 * end. measureTable1() sweeps the chase footprint on each GPU
 * generation and reads the hierarchy levels off the latency
 * plateaus (the paper's Table I); a stride sweep beyond the first
 * cache level then recovers each generation's line size.
 *
 * Build & run:  ./build/example_pchase_survey
 */

#include <iostream>

#include "latency/static_analyzer.hh"
#include "microbench/sweep.hh"
#include "microbench/table1.hh"

int
main()
{
    using namespace gpulat;

    std::cout << "Table I: idle latencies of the global memory "
                 "pipeline (core cycles)\n";
    printTable1(std::cout, measureTable1());

    // Stride sweep (the other axis of the paper's methodology):
    // with the footprint past the first cache level every line
    // transition misses, so the latency saturates at its line size.
    // GT200 caches nothing, so it has no line size to find.
    std::cout << "\ninferred line size:\n";
    bool ok = true;
    for (const char *name : {"gf106", "gk104", "gm107"}) {
        const GpuConfig cfg = makeConfig(name);
        const std::uint64_t fp = cfg.sm.l1Enabled &&
                                  cfg.sm.l1CachesGlobal
            ? cfg.sm.l1Cache.capacityBytes * 8
            : cfg.totalL2Bytes() * 2;
        SweepOptions opts;
        opts.timedAccesses = 512;
        opts.warmupMaxFootprint = 0; // all-miss regime
        const std::uint64_t line = detectLineSize(
            sweepStrides(cfg, fp, {8, 16, 32, 64, 128, 256}, opts));
        std::cout << "  " << cfg.name << ": " << line << " B\n";
        ok = ok && line == cfg.sm.lineBytes;
    }
    return ok ? 0 : 1;
}
