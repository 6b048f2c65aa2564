/**
 * @file
 * The experiment API from C++: what the `gpulat` CLI does, driven
 * programmatically — declare a spec (preset + overrides + workload
 * + params), run it, then reuse the live Gpu for custom reports
 * and fan the records out to sinks.
 *
 * For the scriptable version of this program, see the `gpulat`
 * binary: `gpulat run --gpu gf100sim --workload bfs scale=12
 * --set sm.warpSlots=16 --json out.json`.
 */

#include <iostream>

#include "api/experiment.hh"
#include "latency/summary.hh"

int
main()
{
    using namespace gpulat;

    // One experiment cell: BFS on the GF100-like machine with the
    // SM starved to 16 warp slots.
    ExperimentSpec spec;
    spec.gpu = "gf100-sim";
    spec.workload = "bfs";
    spec.params = {"kind=rmat", "scale=12"};
    spec.overrides = {"sm.warpSlots=16"};

    // The inspect hook sees the still-live Gpu after the run, for
    // reports that need raw traces.
    const ExperimentRecord rec = runExperiment(
        spec, [](Gpu &gpu, const ExperimentRecord &) {
            std::cout << "--- loaded latency summary ---\n";
            computeSummary(gpu.latencies().traces())
                .print(std::cout);
            std::cout << "\n";
        });

    // Records carry schema-stable metrics...
    std::cout << "cycles: " << rec.cycles
              << ", IPC: " << rec.metrics.at("ipc")
              << ", exposed: " << rec.metrics.at("exposed_pct")
              << "%\n\n";

    // ...and render through any sink (JSON here; TextTableSink and
    // CsvSink take the same records).
    JsonSink json(std::cout);
    json.write(rec);
    json.finish();

    return rec.correct ? 0 : 1;
}
