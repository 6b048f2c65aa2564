#include "microbench/table1.hh"

#include <algorithm>
#include <cmath>

#include "common/log.hh"
#include "common/table.hh"

namespace gpulat {

namespace {

/** Dependent loads timed per footprint point. */
constexpr std::uint64_t kTimedAccesses = 512;

/** Footprints spanning [first plateau .. beyond the last cache]. */
std::vector<std::uint64_t>
globalFootprints(const GpuConfig &cfg)
{
    const bool l1_global = cfg.sm.l1Enabled && cfg.sm.l1CachesGlobal;
    const std::uint64_t l1 = cfg.sm.l1Cache.capacityBytes;
    const std::uint64_t l2 = cfg.totalL2Bytes();

    std::vector<std::uint64_t> fps;
    if (l1_global) {
        fps.push_back(l1 / 4);
        fps.push_back(l1 / 2);
        fps.push_back(l1);
    }
    if (l2 > 0) {
        fps.push_back(l1_global ? l1 * 2 : l2 / 8);
        fps.push_back(l2 / 2);
        fps.push_back(l2);
        fps.push_back(l2 * 2);
        fps.push_back(l2 * 3);
    } else {
        // No caches at all: any footprints land on DRAM.
        fps = {64 * 1024, 256 * 1024, 1024 * 1024};
    }
    return fps;
}

std::vector<std::uint64_t>
localFootprints(const GpuConfig &cfg)
{
    const std::uint64_t l1 = cfg.sm.l1Cache.capacityBytes;
    return {l1 / 4, l1 / 2, l1};
}

double
round1(double v)
{
    return std::round(v * 10.0) / 10.0;
}

} // namespace

Table1Column
measureGeneration(const GpuConfig &cfg)
{
    Table1Column col;
    col.gpu = cfg.name;

    const bool has_l1 = cfg.sm.l1Enabled;
    const bool l1_global = has_l1 && cfg.sm.l1CachesGlobal;
    const bool has_l2 = cfg.partition.l2Enabled;

    SweepOptions sweep;
    sweep.space = MemSpace::Global;
    sweep.strideBytes = cfg.sm.lineBytes;
    sweep.timedAccesses = kTimedAccesses;
    // Beyond the last cache level a cold chase misses everywhere;
    // skipping the (large) warm-up there keeps sweeps fast.
    sweep.warmupMaxFootprint = std::max(
        cfg.totalL2Bytes(),
        cfg.sm.l1Enabled ? cfg.sm.l1Cache.capacityBytes
                         : std::uint64_t{0});

    const auto curve = sweepFootprints(
        cfg, globalFootprints(cfg), sweep);
    const auto levels = detectPlateaus(curve);

    // Expected plateau count from the probe plan.
    const std::size_t expected =
        1 + (has_l2 ? 1 : 0) + (l1_global ? 1 : 0);
    if (levels.size() != expected) {
        fatal("config '", cfg.name, "': expected ", expected,
              " global-sweep plateaus, detected ", levels.size());
    }

    std::size_t idx = 0;
    if (l1_global)
        col.l1 = round1(levels[idx++].latency);
    if (has_l2)
        col.l2 = round1(levels[idx++].latency);
    col.dram = round1(levels[idx].latency);

    // Kepler-style L1: only visible through the local space.
    if (has_l1 && !l1_global && cfg.sm.l1CachesLocal) {
        SweepOptions lsweep = sweep;
        lsweep.space = MemSpace::Local;
        const auto lcurve =
            sweepFootprints(cfg, localFootprints(cfg), lsweep);
        const auto llevels = detectPlateaus(lcurve);
        GPULAT_ASSERT(!llevels.empty(), "local sweep found nothing");
        col.l1 = round1(llevels.front().latency);
    }
    return col;
}

std::vector<Table1Column>
measureTable1()
{
    return {
        measureGeneration(makeGT200()),
        measureGeneration(makeGF106()),
        measureGeneration(makeGK104()),
        measureGeneration(makeGM107()),
    };
}

void
printTable1(std::ostream &os,
            const std::vector<Table1Column> &columns)
{
    std::vector<std::string> header{"Unit"};
    for (const auto &col : columns)
        header.push_back(col.gpu);
    TextTable table(header);

    auto fmt = [](const std::optional<double> &v) {
        if (!v)
            return std::string("x");
        // Integral latencies print without the trailing ".0".
        if (*v == std::round(*v))
            return std::to_string(static_cast<long long>(*v));
        return formatDouble(*v, 1);
    };

    std::vector<std::string> l1_row{"L1 D$"};
    std::vector<std::string> l2_row{"L2 D$"};
    std::vector<std::string> dram_row{"DRAM"};
    for (const auto &col : columns) {
        l1_row.push_back(fmt(col.l1));
        l2_row.push_back(fmt(col.l2));
        dram_row.push_back(fmt(col.dram));
    }
    table.addRow(std::move(l1_row));
    table.addRow(std::move(l2_row));
    table.addRow(std::move(dram_row));
    table.print(os);
}

} // namespace gpulat
