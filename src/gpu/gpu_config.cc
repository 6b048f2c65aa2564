#include "gpu/gpu_config.hh"

#include <bit>
#include <cctype>
#include <tuple>
#include <utility>

#include "common/log.hh"

namespace gpulat {

namespace {

/** Baseline every preset starts from. */
GpuConfig
baseConfig()
{
    GpuConfig cfg;
    cfg.sm.lineBytes = 128;
    return cfg;
}

} // namespace

GpuConfig
makeGF106()
{
    GpuConfig cfg = baseConfig();
    cfg.name = "gf106";
    cfg.numSms = 4;
    cfg.numPartitions = 2;

    cfg.sm.warpSlots = 48;
    cfg.sm.numSchedulers = 2;
    cfg.sm.maxBlocksPerSm = 8;

    // Idle-path calibration targets (Table I, Fermi column):
    //   L1 hit 45, L2 hit 310, DRAM 685 measured cycles.
    cfg.sm.smBaseLatency = 12;
    cfg.sm.l1HitLatency = 33;
    cfg.sm.l1MissLatency = 4;
    cfg.sm.l1Enabled = true;
    cfg.sm.l1CachesGlobal = true;
    cfg.sm.l1CachesLocal = true;
    cfg.sm.l1Cache.capacityBytes = 16 * 1024;
    cfg.sm.l1Cache.ways = 4;

    cfg.icntLatency = 40;

    cfg.partition.ropLatency = 24;
    cfg.partition.l2QueueLatency = 2;
    cfg.partition.l2HitLatency = 186;
    cfg.partition.l2MissLatency = 30;
    cfg.partition.l2Cache.capacityBytes = 128 * 1024;
    cfg.partition.l2Cache.ways = 8;
    cfg.partition.returnQueueLatency = 2;

    cfg.partition.dram.timing.tRCD = 60;
    cfg.partition.dram.timing.tRP = 60;
    cfg.partition.dram.timing.tCAS = 60;
    cfg.partition.dram.timing.tBurst = 4;
    cfg.partition.dram.timing.tExtra = 457;
    cfg.partition.dramCmdInterval = 2;

    return cfg;
}

GpuConfig
makeGT200()
{
    GpuConfig cfg = baseConfig();
    cfg.name = "gt200";
    cfg.numSms = 4;
    cfg.numPartitions = 4;

    cfg.sm.warpSlots = 32;
    cfg.sm.numSchedulers = 1;
    cfg.sm.maxBlocksPerSm = 8;

    // Tesla: global/local accesses are uncached; the only plateau is
    // DRAM at ~440 cycles.
    cfg.sm.l1Enabled = false;
    cfg.sm.smBaseLatency = 14;
    cfg.sm.l1MissLatency = 6;

    cfg.icntLatency = 48;

    cfg.partition.l2Enabled = false;
    cfg.partition.ropLatency = 24;
    cfg.partition.returnQueueLatency = 2;

    cfg.partition.dram.timing.tRCD = 50;
    cfg.partition.dram.timing.tRP = 50;
    cfg.partition.dram.timing.tCAS = 50;
    cfg.partition.dram.timing.tBurst = 4;
    cfg.partition.dram.timing.tExtra = 236;
    cfg.partition.dramCmdInterval = 2;

    return cfg;
}

GpuConfig
makeGK104()
{
    GpuConfig cfg = baseConfig();
    cfg.name = "gk104";
    cfg.numSms = 8;
    cfg.numPartitions = 4;

    cfg.sm.warpSlots = 64;
    cfg.sm.numSchedulers = 4;
    cfg.sm.maxBlocksPerSm = 16;

    // Kepler: the L1 serves *only* local accesses (Table I: L1 30
    // via local chase); global loads go straight to the L2 (175) /
    // DRAM (300).
    cfg.sm.l1Enabled = true;
    cfg.sm.l1CachesGlobal = false;
    cfg.sm.l1CachesLocal = true;
    cfg.sm.smBaseLatency = 8;
    cfg.sm.l1HitLatency = 22;
    cfg.sm.l1MissLatency = 3;
    cfg.sm.l1Cache.capacityBytes = 16 * 1024;
    cfg.sm.l1Cache.ways = 4;

    cfg.icntLatency = 24;

    cfg.partition.ropLatency = 16;
    cfg.partition.l2QueueLatency = 2;
    cfg.partition.l2HitLatency = 96;
    cfg.partition.l2MissLatency = 16;
    cfg.partition.l2Cache.capacityBytes = 128 * 1024;
    cfg.partition.l2Cache.ways = 8;
    cfg.partition.returnQueueLatency = 2;

    cfg.partition.dram.timing.tRCD = 24;
    cfg.partition.dram.timing.tRP = 24;
    cfg.partition.dram.timing.tCAS = 24;
    cfg.partition.dram.timing.tBurst = 4;
    cfg.partition.dram.timing.tExtra = 173;
    cfg.partition.dramCmdInterval = 2;

    return cfg;
}

GpuConfig
makeGM107()
{
    GpuConfig cfg = baseConfig();
    cfg.name = "gm107";
    cfg.numSms = 5;
    cfg.numPartitions = 2;

    cfg.sm.warpSlots = 64;
    cfg.sm.numSchedulers = 4;
    cfg.sm.maxBlocksPerSm = 16;

    // Maxwell: the classic L1 data cache is gone entirely; both
    // global and local start at the L2 (194) / DRAM (350), slower
    // than Kepler on every level.
    cfg.sm.l1Enabled = false;
    cfg.sm.smBaseLatency = 10;
    cfg.sm.l1MissLatency = 4;

    cfg.icntLatency = 28;

    cfg.partition.ropLatency = 18;
    cfg.partition.l2QueueLatency = 2;
    cfg.partition.l2HitLatency = 102;
    cfg.partition.l2MissLatency = 18;
    cfg.partition.l2Cache.capacityBytes = 1024 * 1024;
    cfg.partition.l2Cache.ways = 16;
    cfg.partition.returnQueueLatency = 2;

    cfg.partition.dram.timing.tRCD = 30;
    cfg.partition.dram.timing.tRP = 30;
    cfg.partition.dram.timing.tCAS = 30;
    cfg.partition.dram.timing.tBurst = 4;
    cfg.partition.dram.timing.tExtra = 201;
    cfg.partition.dramCmdInterval = 2;

    return cfg;
}

GpuConfig
makeGF100Sim()
{
    // Start from the calibrated Fermi latencies and scale the
    // machine up to the GPGPU-Sim GF100 configuration the paper
    // used: 15 SMs, 48 warps/SM, 6 memory partitions, FR-FCFS.
    GpuConfig cfg = makeGF106();
    cfg.name = "gf100-sim";
    cfg.numSms = 15;
    cfg.numPartitions = 6;
    cfg.sm.warpSlots = 48;
    cfg.sm.schedPolicy = SchedPolicy::GTO;
    cfg.partition.sched = DramSchedPolicy::FRFCFS;
    cfg.partition.dramQueueSize = 64;
    cfg.deviceMemBytes = 512ull * 1024 * 1024;
    return cfg;
}

const std::vector<std::string> &
configNames()
{
    static const std::vector<std::string> names{
        "gt200", "gf106", "gk104", "gm107", "gf100-sim"};
    return names;
}

namespace {

/** Lowercase with '-'/'_' stripped, so CLI spellings like
 *  "gf100sim" and "GF100-sim" resolve to the same preset. */
std::string
canonicalName(const std::string &name)
{
    std::string out;
    for (const char c : name) {
        if (c == '-' || c == '_')
            continue;
        out += static_cast<char>(
            std::tolower(static_cast<unsigned char>(c)));
    }
    return out;
}

} // namespace

std::vector<std::string>
GpuConfig::validate() const
{
    std::vector<std::string> errors;
    // Formats only on a violation: Gpu::Gpu judges every cell, and a
    // valid config must cost it no allocation.
    auto reject = [&errors](const auto &...parts) {
        errors.push_back(detail::concat(parts...));
    };
    const DramParams &dram = partition.dram;

    const std::pair<const char *, ClockRatio> ratios[] = {
        {"icntClock", icntClock},
        {"l2Clock", l2Clock},
        {"dramClock", dramClock},
    };
    for (const auto &[key, r] : ratios) {
        if (r.mul == 0 || r.div == 0)
            reject(key, " clock ratio must be positive (got ", r.mul,
                   ":", r.div, ")");
        else if (r.mul > 64 || r.div > 64)
            reject(key, " clock ratio ", r.mul, ":", r.div,
                   " out of the supported [1/64, 64] range");
    }

    // A zero here divides by zero, wedges a pipeline or leaves a
    // component without the queue, table or unit it is built around.
    const std::pair<const char *, std::uint64_t> counts[] = {
        {"numSms", numSms},
        {"numPartitions", numPartitions},
        {"icntInQueue", icntInQueue},
        {"icntOutQueue", icntOutQueue},
        {"serving.maxConcurrent", serving.maxConcurrent},
        {"sm.warpSlots", sm.warpSlots},
        {"sm.numSchedulers", sm.numSchedulers},
        {"sm.maxBlocksPerSm", sm.maxBlocksPerSm},
        {"sm.smemBanks", sm.smemBanks},
        {"sm.lsuQueueSize", sm.lsuQueueSize},
        {"sm.l1MshrEntries", sm.l1MshrEntries},
        {"sm.l1MshrMaxMerge", sm.l1MshrMaxMerge},
        {"sm.l1MissQueueSize", sm.l1MissQueueSize},
        {"partition.ropQueueSize", partition.ropQueueSize},
        {"partition.l2QueueSize", partition.l2QueueSize},
        {"partition.l2MshrEntries", partition.l2MshrEntries},
        {"partition.l2MshrMaxMerge", partition.l2MshrMaxMerge},
        {"mem.mshr.banks", partition.l2MshrBanks},
        {"partition.dramQueueSize", partition.dramQueueSize},
        {"partition.dramCmdInterval", partition.dramCmdInterval},
        {"partition.returnQueueSize", partition.returnQueueSize},
        {"partition.dram.banks", dram.banks},
        {"partition.dram.rowBytes", dram.rowBytes},
        {"mem.dram.ranks", dram.ranks},
    };
    for (const auto &[key, value] : counts)
        if (value == 0)
            reject(key, " must be > 0");

    // Counts that size host arrays when a Gpu is built, and cycle
    // counts: latencies are added to the current cycle and to each
    // other (the L2 hit pipe holds l2QueueSize + l2HitLatency), so
    // above 2^32-1 those sums can wrap.
    constexpr std::uint64_t kMaxCacheBytes = 64ull << 20;
    constexpr std::uint64_t kMaxCycles = 0xffffffffu;
    const std::tuple<const char *, std::uint64_t, std::uint64_t>
        bounded[] = {
            {"numSms", numSms, 1024},
            {"numPartitions", numPartitions, 256},
            {"sm.warpSlots", sm.warpSlots, 1024},
            {"sm.maxBlocksPerSm", sm.maxBlocksPerSm, 1024},
            {"sm.numSchedulers", sm.numSchedulers, 1024},
            {"partition.dram.banks", dram.banks, 256},
            {"mem.dram.ranks", dram.ranks, 16},
            {"mem.dram.bankGroups", dram.bankGroups, 256},
            {"mem.mshr.banks", partition.l2MshrBanks, 1024},
            {"sm.l1Cache.capacityBytes", sm.l1Cache.capacityBytes,
             kMaxCacheBytes},
            {"partition.l2Cache.capacityBytes",
             partition.l2Cache.capacityBytes, kMaxCacheBytes},
            {"partition.l2QueueSize", partition.l2QueueSize, kMaxCycles},
            {"icntLatency", icntLatency, kMaxCycles},
            {"sm.aluLatency", sm.aluLatency, kMaxCycles},
            {"sm.fpLatency", sm.fpLatency, kMaxCycles},
            {"sm.smemLatency", sm.smemLatency, kMaxCycles},
            {"sm.smemConflictPenalty", sm.smemConflictPenalty,
             kMaxCycles},
            {"sm.smBaseLatency", sm.smBaseLatency, kMaxCycles},
            {"sm.l1HitLatency", sm.l1HitLatency, kMaxCycles},
            {"sm.l1MissLatency", sm.l1MissLatency, kMaxCycles},
            {"partition.ropLatency", partition.ropLatency, kMaxCycles},
            {"partition.l2QueueLatency", partition.l2QueueLatency,
             kMaxCycles},
            {"partition.l2HitLatency", partition.l2HitLatency,
             kMaxCycles},
            {"partition.l2MissLatency", partition.l2MissLatency,
             kMaxCycles},
            {"partition.dramCmdInterval", partition.dramCmdInterval,
             kMaxCycles},
            {"partition.returnQueueLatency",
             partition.returnQueueLatency, kMaxCycles},
            {"mem.dram.starveLimit", partition.dramStarvationLimit,
             kMaxCycles},
            {"partition.dram.timing.tRCD", dram.timing.tRCD, kMaxCycles},
            {"partition.dram.timing.tRP", dram.timing.tRP, kMaxCycles},
            {"partition.dram.timing.tCAS", dram.timing.tCAS, kMaxCycles},
            {"partition.dram.timing.tBurst", dram.timing.tBurst,
             kMaxCycles},
            {"partition.dram.timing.tExtra", dram.timing.tExtra,
             kMaxCycles},
            {"mem.dram.tRAS", dram.ddr.tRAS, kMaxCycles},
            {"mem.dram.tRRDS", dram.ddr.tRRDS, kMaxCycles},
            {"mem.dram.tRRDL", dram.ddr.tRRDL, kMaxCycles},
            {"mem.dram.tFAW", dram.ddr.tFAW, kMaxCycles},
            {"mem.dram.tWTR", dram.ddr.tWTR, kMaxCycles},
            {"mem.dram.tRTW", dram.ddr.tRTW, kMaxCycles},
            {"mem.dram.tREFI", dram.ddr.tREFI, kMaxCycles},
            {"mem.dram.tRFC", dram.ddr.tRFC, kMaxCycles},
        };
    for (const auto &[key, value, max] : bounded)
        if (value > max)
            reject(key, "=", value,
                   " exceeds the supported maximum of ", max);

    const std::uint32_t line = sm.lineBytes;
    const bool line_ok = std::has_single_bit(line) && line >= 8;
    if (!std::has_single_bit(line))
        reject("sm.lineBytes must be a power of two (got ", line, ")");
    else if (line < 8)
        reject("sm.lineBytes must be at least 8, the word a load or "
               "store moves (got ", line, ")");
    else if (dram.rowBytes != 0 && line > dram.rowBytes)
        reject("sm.lineBytes=", line,
               " exceeds partition.dram.rowBytes=", dram.rowBytes,
               ": a line must fit in one DRAM row");

    // Each enabled cache keeps a power-of-two number of sets.
    const std::tuple<const char *, bool, const CacheParams &>
        caches[] = {
            {"sm.l1Cache", sm.l1Enabled, sm.l1Cache},
            {"partition.l2Cache", partition.l2Enabled,
             partition.l2Cache},
        };
    for (const auto &[key, enabled, cache] : caches) {
        if (!enabled)
            continue;
        if (cache.ways == 0) {
            reject(key, ".ways must be > 0");
            continue;
        }
        if (!line_ok || cache.capacityBytes > kMaxCacheBytes)
            continue;
        const std::uint64_t sets = cache.capacityBytes / line /
                                   cache.ways;
        if (sets == 0)
            reject("sm.lineBytes=", line, " leaves ", key,
                   " without a set (", key, ".capacityBytes=",
                   cache.capacityBytes, ", ", key, ".ways=",
                   cache.ways, ")");
        else if (!std::has_single_bit(sets))
            reject(key, ".ways=", cache.ways, " gives ", key, " ",
                   sets, " sets, not a power of two (", key,
                   ".capacityBytes=", cache.capacityBytes,
                   ", sm.lineBytes=", line, ")");
    }

    if (partition.l2MshrBanks != 0 &&
        partition.l2MshrBankEntries == 0 &&
        partition.l2MshrEntries < partition.l2MshrBanks)
        reject("mem.mshr.banks=", partition.l2MshrBanks,
               " leaves no entry per bank of partition.l2MshrEntries=",
               partition.l2MshrEntries,
               " (set mem.mshr.bankEntries or use fewer banks)");
    // A DRAM fill waits until the return queue has room for every
    // response merged onto it at once; a larger merge cap wedges
    // the partition.
    if (partition.l2Enabled &&
        partition.l2MshrMaxMerge > partition.returnQueueSize)
        reject("partition.l2MshrMaxMerge=", partition.l2MshrMaxMerge,
               " exceeds partition.returnQueueSize=",
               partition.returnQueueSize,
               ": a DRAM fill needs return-queue room for all of its "
               "merged responses at once");

    if (dram.bankGroups == 0 || dram.banks % dram.bankGroups != 0)
        reject("mem.dram.bankGroups (", dram.bankGroups,
               ") must divide partition.dram.banks (", dram.banks,
               ")");
    if (dram.ddr.tREFI != 0 && dram.ddr.tRFC >= dram.ddr.tREFI)
        reject("mem.dram.tRFC (", dram.ddr.tRFC,
               ") must be shorter than mem.dram.tREFI (",
               dram.ddr.tREFI, ")");

    if (serving.smsPerLaunch > numSms)
        reject("serving.smsPerLaunch=", serving.smsPerLaunch,
               " exceeds numSms=", numSms);
    return errors;
}

GpuConfig
makeConfig(const std::string &name)
{
    const std::string wanted = canonicalName(name);
    if (wanted == "gt200") return makeGT200();
    if (wanted == "gf106") return makeGF106();
    if (wanted == "gk104") return makeGK104();
    if (wanted == "gm107") return makeGM107();
    if (wanted == "gf100sim") return makeGF100Sim();
    std::string known;
    for (const auto &n : configNames())
        known += (known.empty() ? "" : ", ") + n;
    fatal("unknown GPU config '", name, "' (known: ", known, ")");
}

} // namespace gpulat
