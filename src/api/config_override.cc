#include "api/config_override.hh"

#include <algorithm>

#include "api/param_map.hh"
#include "common/log.hh"

namespace gpulat {

namespace {

/**
 * `mem.dram.model` is shorthand for the eight `mem.dram.t*` keys:
 * `simple` zeroes them (the calibrated flat timing), `ddr` writes
 * typical DDR values. Later `mem.dram.t*` assignments still apply.
 */
ConfigKey
dramModelKey()
{
    ConfigKey key;
    key.path = "mem.dram.model";
    key.type = "simple|ddr (writes the mem.dram.t* keys)";
    key.set = [](GpuConfig &cfg, const std::string &text) {
        if (text == "simple")
            cfg.partition.dram.ddr = DdrTiming{};
        else if (text == "ddr")
            cfg.partition.dram.ddr = kDdrTiming;
        else
            fatal("mem.dram.model: '", text, "' is not simple|ddr");
    };
    key.get = [](const GpuConfig &cfg) -> std::string {
        const DdrTiming &ddr = cfg.partition.dram.ddr;
        if (ddr == DdrTiming{})
            return "simple";
        return ddr == kDdrTiming ? "ddr" : "custom";
    };
    return key;
}

/** The key @p path over the GpuConfig member @p member; @p type is
 *  its listed type text, or the spelling table of an enum member. */
#define GPULAT_CFG_KEY_AT(path, member, type)                             \
    makeKey<GpuConfig>(path, type,                                        \
                       [](auto &c) -> auto & { return c.member; })
/** The stringized member expression doubles as the dotted path. */
#define GPULAT_CFG_KEY(member, type) GPULAT_CFG_KEY_AT(#member, member, type)

std::vector<ConfigKey>
buildKeys()
{
    std::vector<ConfigKey> keys = {
        GPULAT_CFG_KEY(name, "string"),
        GPULAT_CFG_KEY(numSms, "uint"),
        GPULAT_CFG_KEY(numPartitions, "uint"),
        GPULAT_CFG_KEY(icntClock, "ratio M/D"),
        GPULAT_CFG_KEY(l2Clock, "ratio M/D"),
        GPULAT_CFG_KEY(dramClock, "ratio M/D"),
        GPULAT_CFG_KEY(idleFastForward, kIdleFastForwardSpellings),
        GPULAT_CFG_KEY(engine.tickJobs, "jobs (0 = hw)"),
        GPULAT_CFG_KEY(engine.watchdogStallSteps, "steps (0 = off)"),
        GPULAT_CFG_KEY(icntLatency, "cycles"),
        GPULAT_CFG_KEY(icntInQueue, "uint"),
        GPULAT_CFG_KEY(icntOutQueue, "uint"),
        GPULAT_CFG_KEY(deviceMemBytes, "bytes"),
        GPULAT_CFG_KEY(localBytesPerThread, "bytes"),
        GPULAT_CFG_KEY(seed, "uint"),
        GPULAT_CFG_KEY(serving.policy, kServePolicySpellings),
        GPULAT_CFG_KEY(serving.partition, kServePartitionSpellings),
        GPULAT_CFG_KEY(serving.maxConcurrent, "launches"),
        GPULAT_CFG_KEY(serving.smsPerLaunch, "SMs (0 = auto)"),

        GPULAT_CFG_KEY(sm.warpSlots, "uint"),
        GPULAT_CFG_KEY(sm.numSchedulers, "uint"),
        GPULAT_CFG_KEY(sm.schedPolicy, kSchedPolicySpellings),
        GPULAT_CFG_KEY(sm.maxBlocksPerSm, "uint"),
        GPULAT_CFG_KEY(sm.regsPerSm, "uint"),
        GPULAT_CFG_KEY(sm.smemPerSm, "bytes"),
        GPULAT_CFG_KEY(sm.aluLatency, "cycles"),
        GPULAT_CFG_KEY(sm.fpLatency, "cycles"),
        GPULAT_CFG_KEY(sm.smemLatency, "cycles"),
        GPULAT_CFG_KEY(sm.smemBanks, "uint"),
        GPULAT_CFG_KEY(sm.smemConflictPenalty, "cycles"),
        GPULAT_CFG_KEY(sm.lsuQueueSize, "uint"),
        GPULAT_CFG_KEY(sm.smBaseLatency, "cycles"),
        GPULAT_CFG_KEY(sm.lineBytes, "bytes"),
        GPULAT_CFG_KEY(sm.l1Enabled, "bool"),
        GPULAT_CFG_KEY(sm.l1CachesGlobal, "bool"),
        GPULAT_CFG_KEY(sm.l1CachesLocal, "bool"),
        GPULAT_CFG_KEY(sm.l1HitLatency, "cycles"),
        GPULAT_CFG_KEY(sm.l1MissLatency, "cycles"),
        GPULAT_CFG_KEY(sm.l1MshrEntries, "uint"),
        GPULAT_CFG_KEY(sm.l1MshrMaxMerge, "uint"),
        GPULAT_CFG_KEY(sm.l1MissQueueSize, "uint"),
        GPULAT_CFG_KEY(sm.l1Cache.capacityBytes, "bytes"),
        GPULAT_CFG_KEY(sm.l1Cache.ways, "uint"),

        GPULAT_CFG_KEY(partition.ropQueueSize, "uint"),
        GPULAT_CFG_KEY(partition.ropLatency, "cycles"),
        GPULAT_CFG_KEY(partition.l2Enabled, "bool"),
        GPULAT_CFG_KEY(partition.l2QueueSize, "uint"),
        GPULAT_CFG_KEY(partition.l2QueueLatency, "cycles"),
        GPULAT_CFG_KEY(partition.l2HitLatency, "cycles"),
        GPULAT_CFG_KEY(partition.l2MissLatency, "cycles"),
        GPULAT_CFG_KEY(partition.l2MshrEntries, "uint"),
        GPULAT_CFG_KEY(partition.l2MshrMaxMerge, "uint"),
        GPULAT_CFG_KEY(partition.l2Cache.capacityBytes, "bytes"),
        GPULAT_CFG_KEY(partition.l2Cache.ways, "uint"),
        GPULAT_CFG_KEY(partition.dramQueueSize, "uint"),
        GPULAT_CFG_KEY(partition.sched, kDramSchedPolicySpellings),
        GPULAT_CFG_KEY(partition.dramCmdInterval, "cycles"),
        GPULAT_CFG_KEY(partition.returnQueueSize, "uint"),
        GPULAT_CFG_KEY(partition.returnQueueLatency, "cycles"),
        GPULAT_CFG_KEY(partition.dram.banks, "uint"),
        GPULAT_CFG_KEY(partition.dram.rowBytes, "bytes"),
        GPULAT_CFG_KEY(partition.dram.timing.tRCD, "cycles"),
        GPULAT_CFG_KEY(partition.dram.timing.tRP, "cycles"),
        GPULAT_CFG_KEY(partition.dram.timing.tCAS, "cycles"),
        GPULAT_CFG_KEY(partition.dram.timing.tBurst, "cycles"),
        GPULAT_CFG_KEY(partition.dram.timing.tExtra, "cycles"),

        // Memory-fidelity axes live under a stable `mem.` namespace
        // (sweep specs shouldn't depend on which struct holds the
        // knob).
        dramModelKey(),
        GPULAT_CFG_KEY_AT("mem.dram.map", partition.dram.map,
                          kDramAddrMapSpellings),
        GPULAT_CFG_KEY_AT("mem.dram.pagePolicy", partition.dram.page,
                          kDramPagePolicySpellings),
        GPULAT_CFG_KEY_AT("mem.dram.ranks", partition.dram.ranks, "uint"),
        GPULAT_CFG_KEY_AT("mem.dram.bankGroups", partition.dram.bankGroups,
                          "uint"),
        GPULAT_CFG_KEY_AT("mem.dram.tRAS", partition.dram.ddr.tRAS,
                          "cycles"),
        GPULAT_CFG_KEY_AT("mem.dram.tRRDS", partition.dram.ddr.tRRDS,
                          "cycles"),
        GPULAT_CFG_KEY_AT("mem.dram.tRRDL", partition.dram.ddr.tRRDL,
                          "cycles"),
        GPULAT_CFG_KEY_AT("mem.dram.tFAW", partition.dram.ddr.tFAW,
                          "cycles"),
        GPULAT_CFG_KEY_AT("mem.dram.tWTR", partition.dram.ddr.tWTR,
                          "cycles"),
        GPULAT_CFG_KEY_AT("mem.dram.tRTW", partition.dram.ddr.tRTW,
                          "cycles"),
        GPULAT_CFG_KEY_AT("mem.dram.tREFI", partition.dram.ddr.tREFI,
                          "cycles (0 = no refresh)"),
        GPULAT_CFG_KEY_AT("mem.dram.tRFC", partition.dram.ddr.tRFC,
                          "cycles"),
        GPULAT_CFG_KEY_AT("mem.dram.starveLimit",
                          partition.dramStarvationLimit, "cycles"),
        GPULAT_CFG_KEY_AT("mem.mshr.banks", partition.l2MshrBanks, "uint"),
        GPULAT_CFG_KEY_AT("mem.mshr.bankEntries",
                          partition.l2MshrBankEntries,
                          "uint (0 = entries/banks)"),
    };

#undef GPULAT_CFG_KEY
#undef GPULAT_CFG_KEY_AT

    std::sort(keys.begin(), keys.end(),
              [](const ConfigKey &a, const ConfigKey &b) {
                  return a.path < b.path;
              });
    return keys;
}

const ConfigKey *
findKey(const std::string &path)
{
    for (const ConfigKey &key : configKeys()) {
        if (key.path == path)
            return &key;
    }
    return nullptr;
}

} // namespace

const std::vector<ConfigKey> &
configKeys()
{
    static const std::vector<ConfigKey> keys = buildKeys();
    return keys;
}

void
applyOverride(GpuConfig &cfg, const std::string &assignment)
{
    const auto [path, value] = ParamMap::splitAssignment(assignment);
    const ConfigKey *key = findKey(path);
    if (!key) {
        fatal("unknown config key '", path,
              "' (see `gpulat list keys`)");
    }
    key->set(cfg, value);
}

void
applyOverrides(GpuConfig &cfg,
               const std::vector<std::string> &assignments)
{
    for (const std::string &a : assignments)
        applyOverride(cfg, a);
}

std::string
readOverride(const GpuConfig &cfg, const std::string &path)
{
    const ConfigKey *key = findKey(path);
    if (!key)
        fatal("unknown config key '", path, "'");
    return key->get(cfg);
}

} // namespace gpulat
