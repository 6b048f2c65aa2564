/**
 * @file
 * Whole-GPU configuration and the per-generation presets used by the
 * paper's experiments.
 *
 * The static-latency presets (GT200 / GF106 / GK104 / GM107) are
 * calibrated so the *measured* idle pointer-chase latencies match
 * Table I of the paper; the GF100 preset mirrors the GPGPU-Sim
 * Fermi configuration used for the dynamic analysis (Figures 1, 2).
 */

#ifndef GPULAT_GPU_GPU_CONFIG_HH
#define GPULAT_GPU_GPU_CONFIG_HH

#include <cstddef>
#include <cstdint>
#include <string>
#include <vector>

#include "engine/clocked.hh"
#include "mem/partition.hh"
#include "simt/core.hh"

namespace gpulat {

/** Launch-queue admission policy of the serving layer
 *  (src/serving/). Dotted override key `serving.policy`. */
enum class ServePolicy : std::uint8_t
{
    Fifo,      ///< strict arrival order, head-of-line blocking
    Rr,        ///< round-robin over tenants (work-conserving)
    SjfEst,    ///< smallest estimated cost first
    FairShare, ///< least attained weighted service first
};

/** `serving.policy` spellings. */
inline constexpr Spelling<ServePolicy> kServePolicySpellings[] = {
    {"fifo", ServePolicy::Fifo},
    {"rr", ServePolicy::Rr},
    {"sjf-est", ServePolicy::SjfEst},
    {"fair-share", ServePolicy::FairShare},
};

/** How the serving layer carves SMs for concurrent launches.
 *  Dotted override key `serving.partition`. */
enum class ServePartition : std::uint8_t
{
    Static,  ///< MPS-style fixed per-tenant SM shares
    Dynamic, ///< best-effort: grab free SMs at admission
};

/** `serving.partition` spellings. */
inline constexpr Spelling<ServePartition> kServePartitionSpellings[] = {
    {"static", ServePartition::Static},
    {"dynamic", ServePartition::Dynamic},
};

struct GpuConfig
{
    std::string name = "gpu";

    unsigned numSms = 1;
    unsigned numPartitions = 2;

    /**
     * @name Clock domains
     * Frequency of each domain relative to the core ("hot") clock.
     * The defaults (1:1:1:1) reproduce the single-clock simulator
     * bit-for-bit. A domain's fixed latencies (icntLatency, the
     * partition's ROP/L2 latencies, the DRAM timing parameters) are
     * counts of *its own* cycles — numerically equal to core cycles
     * at the calibrated 1:1 defaults — so dramClock = {1, 2} both
     * halves the DRAM side's tick cadence and doubles its service
     * latencies as seen from the core, exactly like underclocking
     * the memory of a real part. (dramCmdInterval is counted in
     * DRAM-domain ticks, so it rides the same scaling.)
     * @{
     */
    ClockRatio icntClock{1, 1};
    ClockRatio l2Clock{1, 1};
    ClockRatio dramClock{1, 1};
    /** @} */

    /**
     * Idle fast-forward policy (cycle-exact by construction in
     * both modes; see IdleFastForward in engine/clocked.hh):
     * `Off` ticks naively, `PerDomain` (default) event-schedules
     * each component independently so a long DRAM bank wait no
     * longer drags sleeping core/icnt/L2 components through
     * per-cycle no-op ticks. Dotted override key:
     * `idleFastForward=off|perDomain` (the legacy spellings
     * `full`/`on`/`true`/`1` mean perDomain).
     */
    IdleFastForward idleFastForward = IdleFastForward::PerDomain;

    /**
     * Engine *execution* knobs: wall-clock behaviour of the
     * simulator process only — by construction they never change
     * simulated cycles, traces or counters, and `engine.tickJobs`
     * is therefore excluded from the overrides an ExperimentRecord
     * reports (the CI determinism gate byte-diffs output across
     * its values).
     */
    struct EngineParams
    {
        /**
         * Worker threads ticking independent partition and SM
         * groups *inside* one simulation (TickEngine::setTickJobs):
         * 1 = today's serial path (default), 0 = hardware
         * concurrency (clamped to >= 1). Dotted override key
         * `engine.tickJobs`; the CLI also accepts `--tick-jobs N`.
         */
        std::size_t tickJobs = 1;

        /**
         * Launch watchdog: panic with a per-layer stall report
         * after this many *performed engine steps*
         * (TickEngine::steps()) without any activity-signature
         * change. Counted in steps, never core cycles — idle
         * fast-forward can jump millions of legitimate idle cycles
         * in a single step. 0 disables the watchdog.
         */
        std::uint64_t watchdogStallSteps = 2'000'000;
    };
    EngineParams engine;

    /** Per-SM template (smId overwritten per instance). */
    SmParams sm;
    /** Per-partition template. */
    PartitionParams partition;

    /** Request/response network traversal latency. */
    Cycle icntLatency = 32;
    std::size_t icntInQueue = 8;
    std::size_t icntOutQueue = 8;

    std::uint64_t deviceMemBytes = 256ull * 1024 * 1024;
    std::uint64_t localBytesPerThread = 1024;

    /**
     * Base seed for everything an experiment randomizes
     * deterministically on this device: the per-Gpu Rng
     * (Gpu::rng(), workload input data) and the serving layer's
     * per-tenant arrival streams. Dotted override key `seed`, so
     * cells are reproducible and sweepable over seeds.
     */
    std::uint64_t seed = 1;

    /**
     * Multi-tenant serving knobs (src/serving/): how the
     * LaunchQueueScheduler admits concurrent kernel launches. Only
     * read by the `serve.*` workloads; single-launch experiments
     * ignore them.
     */
    struct ServingParams
    {
        ServePolicy policy = ServePolicy::Fifo;
        ServePartition partition = ServePartition::Dynamic;
        /** Admission slots: max concurrently resident launches. */
        unsigned maxConcurrent = 4;
        /** Dynamic mode: SMs granted per launch
         *  (0 = numSms / maxConcurrent, clamped to >= 1). */
        unsigned smsPerLaunch = 0;
    };
    ServingParams serving;

    /** Line address -> memory partition. */
    unsigned
    partitionOf(Addr line_addr) const
    {
        return static_cast<unsigned>(
            (line_addr / sm.lineBytes) % numPartitions);
    }

    /** Total L2 capacity across partitions (plateau prediction). */
    std::uint64_t
    totalL2Bytes() const
    {
        return partition.l2Enabled
            ? partition.l2Cache.capacityBytes * numPartitions
            : 0;
    }

    /**
     * The one judge of a valid config: one line per violated rule,
     * each starting with its dotted override key, and empty (no
     * allocation) when every rule holds. Gpu::Gpu runs it first and
     * throws them all as one FatalError, so a component constructor
     * may assume a valid config. README "Override keys" lists the
     * rules.
     */
    std::vector<std::string> validate() const;
};

/** @name Paper configurations @{ */

/** Tesla GT200: no L1/L2 on the global path; DRAM ~440 cycles. */
GpuConfig makeGT200();

/** Fermi GF106: L1 45 / L2 310 / DRAM 685 cycles. */
GpuConfig makeGF106();

/**
 * Kepler GK104: L1 serves only local (30 cycles); global memory
 * starts at the L2 (175); DRAM 300.
 */
GpuConfig makeGK104();

/** Maxwell GM107: no L1 at all; L2 194; DRAM 350. */
GpuConfig makeGM107();

/**
 * GF100-like simulation config for the dynamic analysis: 15 SMs,
 * 48 warps/SM, 6 partitions, FR-FCFS. Fermi-family latencies.
 */
GpuConfig makeGF100Sim();

/** Canonical preset names, in Table-I order. */
const std::vector<std::string> &configNames();

/**
 * Look up a preset by name ("gt200", "gf106", ...). Matching
 * ignores '-' and '_', so "gf100sim" and "gf100-sim" are the same
 * preset.
 */
GpuConfig makeConfig(const std::string &name);

/** @} */

} // namespace gpulat

#endif // GPULAT_GPU_GPU_CONFIG_HH
