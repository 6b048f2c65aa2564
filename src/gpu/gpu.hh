/**
 * @file
 * Top-level GPU device: owns the SMs, interconnect and memory
 * partitions, and drives them through a TickEngine with four clock
 * domains (core, icnt, L2, DRAM). Host code allocates device
 * memory, copies data, launches kernels and reads the
 * collectors/statistics afterwards.
 *
 * Component layering (registration order = intra-cycle tick order):
 *
 *   icnt : reqNet, respNet
 *   l2   : reqNet -> ROP ports, partition L2 sides
 *   dram : partition DRAM sides
 *   icnt : partition -> respNet port
 *   core : respNet -> SM port, SMs, block dispatcher
 *
 * At the default 1:1:1:1 ratios this replays the original
 * hand-ordered tick() bit-for-bit; non-unity ratios slow or speed
 * whole domains, and the engine fast-forwards windows where every
 * component reports idle (e.g. the post-grid drain tail).
 */

#ifndef GPULAT_GPU_GPU_HH
#define GPULAT_GPU_GPU_HH

#include <functional>
#include <memory>
#include <string>
#include <vector>

#include "common/random.hh"
#include "engine/tick_engine.hh"
#include "gpu/gpu_config.hh"
#include "gpu/kernel_analysis.hh"
#include "gpu/ports.hh"
#include "icnt/crossbar.hh"
#include "isa/kernel.hh"
#include "latency/collector.hh"
#include "mem/device_memory.hh"
#include "mem/partition.hh"
#include "simt/core.hh"

namespace gpulat {

/** What a kernel launch reports back. */
struct LaunchResult
{
    Cycle cycles = 0;        ///< wall-clock cycles of this launch
    Cycle startCycle = 0;
    Cycle endCycle = 0;
    std::uint64_t instructions = 0; ///< warp instructions issued
};

class Gpu
{
  public:
    explicit Gpu(GpuConfig config);

    /** @name Host-side memory API @{ */
    DeviceMemory &memory() { return dmem_; }
    Addr alloc(std::uint64_t bytes, std::uint64_t align = 256);
    void copyToDevice(Addr dst, const void *src, std::uint64_t bytes);
    void copyFromDevice(void *dst, Addr src, std::uint64_t bytes) const;
    /** @} */

    /**
     * Launch a kernel on every SM and simulate to completion
     * (drained pipelines): beginLaunch(), run(), retireLaunch().
     *
     * @param kernel finalized kernel.
     * @param num_blocks 1-D grid size.
     * @param threads_per_block 1-D block size (<= warpSlots * 32).
     * @param params kernel parameters (<= kMaxParams).
     */
    LaunchResult launch(const Kernel &kernel, unsigned num_blocks,
                        unsigned threads_per_block,
                        const std::vector<RegValue> &params);

    /**
     * @name Launches
     *
     * Every grid starts in beginLaunch(), on an explicit set of SMs;
     * several launches may be resident at once on disjoint sets (the
     * serving layer's path, with its own completion condition for
     * run()). The BlockDispatcher hands out each active launch's
     * blocks from the next core cycle on, launchDone() polls
     * completion, and retireLaunch() frees the SMs. The per-launch
     * safety verdict (kernel_analysis.hh) is composed against every
     * other active launch's footprint, and setSerialized() pins only
     * *this* launch's SMs when it is unsafe or the footprints may
     * overlap — an unsafe tenant never costs its neighbours their SM
     * parallelism. Kernels must outlive the launch. A local-memory
     * launch must run alone: the single backing store cannot be
     * shared between concurrent grids.
     * @{
     */
    using LaunchId = std::uint32_t;

    /** Begin a launch on @p sm_ids (must be idle and unowned). */
    LaunchId beginLaunch(const Kernel &kernel, unsigned num_blocks,
                         unsigned threads_per_block,
                         const std::vector<RegValue> &params,
                         std::vector<unsigned> sm_ids);

    /** All blocks dispatched and every owned SM idle and drained? */
    bool launchDone(LaunchId id) const;

    /** Release a done launch's SMs (and its serialization pin). */
    void retireLaunch(LaunchId id);

    /**
     * Step the engine until @p done() holds and the device has
     * drained, under the no-progress watchdog, then settle the
     * engine. @p progress (optional) folds the caller's own progress
     * into the watchdog signature; @p label names the run in the
     * stall report. The result spans the whole run.
     */
    LaunchResult run(const std::function<bool()> &done,
                     const std::string &label,
                     const std::function<std::uint64_t()> &progress = {});
    /** @} */

    /** @name Instrumentation @{ */
    /** SM-parallel safety verdict of the most recent launch;
     *  default-constructed before any launch. */
    const SmParallelVerdict &lastVerdict() const { return verdict_; }
    StatRegistry &stats() { return stats_; }
    LatencyCollector &latencies() { return latCollector_; }
    ExposureCollector &exposure() { return expCollector_; }
    /** Engine introspection (fast-forward effectiveness, domains). */
    const TickEngine &engine() const { return engine_; }
    /** Mutable engine access for post-construction wiring: the
     *  serving layer registers its scheduler as a Clocked component
     *  and links wake edges to the SMs. */
    TickEngine &engine() { return engine_; }
    /** Per-device RNG, seeded from GpuConfig::seed (the `seed`
     *  override key): workload input data, arrival streams. */
    Rng &rng() { return rng_; }
    /** @} */

    /** @name What the device has run so far @{ */
    Cycle now() const { return engine_.now(); }
    /** Warp instructions issued, summed over SMs. */
    std::uint64_t issuedInstructions() const;
    /** Launches begun (Gpu::launch and the serving layer's). */
    unsigned launchCount() const
    {
        return static_cast<unsigned>(launches_.size());
    }
    /** @} */
    const GpuConfig &config() const { return config_; }
    SmCore &sm(unsigned i) { return *sms_[i]; }
    MemPartition &partition(unsigned i) { return *partitions_[i]; }

  private:
    /** Shape/resource checks of a launch. */
    void validateLaunchShape(const Kernel &kernel,
                             unsigned num_blocks,
                             unsigned threads_per_block,
                             std::size_t num_params) const;

    /** Every SM, network and partition empty and idle. */
    bool allDrained() const;
    /** Watchdog progress signature: changes whenever any packet
     *  moves, any block dispatches or any instruction issues. */
    std::uint64_t activitySignature() const;
    /** Per-layer diagnostics for a watchdog panic; settles the
     *  engine first so idle/occupancy cycle totals are current. */
    std::string stallReport(const std::string &label);

    GpuConfig config_;
    StatRegistry stats_;
    LatencyCollector latCollector_;
    ExposureCollector expCollector_;
    DeviceMemory dmem_;

    Crossbar<MemRequest> reqNet_;
    Crossbar<MemRequest> respNet_;
    std::vector<std::unique_ptr<MemPartition>> partitions_;
    std::vector<std::unique_ptr<SmCore>> sms_;

    /** Every launch ever begun (ids are indices; never freed, so the
     *  contexts SMs point at stay valid) and the active ones in
     *  admission order, which the dispatcher walks. */
    std::vector<std::unique_ptr<GridLaunch>> launches_;
    std::vector<GridLaunch *> active_;

    /** @name Engine wiring @{ */
    TickEngine engine_;
    NetToPartitionPort reqEject_;
    PartitionToNetPort respInject_;
    NetToSmPort respEject_;
    BlockDispatcher dispatcher_;
    std::vector<std::unique_ptr<PartitionMemSide>> partMemSides_;
    std::vector<std::unique_ptr<PartitionL2Side>> partL2Sides_;
    /** @} */

    /** Full verdict of the most recent launch (record metrics). */
    SmParallelVerdict verdict_;

    Rng rng_;

    /** Local-memory backing store, reused across launches with the
     *  same shape so successive kernels see the same local data. */
    Addr localBase_ = kNoAddr;
    std::uint64_t localAllocThreads_ = 0;
    std::uint64_t localAllocBytes_ = 0;
};

} // namespace gpulat

#endif // GPULAT_GPU_GPU_HH
