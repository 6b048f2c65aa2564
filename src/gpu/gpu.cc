#include "gpu/gpu.hh"

#include <algorithm>
#include <numeric>
#include <sstream>

#include "common/log.hh"
#include "gpu/kernel_analysis.hh"

namespace gpulat {

namespace {

/**
 * Convert a latency configured in domain cycles to core cycles: a
 * domain at mul/div of the core frequency stretches each of its
 * cycles by div/mul core cycles (identity at 1:1, so calibrated
 * configs are untouched). Rounded up — hardware can't act on a
 * fraction of an edge.
 */
Cycle
toCoreCycles(Cycle domain_cycles, ClockRatio ratio)
{
    // A latency of n domain cycles spans the same core cycles as n
    // ticks of that domain's grid.
    return ClockDomain::tickCycle(domain_cycles, ratio);
}

/**
 * The config a Gpu is built from, judged by GpuConfig::validate()
 * before any member derives a value from it: every violation, one
 * line each, in one FatalError.
 */
GpuConfig
validated(GpuConfig config)
{
    const std::vector<std::string> errors = config.validate();
    if (!errors.empty()) {
        std::string lines;
        for (const std::string &error : errors)
            lines += "\n" + error;
        fatal("invalid config '", config.name, "':", lines);
    }
    return config;
}

/** Scale every L2/ROP-domain latency of a partition config. */
void
scalePartitionLatencies(PartitionParams &p, ClockRatio l2,
                        ClockRatio dram)
{
    p.ropLatency = toCoreCycles(p.ropLatency, l2);
    p.l2QueueLatency = toCoreCycles(p.l2QueueLatency, l2);
    p.l2HitLatency = toCoreCycles(p.l2HitLatency, l2);
    p.l2MissLatency = toCoreCycles(p.l2MissLatency, l2);
    p.returnQueueLatency = toCoreCycles(p.returnQueueLatency, l2);

    p.dram.timing.tRCD = toCoreCycles(p.dram.timing.tRCD, dram);
    p.dram.timing.tRP = toCoreCycles(p.dram.timing.tRP, dram);
    p.dram.timing.tCAS = toCoreCycles(p.dram.timing.tCAS, dram);
    p.dram.timing.tBurst = toCoreCycles(p.dram.timing.tBurst, dram);
    p.dram.timing.tExtra = toCoreCycles(p.dram.timing.tExtra, dram);

    p.dram.ddr.tRAS = toCoreCycles(p.dram.ddr.tRAS, dram);
    p.dram.ddr.tRRDS = toCoreCycles(p.dram.ddr.tRRDS, dram);
    p.dram.ddr.tRRDL = toCoreCycles(p.dram.ddr.tRRDL, dram);
    p.dram.ddr.tFAW = toCoreCycles(p.dram.ddr.tFAW, dram);
    p.dram.ddr.tWTR = toCoreCycles(p.dram.ddr.tWTR, dram);
    p.dram.ddr.tRTW = toCoreCycles(p.dram.ddr.tRTW, dram);
    p.dram.ddr.tREFI = toCoreCycles(p.dram.ddr.tREFI, dram);
    p.dram.ddr.tRFC = toCoreCycles(p.dram.ddr.tRFC, dram);
}

bool
usesLocalMemory(const Kernel &kernel)
{
    for (const auto &inst : kernel.code)
        if (inst.isMemory() && inst.space == MemSpace::Local)
            return true;
    return false;
}

} // namespace

Gpu::Gpu(GpuConfig config)
    : config_(validated(std::move(config))),
      dmem_(config_.deviceMemBytes),
      reqNet_("icnt.req", config_.numSms, config_.numPartitions,
              toCoreCycles(config_.icntLatency, config_.icntClock),
              config_.icntInQueue, config_.icntOutQueue, &stats_),
      respNet_("icnt.resp", config_.numPartitions, config_.numSms,
               toCoreCycles(config_.icntLatency, config_.icntClock),
               config_.icntInQueue, config_.icntOutQueue, &stats_),
      reqEject_(reqNet_, partitions_),
      respInject_(partitions_, respNet_),
      respEject_(respNet_, sms_),
      dispatcher_(sms_, active_),
      rng_(config_.seed)
{
    // One line size for the whole hierarchy: the SM's coalescing
    // granule is also the L1, L2 and partition-slicing line.
    const std::uint32_t line_bytes = config_.sm.lineBytes;
    PartitionParams part_params = config_.partition;
    part_params.lineBytes = line_bytes;
    part_params.l2Cache.lineBytes = line_bytes;
    part_params.interleaveDivisor = config_.numPartitions;
    part_params.dramClock = config_.dramClock;
    scalePartitionLatencies(part_params, config_.l2Clock,
                            config_.dramClock);
    for (unsigned p = 0; p < config_.numPartitions; ++p) {
        partitions_.push_back(std::make_unique<MemPartition>(
            p, part_params, &stats_, &dmem_));
    }

    // One collector shard per SM — shards must exist before the SM
    // constructors grab their append handles.
    latCollector_.resize(config_.numSms);
    expCollector_.resize(config_.numSms);

    auto partition_of = [this](Addr line) {
        return config_.partitionOf(line);
    };
    for (unsigned s = 0; s < config_.numSms; ++s) {
        SmParams sm = config_.sm;
        sm.smId = s;
        sm.l1Cache.lineBytes = line_bytes;
        sms_.push_back(std::make_unique<SmCore>(
            sm, &dmem_, &stats_, &latCollector_, &expCollector_,
            &reqNet_, partition_of));
    }

    // Wire the engine. Registration order is intra-cycle tick order
    // and replays the pre-engine hand-written orchestration exactly
    // at unity ratios: networks move first (this cycle's ejections
    // are last cycle's traversals), then requests sink toward DRAM,
    // responses rise back, SMs consume them, and new blocks land.
    ClockDomain &core = engine_.addDomain("core", ClockRatio{1, 1});
    ClockDomain &icnt = engine_.addDomain("icnt", config_.icntClock);
    ClockDomain &l2 = engine_.addDomain("l2", config_.l2Clock);
    ClockDomain &dram = engine_.addDomain("dram", config_.dramClock);

    // Tick groups (engine.tickJobs > 1 ticks distinct groups
    // concurrently): each partition's two sides form one group —
    // tickMemSide()/tickL2Side() touch only that partition's
    // queues, banks and pre-resolved counters, so partitions
    // commute with each other and with the SM groups. SM cores
    // append only to per-SM state (their own collector shards,
    // their own request-id pool, per-source crossbar inject
    // queues), so every SM gets its own group "sm<i>" — subject to
    // the per-launch kernel safety analysis in beginLaunch(), which
    // serializes SMs whose kernel could race on device memory
    // (functional execution happens at issue). Ports, crossbars and
    // the dispatcher move packets *between* groups, so they stay on
    // the coordinator (group 0) and act as ordering barriers around
    // the parallel batches.
    std::vector<unsigned> sm_groups;
    for (unsigned s = 0; s < config_.numSms; ++s)
        sm_groups.push_back(engine_.addGroup("sm" + std::to_string(s)));
    engine_.add(icnt, reqNet_);
    engine_.add(icnt, respNet_);
    engine_.add(l2, reqEject_);
    for (auto &part : partitions_) {
        const unsigned part_group = engine_.addGroup(
            "part" + std::to_string(partMemSides_.size()));
        partMemSides_.push_back(
            std::make_unique<PartitionMemSide>(*part));
        partL2Sides_.push_back(
            std::make_unique<PartitionL2Side>(*part));
        engine_.add(dram, *partMemSides_.back(), part_group);
        engine_.add(l2, *partL2Sides_.back(), part_group);
    }
    engine_.add(icnt, respInject_);
    engine_.add(core, respEject_);
    for (unsigned s = 0; s < config_.numSms; ++s)
        engine_.add(core, *sms_[s], sm_groups[s]);
    engine_.add(core, dispatcher_);

    // Wake edges: every path a performed tick can deliver input
    // through, so per-domain fast-forward knows whose cached
    // promise a tick may have invalidated. A consumer stalled on
    // back-pressure keeps *itself* awake through its own ready
    // queue heads, so releasing back-pressure needs no edge — in
    // particular the DRAM side never enqueues L2-side front-queue
    // work (completions go to the return queue), so there is no
    // mem-side -> L2-side edge.
    engine_.link(reqNet_, reqEject_);
    engine_.link(respNet_, respEject_);
    engine_.link(respInject_, respNet_);
    for (std::size_t p = 0; p < partitions_.size(); ++p) {
        engine_.link(reqEject_, *partL2Sides_[p]);
        engine_.link(*partL2Sides_[p], *partMemSides_[p]);
        engine_.link(*partL2Sides_[p], respInject_);
        engine_.link(*partMemSides_[p], respInject_);
    }
    for (auto &sm : sms_) {
        engine_.link(respEject_, *sm);
        engine_.link(dispatcher_, *sm);
        engine_.link(*sm, reqNet_);
        engine_.link(*sm, dispatcher_);
    }

    engine_.setMode(config_.idleFastForward);
    engine_.setTickJobs(config_.engine.tickJobs);
    engine_.bindStats(stats_);
}

Addr
Gpu::alloc(std::uint64_t bytes, std::uint64_t align)
{
    return dmem_.alloc(bytes, align);
}

void
Gpu::copyToDevice(Addr dst, const void *src, std::uint64_t bytes)
{
    dmem_.copyIn(dst, src, bytes);
}

void
Gpu::copyFromDevice(void *dst, Addr src, std::uint64_t bytes) const
{
    dmem_.copyOut(src, dst, bytes);
}

bool
Gpu::allDrained() const
{
    for (const auto &sm : sms_)
        if (sm->busy() || !sm->drained())
            return false;
    if (!reqNet_.empty() || !respNet_.empty())
        return false;
    for (const auto &part : partitions_)
        if (!part->drained())
            return false;
    return true;
}

std::uint64_t
Gpu::activitySignature() const
{
    // Any packet movement or instruction progress perturbs this;
    // equality across a long window means a genuine stall. The
    // per-SM request pools sum to the old shared counter's value,
    // so the signature is numerically unchanged by the sharding.
    std::uint64_t sig = 0;
    for (const GridLaunch *launch : active_)
        sig += launch->nextBlock;
    for (const auto &sm : sms_)
        sig += sm->requestsIssued();
    for (unsigned s = 0; s < config_.numSms; ++s) {
        const std::string prefix = "sm" + std::to_string(s);
        sig += stats_.counterValue(prefix + ".issued");
        sig += stats_.counterValue(prefix + ".loads_completed");
    }
    for (unsigned p = 0; p < config_.numPartitions; ++p) {
        const std::string prefix = "part" + std::to_string(p);
        sig += stats_.counterValue(prefix + ".l2_accesses");
        sig += stats_.counterValue(prefix + ".dram_reads");
        sig += stats_.counterValue(prefix + ".dram_writes");
    }
    sig += stats_.counterValue("icnt.req.transferred");
    sig += stats_.counterValue("icnt.resp.transferred");
    return sig;
}

std::uint64_t
Gpu::issuedInstructions() const
{
    std::uint64_t sum = 0;
    for (unsigned s = 0; s < config_.numSms; ++s)
        sum += stats_.counterValue("sm" + std::to_string(s) + ".issued");
    return sum;
}

std::string
Gpu::stallReport(const std::string &label)
{
    // Close every lazy idle-accounting window first: under
    // perDomain fast-forward, sleeping components carry
    // fastForward() windows that are still open when the watchdog
    // fires, so an un-settled report shows stale idle/occupancy
    // cycle totals (an SM asleep since cycle 100 would report ~100
    // idle cycles at a cycle-50000 stall).
    engine_.settle();

    std::ostringstream oss;
    oss << "no forward progress at cycle " << engine_.now() << " in '"
        << label << "'\n";
    oss << "  engine: now=" << engine_.now()
        << " steps=" << engine_.steps()
        << " ff_skipped=" << engine_.skippedCycles() << "\n";
    for (const auto &domain : engine_.domains()) {
        oss << "  engine." << domain->name()
            << ": ticks_run=" << domain->componentTicksRun()
            << " ticks_skipped=" << domain->componentTicksSkipped()
            << " local_cycles=" << domain->localCycles() << "\n";
    }
    // Per-tick-group progress: group tick totals are invariant
    // across tickJobs, so a group whose ticks_run froze is stalled
    // in every schedule.
    for (unsigned g = 1; g < engine_.numGroups(); ++g) {
        oss << "  engine.group." << engine_.groupName(g)
            << ": ticks_run=" << engine_.groupTicksRun(g) << "\n";
    }
    for (const GridLaunch *launch : active_) {
        oss << "  launch '" << launch->ctx.kernel->name
            << "': dispatched " << launch->nextBlock << "/"
            << launch->ctx.numBlocks << " blocks on "
            << launch->smIds.size() << " SMs, "
            << (launch->serialized ? "serialized (" : "parallel (")
            << launch->verdict.reason << ")\n";
    }
    oss << "  icnt: req=" << reqNet_.inFlight()
        << " resp=" << respNet_.inFlight() << " in flight\n";
    for (unsigned s = 0; s < config_.numSms; ++s) {
        oss << "  " << sms_[s]->occupancySummary() << " idle="
            << stats_.counterValue("sm" + std::to_string(s) +
                                   ".idle_cycles")
            << (sms_[s]->drained() ? "" : " [not drained]") << "\n";
    }
    for (const auto &part : partitions_)
        oss << "  " << part->occupancySummary()
            << (part->drained() ? "" : " [not drained]") << "\n";
    return oss.str();
}

void
Gpu::validateLaunchShape(const Kernel &kernel, unsigned num_blocks,
                         unsigned threads_per_block,
                         std::size_t num_params) const
{
    if (num_blocks == 0 || threads_per_block == 0)
        fatal("launch of '", kernel.name, "' with empty grid/block");
    // A block that can never fit an empty SM would wait for room
    // until the watchdog fires.
    if (threads_per_block > config_.sm.warpSlots * kWarpSize)
        fatal("block of ", threads_per_block,
              " threads exceeds SM capacity of sm.warpSlots=",
              config_.sm.warpSlots, " warps");
    if (num_params > kMaxParams)
        fatal("too many kernel parameters");
    if (kernel.sharedBytes > config_.sm.smemPerSm)
        fatal("kernel shared memory ", kernel.sharedBytes,
              " exceeds SM capacity sm.smemPerSm=",
              config_.sm.smemPerSm);
    const std::uint64_t block_regs =
        std::uint64_t{(threads_per_block + kWarpSize - 1) / kWarpSize} *
        kWarpSize * static_cast<std::uint64_t>(kernel.numRegs);
    if (block_regs > config_.sm.regsPerSm)
        fatal("block of ", threads_per_block, " threads at ",
              kernel.numRegs, " registers each needs ", block_regs,
              ", more than SM capacity sm.regsPerSm=",
              config_.sm.regsPerSm);

    // The declared register count bounds each thread's register
    // file slice; code touching a register beyond it would corrupt
    // neighbouring state.
    const int max_reg = highestRegister(kernel.code);
    if (max_reg >= kernel.numRegs)
        fatal("kernel '", kernel.name, "' declares ", kernel.numRegs,
              " registers but uses r", max_reg);
}

LaunchResult
Gpu::launch(const Kernel &kernel, unsigned num_blocks,
            unsigned threads_per_block,
            const std::vector<RegValue> &params)
{
    std::vector<unsigned> all_sms(config_.numSms);
    std::iota(all_sms.begin(), all_sms.end(), 0u);
    const LaunchId id = beginLaunch(kernel, num_blocks,
                                    threads_per_block, params,
                                    std::move(all_sms));
    // run() also waits for the whole device to drain, so "every
    // block dispatched" is enough here; launchDone() would walk
    // every SM on every step.
    const GridLaunch &grid = *launches_[id];
    const LaunchResult result =
        run([&grid] { return grid.allDispatched(); }, kernel.name);
    retireLaunch(id);
    return result;
}

Gpu::LaunchId
Gpu::beginLaunch(const Kernel &kernel, unsigned num_blocks,
                 unsigned threads_per_block,
                 const std::vector<RegValue> &params,
                 std::vector<unsigned> sm_ids)
{
    validateLaunchShape(kernel, num_blocks, threads_per_block,
                        params.size());
    if (sm_ids.empty())
        fatal("launch of '", kernel.name, "' with no SMs");
    for (std::size_t i = 0; i < sm_ids.size(); ++i) {
        const unsigned s = sm_ids[i];
        if (s >= config_.numSms)
            fatal("launch of '", kernel.name, "' names SM ", s, " of ",
                  config_.numSms);
        for (std::size_t j = i + 1; j < sm_ids.size(); ++j)
            if (sm_ids[j] == s)
                fatal("launch of '", kernel.name, "' names SM ", s,
                      " twice");
        for (const GridLaunch *other : active_)
            for (const unsigned t : other->smIds)
                if (t == s)
                    fatal("SM ", s, " already owned by active launch "
                          "of '", other->ctx.kernel->name, "'");
        GPULAT_ASSERT(!sms_[s]->busy() && sms_[s]->drained(),
                      "launch on a busy SM");
    }
    // The single local-memory backing store cannot be shared
    // between concurrent grids, so a local-memory launch runs alone.
    const bool uses_local = usesLocalMemory(kernel);
    for (const GridLaunch *other : active_)
        if (uses_local || usesLocalMemory(*other->ctx.kernel))
            fatal("launch of '", kernel.name, "' beside '",
                  other->ctx.kernel->name, "': a local-memory launch "
                  "must run alone");

    auto grid = std::make_unique<GridLaunch>();
    grid->ctx.kernel = &kernel;
    grid->ctx.numBlocks = num_blocks;
    grid->ctx.threadsPerBlock = threads_per_block;
    for (std::size_t i = 0; i < params.size(); ++i)
        grid->ctx.params[i] = params[i];
    grid->ctx.totalThreads =
        static_cast<std::uint64_t>(num_blocks) * threads_per_block;
    grid->ctx.localBytesPerThread = config_.localBytesPerThread;
    if (uses_local) {
        if (localBase_ == kNoAddr ||
            localAllocThreads_ != grid->ctx.totalThreads ||
            localAllocBytes_ != grid->ctx.localBytesPerThread) {
            localBase_ = dmem_.alloc(
                grid->ctx.totalThreads * grid->ctx.localBytesPerThread,
                config_.sm.lineBytes);
            localAllocThreads_ = grid->ctx.totalThreads;
            localAllocBytes_ = grid->ctx.localBytesPerThread;
        }
        grid->ctx.localBase = localBase_;
    }
    grid->smIds = std::move(sm_ids);

    // Decide whether this launch may tick its SMs concurrently: it
    // serializes when its own kernel is unsafe (data-dependent
    // stores, potentially overlapping cross-block footprints) *or*
    // its footprint may race with any active launch's. Only this
    // launch's SMs are pinned — the coordinator joins every
    // parallel section before ticking a serialized component
    // inline, so one conservative tenant never races with (or slows
    // the verdict of) its SM-parallel neighbours. The pin holds for
    // the launch's whole lifetime: it is not re-evaluated when a
    // conflicting neighbour retires first. Group tick *counters*
    // stay with the declared groups either way, so records are
    // identical across tickJobs regardless of the verdict.
    grid->verdict = analyzeSmParallelSafety(
        kernel, num_blocks, threads_per_block, grid->ctx.params);
    verdict_ = grid->verdict;
    bool serial = !grid->verdict.safe;
    for (const GridLaunch *other : active_)
        if (launchesMayConflict(grid->verdict, other->verdict))
            serial = true;
    grid->serialized = serial;
    for (const unsigned s : grid->smIds)
        engine_.setSerialized(*sms_[s], serial);

    for (const unsigned s : grid->smIds)
        sms_[s]->startLaunch(&grid->ctx);
    // Binding contexts happened outside the engine: cached promises
    // cannot have seen it.
    engine_.wakeAll();

    const auto id = static_cast<LaunchId>(launches_.size());
    active_.push_back(grid.get());
    launches_.push_back(std::move(grid));
    return id;
}

bool
Gpu::launchDone(LaunchId id) const
{
    const GridLaunch &grid = *launches_[id];
    if (!grid.allDispatched())
        return false;
    for (const unsigned s : grid.smIds)
        if (sms_[s]->busy() || !sms_[s]->drained())
            return false;
    return true;
}

void
Gpu::retireLaunch(LaunchId id)
{
    GridLaunch *grid = launches_[id].get();
    const auto it = std::find(active_.begin(), active_.end(), grid);
    GPULAT_ASSERT(it != active_.end(), "retiring an inactive launch");
    GPULAT_ASSERT(launchDone(id), "retiring an unfinished launch");
    active_.erase(it);
    for (const unsigned s : grid->smIds)
        engine_.setSerialized(*sms_[s], false);
}

LaunchResult
Gpu::run(const std::function<bool()> &done, const std::string &label,
         const std::function<std::uint64_t()> &progress)
{
    LaunchResult result;
    result.startCycle = engine_.now();
    const std::uint64_t instr_before = issuedInstructions();

    // Watchdog: the no-progress window is measured in *performed
    // engine steps* (TickEngine::steps()), never in core cycles —
    // fastForward() can jump millions of legitimate idle cycles in
    // one step(), so a cycle-measured window would flag a long but
    // healthy DRAM wait as a hang. A genuine stall keeps stepping
    // (the stuck component stays "due") with a frozen signature,
    // so it is still caught in every mode, including Off, where
    // steps and cycles coincide. Panics with a per-layer report.
    const auto signature = [&] {
        std::uint64_t sig = activitySignature();
        if (progress)
            sig += 0x9e3779b97f4a7c15ull * progress();
        return sig;
    };
    const std::uint64_t stall_steps = config_.engine.watchdogStallSteps;
    std::uint64_t last_sig = signature();
    std::uint64_t last_progress_step = engine_.steps();
    std::uint64_t iters = 0;

    while (!done() || !allDrained()) {
        engine_.step();
        engine_.fastForward(); // no-op in IdleFastForward::Off

        if ((++iters & 0x3fffu) == 0) {
            const std::uint64_t sig = signature();
            if (sig != last_sig) {
                last_sig = sig;
                last_progress_step = engine_.steps();
            } else if (stall_steps != 0 &&
                       engine_.steps() - last_progress_step >
                           stall_steps) {
                panic(stallReport(label));
            }
        }
    }

    // Close every component's lazy idle-accounting window before
    // anything reads per-cycle statistics.
    engine_.settle();

    result.endCycle = engine_.now();
    result.cycles = result.endCycle - result.startCycle;
    result.instructions = issuedInstructions() - instr_before;
    return result;
}

} // namespace gpulat
