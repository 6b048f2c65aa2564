/**
 * @file
 * Per-SM tick groups: the launch-time SM-parallel kernel safety
 * analysis, the sharded collectors' read order, byte
 * identity of experiment output across tick-jobs values and SM
 * groupings, the per-SM request-id pools behind the launch
 * activity signature, and the engine's work-stealing worker pool
 * under deliberately uneven group sizes.
 */

#include <map>
#include <sstream>
#include <string>
#include <vector>

#include <gtest/gtest.h>

#include "api/experiment.hh"
#include "api/stat_sink.hh"
#include "engine/tick_engine.hh"
#include "gpu/gpu.hh"
#include "gpu/kernel_analysis.hh"
#include "isa/assembler.hh"
#include "isa/kernel.hh"
#include "latency/collector.hh"

namespace gpulat {
namespace {

// ------------------------------------------ kernel safety analysis

std::array<RegValue, kMaxParams>
makeParams(std::initializer_list<RegValue> vals)
{
    std::array<RegValue, kMaxParams> params{};
    std::size_t i = 0;
    for (RegValue v : vals)
        params[i++] = v;
    return params;
}

/** The vecadd idiom: guarded c[i] = a[i] + b[i] over disjoint
 *  arrays, gtid = ctaid * ntid + tid. */
Kernel
streamKernel(bool alias_output_with_input)
{
    KernelBuilder b("stream");
    b.s2r(0, SpecialReg::Tid)
        .s2r(1, SpecialReg::Ctaid)
        .s2r(2, SpecialReg::Ntid)
        .imad(0, 1, 2, 0)
        .movParam(3, 3)
        .setp(CmpOp::GE, 0, 0, 3)
        .pred(0)
        .bra("done")
        .aluImm(Opcode::SHL, 4, 0, 3)
        .movParam(5, 0)
        .alu(Opcode::IADD, 5, 5, 4)
        .ld(MemSpace::Global, 6, 5)
        .movParam(7, 1)
        .alu(Opcode::IADD, 7, 7, 4)
        .ld(MemSpace::Global, 8, 7)
        .alu(Opcode::FADD, 9, 6, 8)
        .movParam(10, alias_output_with_input ? 0 : 2)
        .alu(Opcode::IADD, 10, 10, 4)
        .st(MemSpace::Global, 10, 9)
        .label("done")
        .exit();
    return b.finalize();
}

TEST(SmParallelSafety, StreamingStoresAreSafe)
{
    // a at 0x1000, b at 0x41000, c at 0x81000, n = 8192: affine,
    // block stride 8 * ntid, disjoint arrays -> parallel-safe.
    const auto params =
        makeParams({0x1000, 0x41000, 0x81000, 8192});
    const SmParallelVerdict v = analyzeSmParallelSafety(
        streamKernel(false), 32, 256, params);
    EXPECT_TRUE(v.safe) << v.reason;
}

TEST(SmParallelSafety, InPlaceUpdateIsSafe)
{
    // a[i] = a[i] + b[i]: the store and the aliasing load have the
    // identical affine form, so every thread touches only its own
    // element — still cross-block disjoint.
    const auto params = makeParams({0x1000, 0x41000, 0, 8192});
    const SmParallelVerdict v = analyzeSmParallelSafety(
        streamKernel(true), 32, 256, params);
    EXPECT_TRUE(v.safe) << v.reason;
}

TEST(SmParallelSafety, SingleBlockIsAlwaysSafe)
{
    // One block lives on one SM; nothing can race across SMs, even
    // with an atomic in the kernel.
    KernelBuilder b("atom1");
    b.movParam(0, 0).movImm(1, 1)
        .atom(AtomOp::Add, 2, 0, 1).exit();
    const SmParallelVerdict v = analyzeSmParallelSafety(
        b.finalize(), 1, 256, makeParams({0x1000}));
    EXPECT_TRUE(v.safe) << v.reason;
}

TEST(SmParallelSafety, AtomicsArePartitionForwardedAndSafe)
{
    // Atomics no longer serialize: their functional RMW is forwarded
    // to the owning partition's accept hook, which runs under the
    // coordinator barrier in schedule-invariant arrival order.
    KernelBuilder b("atom");
    b.movParam(0, 0).movImm(1, 1)
        .atom(AtomOp::Add, 2, 0, 1).exit();
    const SmParallelVerdict v = analyzeSmParallelSafety(
        b.finalize(), 8, 256, makeParams({0x1000}));
    EXPECT_TRUE(v.safe) << v.reason;
    EXPECT_TRUE(v.atomicsForwarded);
    EXPECT_FALSE(v.hasStore); // atomics are not plain stores
}

TEST(SmParallelSafety, StoreFreeLoopIsSafe)
{
    // A pointer-chase style loop. The fixpoint walks the backward
    // edge instead of bailing on it; with no stores the launch is
    // safe no matter what the loop-carried addresses do.
    KernelBuilder b("loop");
    b.movParam(0, 0)
        .movImm(1, 8)
        .label("again")
        .ld(MemSpace::Global, 0, 0)
        .aluImm(Opcode::ISUB, 1, 1, 1)
        .setpImm(CmpOp::GT, 0, 1, 0)
        .pred(0)
        .bra("again")
        .exit();
    const SmParallelVerdict v = analyzeSmParallelSafety(
        b.finalize(), 8, 32, makeParams({0x1000}));
    EXPECT_TRUE(v.safe) << v.reason;
    EXPECT_FALSE(v.hasStore);
    EXPECT_GE(v.loopHeads, 1u);
}

TEST(SmParallelSafety, LoopCarriedStoreSerializes)
{
    // Same loop shape, but now it stores through the loop-carried
    // pointer: the domain cannot bound it, so the launch serializes.
    KernelBuilder b("loopst");
    b.movParam(0, 0)
        .movImm(1, 8)
        .label("again")
        .ld(MemSpace::Global, 0, 0)
        .st(MemSpace::Global, 0, 1)
        .aluImm(Opcode::ISUB, 1, 1, 1)
        .setpImm(CmpOp::GT, 0, 1, 0)
        .pred(0)
        .bra("again")
        .exit();
    const SmParallelVerdict v = analyzeSmParallelSafety(
        b.finalize(), 8, 32, makeParams({0x1000}));
    EXPECT_FALSE(v.safe);
    EXPECT_NE(v.reason.find("non-affine"), std::string::npos);
}

TEST(SmParallelSafety, StoreFreeKernelIsSafe)
{
    // Data-dependent loads (a pointer chase) are fine without
    // stores: reads of immutable memory commute.
    KernelBuilder b("chase");
    b.movParam(0, 0)
        .ld(MemSpace::Global, 0, 0)
        .ld(MemSpace::Global, 0, 0)
        .ld(MemSpace::Global, 0, 0)
        .exit();
    const SmParallelVerdict v = analyzeSmParallelSafety(
        b.finalize(), 8, 32, makeParams({0x1000}));
    EXPECT_TRUE(v.safe) << v.reason;
}

TEST(SmParallelSafety, DataDependentStoreSerializes)
{
    // Store address loaded from memory: not affine.
    KernelBuilder b("scatter");
    b.movParam(0, 0)
        .ld(MemSpace::Global, 1, 0)
        .movImm(2, 7)
        .st(MemSpace::Global, 1, 2)
        .exit();
    const SmParallelVerdict v = analyzeSmParallelSafety(
        b.finalize(), 8, 32, makeParams({0x1000}));
    EXPECT_FALSE(v.safe);
    EXPECT_NE(v.reason.find("non-affine"), std::string::npos);
}

TEST(SmParallelSafety, BlockSharedStoreTargetSerializes)
{
    // Every thread of every block stores to the same flag word:
    // affine but not injective across blocks.
    KernelBuilder b("flag");
    b.movParam(0, 0).movImm(1, 1)
        .st(MemSpace::Global, 0, 1).exit();
    const SmParallelVerdict v = analyzeSmParallelSafety(
        b.finalize(), 8, 32, makeParams({0x1000}));
    EXPECT_FALSE(v.safe);
    EXPECT_NE(v.reason.find("overlap"), std::string::npos);
}

TEST(SmParallelSafety, StoreAfterReconvergenceSerializes)
{
    // The store sits at/after the branch target, where register
    // state depends on which lanes took the branch.
    KernelBuilder b("join");
    b.s2r(0, SpecialReg::Tid)
        .movParam(1, 0)
        .setpImm(CmpOp::GE, 0, 0, 16)
        .pred(0)
        .bra("join")
        .aluImm(Opcode::SHL, 2, 0, 3)
        .alu(Opcode::IADD, 1, 1, 2)
        .label("join")
        .st(MemSpace::Global, 1, 0)
        .exit();
    const SmParallelVerdict v = analyzeSmParallelSafety(
        b.finalize(), 8, 32, makeParams({0x1000}));
    // Lane 0 of every block stores to params[0]: a genuine
    // cross-block race, surfaced as a non-affine store (the join of
    // the two paths' register states is unbounded).
    EXPECT_FALSE(v.safe);
    EXPECT_NE(v.reason.find("non-affine"), std::string::npos);
}

/** A pointer read-modify-write behind a bounds guard on gtid, the
 *  guard being @p guard ("@p0 exit" or "@p0 bra done"). */
Kernel
guardedPointerUpdate(const std::string &guard)
{
    return assemble("s2r r0, tid\n"
                    "s2r r1, ctaid\n"
                    "s2r r2, ntid\n"
                    "imad r0, r1, r2, r0\n"
                    "mov r3, param1\n"
                    "setp.ge p0, r0, r3\n" +
                    guard +
                    "\n"
                    "mov r4, param0\n"
                    "ld.global r5, [r4]\n"
                    "ld.global r6, [r5]\n"
                    "iadd r6, r6, r0\n"
                    "st.global [r5], r6\n"
                    "done: exit\n");
}

TEST(SmParallelSafety, StoreAfterAGuardedExitSerializes)
{
    // `@p0 exit` retires only the guarded lanes; the others run on
    // into a store through a loaded pointer, which every block may
    // share. The CFG must give the exit its fall-through edge, or
    // the analysis never sees the store and calls the kernel
    // store-free. The same body behind `@p0 bra done` must get the
    // same verdict.
    for (const char *guard : {"@p0 exit", "@p0 bra done"}) {
        const SmParallelVerdict v = analyzeSmParallelSafety(
            guardedPointerUpdate(guard), 240, 64,
            makeParams({0x1000, 240 * 64}));
        EXPECT_FALSE(v.safe) << guard << ": " << v.reason;
        EXPECT_TRUE(v.hasStore) << guard;
        EXPECT_NE(v.reason.find("non-affine"), std::string::npos)
            << guard << ": " << v.reason;
    }
}

TEST(SmParallelSafety, SharedAndLocalAccessesStaySafe)
{
    // Shared memory is per-SM, local memory per-thread: neither
    // constrains cross-SM ticking, even with data-dependent
    // addressing.
    KernelBuilder b("smem");
    b.shared(1024)
        .s2r(0, SpecialReg::Tid)
        .aluImm(Opcode::SHL, 1, 0, 3)
        .st(MemSpace::Shared, 1, 0)
        .ld(MemSpace::Shared, 2, 1)
        .st(MemSpace::Local, 1, 2)
        .exit();
    const SmParallelVerdict v = analyzeSmParallelSafety(
        b.finalize(), 8, 32, makeParams({}));
    EXPECT_TRUE(v.safe) << v.reason;
}

// ------------------------------------------------- collector shards

LatencyTrace
traceStamp(Cycle issue)
{
    LatencyTrace t;
    t.issue = issue;
    t.complete = issue + 100;
    return t;
}

std::vector<Cycle>
issues(const std::vector<LatencyTrace> &traces)
{
    std::vector<Cycle> out;
    for (const LatencyTrace &t : traces)
        out.push_back(t.issue);
    return out;
}

TEST(ShardedCollectors, ReadReturnsEachRecordOnceInSmOrder)
{
    // Wall-clock append order does not matter: shard 1 is filled
    // before shard 0, yet a read lists SM 0's records first, each
    // shard's in its own append order.
    LatencyCollector col;
    col.resize(2);
    col.shard(1).record(traceStamp(10));
    col.shard(1).record(traceStamp(11));
    col.shard(0).record(traceStamp(20));
    col.shard(0).record(traceStamp(21));
    EXPECT_EQ(col.count(), 4u);
    EXPECT_EQ(issues(col.traces()), (std::vector<Cycle>{20, 21, 10, 11}));
    EXPECT_EQ(col.count(), col.traces().size());

    // A record appended after a read comes back on the next one,
    // and nothing is read twice.
    col.shard(1).record(traceStamp(12));
    EXPECT_EQ(col.count(), 5u);
    EXPECT_EQ(issues(col.traces()),
              (std::vector<Cycle>{20, 21, 10, 11, 12}));
    EXPECT_EQ(col.count(), col.traces().size());
}

// ------------------------------- record identity across schedules

std::string
renderRecord(const ExperimentRecord &rec)
{
    std::ostringstream os;
    JsonSink sink(os);
    sink.write(rec);
    sink.finish();
    return os.str();
}

ExperimentRecord
runWith(const std::string &workload,
        const std::vector<std::string> &params,
        const std::vector<std::string> &overrides)
{
    ExperimentSpec spec;
    spec.gpu = "gf106";
    spec.workload = workload;
    spec.params = params;
    spec.overrides = overrides;
    return runExperiment(spec);
}

TEST(SmGroupDeterminism, ComputeHeavyOutputIsByteIdentical)
{
    // Compute-heavy, SM-parallel workloads must produce
    // byte-identical records at tick-jobs 1 and 8 (warp-scheduler
    // stress via high warp occupancy): a straight-line FFMA stream
    // and gemm, whose loop the footprint analysis proves safe.
    const std::pair<const char *, std::vector<std::string>> cells[] = {
        {"compute_stream", {"n=32768", "fmaDepth=48"}},
        {"gemm", {"n=128"}},
    };
    for (const auto &[workload, params] : cells) {
        const auto a = runWith(workload, params, {"sm.warpSlots=48"});
        const auto b = runWith(workload, params,
                               {"sm.warpSlots=48", "engine.tickJobs=8"});
        EXPECT_EQ(renderRecord(a), renderRecord(b)) << workload;
        EXPECT_TRUE(a.correct) << workload;
        EXPECT_EQ(a.metrics.at("analysis.sm_parallel"), 1.0) << workload;
    }
}

TEST(SmGroupDeterminism, NonUnityClockRatiosStayByteIdentical)
{
    const std::vector<std::string> ratios{"dramClock=1/2",
                                          "icntClock=2/3",
                                          "l2Clock=3/4"};
    auto with_jobs = ratios;
    with_jobs.push_back("engine.tickJobs=8");
    const auto a = runWith("vecadd", {"n=16384"}, ratios);
    const auto b = runWith("vecadd", {"n=16384"}, with_jobs);
    EXPECT_EQ(renderRecord(a), renderRecord(b));
}

// --------------------------------------- per-SM request-id pools

TEST(RequestIdPools, SumMatchesAcrossTickJobsAndLaunches)
{
    // The watchdog's activity signature now sums the per-SM pools;
    // the sum must be schedule-independent (it equals the value
    // the old shared counter would have had) and must keep growing
    // across launches so the signature keeps moving.
    auto runOnce = [](std::size_t jobs) {
        GpuConfig cfg = makeConfig("gf106");
        cfg.numSms = 4;
        cfg.deviceMemBytes = 32 * 1024 * 1024;
        cfg.engine.tickJobs = jobs;
        Gpu gpu(cfg);

        KernelBuilder b("touch");
        b.s2r(0, SpecialReg::Tid)
            .s2r(1, SpecialReg::Ctaid)
            .s2r(2, SpecialReg::Ntid)
            .imad(0, 1, 2, 0)
            .aluImm(Opcode::SHL, 3, 0, 3)
            .movParam(4, 0)
            .alu(Opcode::IADD, 4, 4, 3)
            .ld(MemSpace::Global, 5, 4)
            .alu(Opcode::IADD, 5, 5, 5)
            .st(MemSpace::Global, 4, 5)
            .exit();
        const Kernel kernel = b.finalize();
        const Addr base = gpu.alloc(64 * 1024);

        std::vector<std::uint64_t> totals;
        std::uint64_t sum = 0;
        for (int launch = 0; launch < 2; ++launch) {
            gpu.launch(kernel, 8, 128, {base});
            sum = 0;
            for (unsigned s = 0; s < cfg.numSms; ++s)
                sum += gpu.sm(s).requestsIssued();
            totals.push_back(sum);
        }
        EXPECT_GT(totals[0], 0u);
        EXPECT_GT(totals[1], totals[0]); // signature keeps moving
        return totals;
    };

    const auto baseline = runOnce(1);
    EXPECT_EQ(runOnce(8), baseline);
}

// --------------------------------- work stealing on uneven groups

/** Ticks into component-private state only (group-parallel safe). */
struct PrivateLogComponent : Clocked
{
    void tick(Cycle now) override { log.push_back(now); }
    Cycle nextEventAt(Cycle now) const override { return now; }
    std::vector<Cycle> log;
};

TEST(WorkStealing, UnevenGroupsMatchSerialTicking)
{
    // Many groups of very different sizes: the shared-cursor pool
    // claims guided chunks, so fast workers steal the tail batches
    // from slow ones. Logs and per-group tick counters must still
    // match the serial schedule exactly.
    constexpr unsigned kGroups = 24;
    auto run = [](std::size_t tick_jobs) {
        TickEngine engine;
        engine.setMode(IdleFastForward::PerDomain);
        engine.setTickJobs(tick_jobs);
        ClockDomain &core =
            engine.addDomain("core", ClockRatio{1, 1});
        std::vector<std::unique_ptr<PrivateLogComponent>> comps;
        for (unsigned g = 0; g < kGroups; ++g) {
            const unsigned group = engine.addGroup(
                std::string("g") + std::to_string(g));
            // group g holds 1 + (g % 5) components: batch costs
            // differ by 5x across the section.
            for (unsigned m = 0; m <= g % 5; ++m) {
                comps.push_back(
                    std::make_unique<PrivateLogComponent>());
                engine.add(core, *comps.back(), group);
            }
        }
        for (int i = 0; i < 64; ++i)
            engine.step();

        std::vector<std::vector<Cycle>> logs;
        for (const auto &comp : comps)
            logs.push_back(comp->log);
        std::vector<std::uint64_t> ticks;
        for (unsigned g = 0; g < engine.numGroups(); ++g)
            ticks.push_back(engine.groupTicksRun(g));
        return std::make_pair(logs, ticks);
    };

    const auto serial = run(1);
    for (std::size_t jobs : {2u, 4u, 8u}) {
        const auto parallel = run(jobs);
        EXPECT_EQ(serial.first, parallel.first) << jobs;
        EXPECT_EQ(serial.second, parallel.second) << jobs;
    }
}

/** Appends to a log shared with other components: only safe when
 *  the engine serializes every appender on one thread. */
struct SharedLogComponent : Clocked
{
    SharedLogComponent(int n, std::vector<int> *l) : id(n), log(l) {}
    void tick(Cycle) override { log->push_back(id); }
    Cycle nextEventAt(Cycle now) const override { return now; }
    int id;
    std::vector<int> *log;
};

TEST(WorkStealing, SetSerializedPinsGroupsToCoordinator)
{
    // Two groups whose components secretly share a log: unsafe to
    // run on the pool, so a launch-time setSerialized() must pin
    // them to the coordinator (registration order), while the
    // declared-group tick counters keep counting as if nothing
    // happened. A third, private group stays parallel.
    TickEngine engine;
    engine.setMode(IdleFastForward::PerDomain);
    engine.setTickJobs(4);
    ClockDomain &core = engine.addDomain("core", ClockRatio{1, 1});
    const unsigned g1 = engine.addGroup("g1");
    const unsigned g2 = engine.addGroup("g2");
    const unsigned g3 = engine.addGroup("g3");

    std::vector<int> shared_log;
    SharedLogComponent a(1, &shared_log);
    SharedLogComponent b(2, &shared_log);
    PrivateLogComponent c;
    engine.add(core, a, g1);
    engine.add(core, b, g2);
    engine.add(core, c, g3);
    engine.setSerialized(a, true);
    engine.setSerialized(b, true);

    const int cycles = 64;
    for (int i = 0; i < cycles; ++i)
        engine.step();

    ASSERT_EQ(shared_log.size(),
              static_cast<std::size_t>(2 * cycles));
    for (int i = 0; i < cycles; ++i) {
        EXPECT_EQ(shared_log[2 * i], 1) << i;
        EXPECT_EQ(shared_log[2 * i + 1], 2) << i;
    }
    EXPECT_EQ(engine.groupTicksRun(g1),
              static_cast<std::uint64_t>(cycles));
    EXPECT_EQ(engine.groupTicksRun(g2),
              static_cast<std::uint64_t>(cycles));
    EXPECT_EQ(engine.groupTicksRun(g3),
              static_cast<std::uint64_t>(cycles));

    // Lifting a's pin returns it to the pool; b stays pinned, and
    // as a coordinator component it is a barrier that flushes a's
    // batch first — so the shared log must keep its registration
    // order even though a ticks on a worker again.
    engine.setSerialized(a, false);
    for (int i = 0; i < cycles; ++i)
        engine.step();
    ASSERT_EQ(shared_log.size(),
              static_cast<std::size_t>(4 * cycles));
    for (int i = 0; i < 2 * cycles; ++i) {
        EXPECT_EQ(shared_log[2 * i], 1) << i;
        EXPECT_EQ(shared_log[2 * i + 1], 2) << i;
    }
    EXPECT_EQ(engine.groupTicksRun(g3),
              static_cast<std::uint64_t>(2 * cycles));
}

} // namespace
} // namespace gpulat
