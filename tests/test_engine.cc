/**
 * @file
 * Clocked-component engine tests: ratio-correct domain
 * interleaving, idle fast-forward cycle-exactness, and regression
 * against the pre-engine (hand-orchestrated tick) simulator on the
 * paper's workloads.
 */

#include <gtest/gtest.h>

#include <map>
#include <string>
#include <utility>
#include <vector>

#include "common/random.hh"
#include "engine/tick_engine.hh"
#include "gpu/gpu.hh"
#include "isa/assembler.hh"
#include "latency/breakdown.hh"
#include "microbench/pchase.hh"
#include "workloads/bfs.hh"
#include "workloads/gemm.hh"
#include "workloads/vecadd.hh"

namespace gpulat {
namespace {

// ------------------------------------------------------- ClockDomain

TEST(ClockDomain, UnityTicksEveryCycle)
{
    ClockDomain d("core", ClockRatio{1, 1});
    for (Cycle c = 0; c < 5; ++c) {
        EXPECT_EQ(d.dueTicks(c), 1u) << "cycle " << c;
        d.retire(1);
    }
    EXPECT_EQ(d.localCycles(), 5u);
}

TEST(ClockDomain, HalfRateTicksEveryOtherCycle)
{
    ClockDomain d("dram", ClockRatio{1, 2});
    std::vector<unsigned> due;
    for (Cycle c = 0; c < 6; ++c) {
        due.push_back(d.dueTicks(c));
        d.retire(due.back());
    }
    EXPECT_EQ(due, (std::vector<unsigned>{1, 0, 1, 0, 1, 0}));
}

TEST(ClockDomain, DoubleRateTicksTwicePerCycle)
{
    ClockDomain d("icnt", ClockRatio{2, 1});
    unsigned total = 0;
    for (Cycle c = 0; c < 4; ++c) {
        total += d.dueTicks(c);
        d.retire(d.dueTicks(c));
    }
    // 2x frequency: ticksThrough(c) = 2c + 1, so 7 ticks over 4
    // core cycles (a single tick at cycle 0, where every domain
    // aligns, then two per cycle).
    EXPECT_EQ(total, 7u);
}

TEST(ClockDomain, FractionalRatioKeepsLongRunRate)
{
    ClockDomain d("l2", ClockRatio{2, 3});
    unsigned total = 0;
    for (Cycle c = 0; c < 300; ++c) {
        const unsigned due = d.dueTicks(c);
        EXPECT_LE(due, 1u);
        total += due;
        d.retire(due);
    }
    // floor(299 * 2/3) + 1 ticks over 300 cycles.
    EXPECT_EQ(total, 200u);
}

TEST(ClockDomain, NextTickAlignsEventsToTheGrid)
{
    ClockDomain d("dram", ClockRatio{1, 2}); // ticks on even cycles
    d.retire(d.dueTicks(0));
    EXPECT_EQ(d.nextTickAtOrAfter(1), 2u);
    EXPECT_EQ(d.nextTickAtOrAfter(2), 2u);
    EXPECT_EQ(d.nextTickAtOrAfter(101), 102u);
    d.skipTo(101); // window [*, 101) dead: schedule caught up
    EXPECT_EQ(d.dueTicks(101), 0u);
    EXPECT_EQ(d.dueTicks(102), 1u);
}

TEST(ClockDomain, NextTickNeverOvershootsFractionalGrids)
{
    // {2,3} ticks at ceil(3k/2) = 0, 2, 3, 5, 6, 8, ...; an event
    // at 5 must land on the scheduled tick at 5, not on 6.
    ClockDomain a("l2", ClockRatio{2, 3});
    EXPECT_EQ(a.nextTickAtOrAfter(5), 5u);
    EXPECT_EQ(a.nextTickAtOrAfter(4), 5u);
    EXPECT_EQ(a.nextTickAtOrAfter(1), 2u);

    // Exhaustive cross-check against the schedule for odd ratios.
    for (const ClockRatio r :
         {ClockRatio{2, 3}, ClockRatio{3, 2}, ClockRatio{3, 7},
          ClockRatio{7, 3}}) {
        ClockDomain d("x", r);
        for (Cycle e = 0; e < 50; ++e) {
            const Cycle t = d.nextTickAtOrAfter(e);
            // t is on the grid...
            const Cycle k = ClockDomain::firstTickAtOrAfter(t, r);
            EXPECT_EQ(ClockDomain::tickCycle(k, r), t)
                << r.mul << ":" << r.div << " e=" << e;
            // ...and no scheduled tick lies in [e, t) (e >= 1 when
            // the loop runs, since e = 0 yields t = 0).
            for (Cycle c = e; c < t; ++c) {
                EXPECT_EQ(ClockDomain::ticksThrough(c, r),
                          ClockDomain::ticksThrough(c - 1, r))
                    << r.mul << ":" << r.div << " e=" << e
                    << " c=" << c;
            }
        }
    }
}

/** The grid arithmetic before its 64-bit fast paths, kept verbatim:
 *  every value through a 128-bit intermediate. */
namespace wide_reference {

using Wide = unsigned __int128;

Cycle
narrow(Wide v)
{
    return v >= Wide{kNoCycle} ? kNoCycle : static_cast<Cycle>(v);
}

Cycle
tickCycle(Cycle k, ClockRatio ratio)
{
    // A saturated tick index means "never": on a fast grid
    // (mul > div) the division below would otherwise shrink the
    // sentinel back into a finite — and bogus — cycle.
    if (k == kNoCycle)
        return kNoCycle;
    return narrow((Wide{k} * ratio.div + ratio.mul - 1) / ratio.mul);
}

Cycle
ticksThrough(Cycle c, ClockRatio ratio)
{
    // Tick k lands on ceil(k * div / mul), so ticks with
    // k * div <= c * mul have happened by the end of cycle c:
    // floor(c * mul / div) of them with k >= 1, plus tick 0.
    return narrow(Wide{c} * ratio.mul / ratio.div + 1);
}

Cycle
firstTickAtOrAfter(Cycle e, ClockRatio ratio)
{
    // ceil(k * div / mul) >= e  <=>  k * div > (e - 1) * mul
    //                           <=>  k > (e - 1) * mul / div.
    if (e == 0)
        return 0;
    return narrow(Wide{e - 1} * ratio.mul / ratio.div + 1);
}

} // namespace wide_reference

/** Property: the 64-bit fast paths and their 128-bit fallback agree
 *  with the all-wide reference on every ratio up to 2^32-1 and on
 *  the arguments where 64 bits stop sufficing. */
TEST(ClockDomainProperty, MatchesWideArithmetic)
{
    constexpr unsigned kMax = 0xffffffffu;
    std::vector<ClockRatio> ratios{{1, 1},    {1, 2},       {2, 1},
                                   {3, 7},    {7, 3},       {kMax, 1},
                                   {1, kMax}, {kMax, kMax}, {kMax, 2}};
    Rng rng(23);
    for (int i = 0; i < 200; ++i) {
        // Spread magnitudes: up to 2^1 .. 2^32 - 1.
        auto draw = [&] {
            const auto bits = static_cast<unsigned>(rng.range(1, 32));
            return static_cast<unsigned>(
                rng.range(1, (std::uint64_t{1} << bits) - 1));
        };
        ratios.push_back(ClockRatio{draw(), draw()});
    }

    for (const ClockRatio r : ratios) {
        std::vector<Cycle> args{0, 1, 2, kNoCycle - 2, kNoCycle - 1,
                                kNoCycle};
        // Either side of where x * mul (or x * div) leaves 64 bits.
        for (const unsigned v : {r.mul, r.div}) {
            const Cycle edge = kNoCycle / v;
            for (const Cycle x : {edge - 1, edge, edge + 1})
                args.push_back(x);
        }
        for (int i = 0; i < 20; ++i) {
            args.push_back(rng.next());
            args.push_back(rng.next() >> rng.range(1, 63));
        }
        for (const Cycle x : args) {
            ASSERT_EQ(ClockDomain::tickCycle(x, r),
                      wide_reference::tickCycle(x, r))
                << r.mul << "/" << r.div << " k=" << x;
            ASSERT_EQ(ClockDomain::ticksThrough(x, r),
                      wide_reference::ticksThrough(x, r))
                << r.mul << "/" << r.div << " c=" << x;
            ASSERT_EQ(ClockDomain::firstTickAtOrAfter(x, r),
                      wide_reference::firstTickAtOrAfter(x, r))
                << r.mul << "/" << r.div << " e=" << x;
        }
    }
}

// -------------------------------------------------------- TickEngine

/** Records every tick as (name, core-cycle); never idle. */
struct RecordingComponent : Clocked
{
    RecordingComponent(std::string n,
                       std::vector<std::pair<std::string, Cycle>> *l)
        : name(std::move(n)), log(l)
    {
    }
    void tick(Cycle now) override { log->emplace_back(name, now); }
    Cycle nextEventAt(Cycle now) const override { return now; }

    std::string name;
    std::vector<std::pair<std::string, Cycle>> *log;
};

TEST(TickEngine, RatioCorrectInterleaving)
{
    std::vector<std::pair<std::string, Cycle>> log;
    TickEngine engine;
    ClockDomain &core = engine.addDomain("core", ClockRatio{1, 1});
    ClockDomain &half = engine.addDomain("half", ClockRatio{1, 2});
    ClockDomain &dbl = engine.addDomain("dbl", ClockRatio{2, 1});

    RecordingComponent a("A", &log);
    RecordingComponent h("H", &log);
    RecordingComponent d("D", &log);
    engine.add(core, a);
    engine.add(half, h);
    engine.add(dbl, d);

    for (int i = 0; i < 4; ++i)
        engine.step();

    // Registration order within a cycle; due counts per ratio.
    const std::vector<std::pair<std::string, Cycle>> expected{
        {"A", 0}, {"H", 0}, {"D", 0},           // all domains align
        {"A", 1}, {"D", 1}, {"D", 1},           // dbl owes two
        {"A", 2}, {"H", 2}, {"D", 2}, {"D", 2}, // half on evens
        {"A", 3}, {"D", 3}, {"D", 3},
    };
    EXPECT_EQ(log, expected);

    unsigned a_ticks = 0;
    unsigned h_ticks = 0;
    unsigned d_ticks = 0;
    for (const auto &[name, cycle] : log) {
        a_ticks += name == "A";
        h_ticks += name == "H";
        d_ticks += name == "D";
    }
    EXPECT_EQ(a_ticks, 4u);
    EXPECT_EQ(h_ticks, 2u); // half rate
    EXPECT_EQ(d_ticks, 7u); // double rate (1 + 2 + 2 + 2)
}

/** Idle until a fixed wake cycle; logs fast-forward windows. */
struct SleepyComponent : Clocked
{
    explicit SleepyComponent(Cycle w) : wake(w) {}
    void
    tick(Cycle now) override
    {
        if (now >= wake)
            ++ticksAwake;
    }
    Cycle
    nextEventAt(Cycle now) const override
    {
        return std::max(now, wake);
    }
    void
    fastForward(Cycle from, Cycle to) override
    {
        windows.emplace_back(from, to);
    }

    Cycle wake;
    unsigned ticksAwake = 0;
    std::vector<std::pair<Cycle, Cycle>> windows;
};

TEST(TickEngine, FastForwardJumpsToNextEvent)
{
    TickEngine engine;
    ClockDomain &core = engine.addDomain("core", ClockRatio{1, 1});
    SleepyComponent sleepy(100);
    engine.add(core, sleepy);

    engine.step(); // tick at cycle 0 (asleep)
    EXPECT_EQ(engine.fastForward(), 99u);
    EXPECT_EQ(engine.now(), 100u);
    ASSERT_EQ(sleepy.windows.size(), 1u);
    EXPECT_EQ(sleepy.windows[0], std::make_pair(Cycle{1}, Cycle{100}));

    engine.step();
    EXPECT_EQ(sleepy.ticksAwake, 1u);
    EXPECT_EQ(engine.skippedCycles(), 99u);
    EXPECT_EQ(engine.fastForwardWindows(), 1u);
}

TEST(TickEngine, FastForwardAlignsToDomainGrid)
{
    TickEngine engine;
    ClockDomain &half = engine.addDomain("half", ClockRatio{1, 2});
    SleepyComponent sleepy(101); // odd: half domain ticks on evens
    engine.add(half, sleepy);

    engine.step();
    EXPECT_GT(engine.fastForward(), 0u);
    EXPECT_EQ(engine.now(), 102u); // first even cycle >= 101
    engine.step();
    EXPECT_EQ(sleepy.ticksAwake, 1u);
}

TEST(TickEngine, ActiveComponentBlocksFastForward)
{
    TickEngine engine;
    ClockDomain &core = engine.addDomain("core", ClockRatio{1, 1});
    std::vector<std::pair<std::string, Cycle>> log;
    RecordingComponent busy("B", &log);
    SleepyComponent sleepy(100);
    engine.add(core, busy);
    engine.add(core, sleepy);

    engine.step();
    EXPECT_EQ(engine.fastForward(), 0u);
    EXPECT_EQ(engine.now(), 1u);
}

// ---------------------------------------- per-domain event stepping

/**
 * Counts ticks and promise consultations, and asserts the event
 * cache's regression contract: the promise is never consulted
 * twice without an intervening tick (of this component — no wake
 * edges point at it in these tests).
 */
struct CountingComponent : Clocked
{
    explicit CountingComponent(Cycle w) : wake(w) {}

    void
    tick(Cycle now) override
    {
        ++ticks;
        tickedSinceQuery = true;
        if (now >= wake)
            ++ticksAwake;
    }

    Cycle
    nextEventAt(Cycle now) const override
    {
        EXPECT_TRUE(tickedSinceQuery)
            << "promise consulted twice without an intervening tick";
        tickedSinceQuery = false;
        ++queries;
        return std::max(now, wake);
    }

    Cycle wake;
    unsigned ticks = 0;
    unsigned ticksAwake = 0;
    mutable unsigned queries = 0;
    mutable bool tickedSinceQuery = true;
};

TEST(TickEngine, PerDomainSleepsComponentsIndependently)
{
    // One always-busy component pins the engine to per-cycle
    // stepping; the sleeper must not be ticked (or its promise
    // re-consulted) until its own event comes due.
    TickEngine engine;
    engine.setMode(IdleFastForward::PerDomain);
    ClockDomain &core = engine.addDomain("core", ClockRatio{1, 1});
    CountingComponent busy(0);    // wake 0: active every cycle
    CountingComponent sleepy(50);
    engine.add(core, busy);
    engine.add(core, sleepy);

    while (engine.now() < 50) {
        engine.step();
        engine.fastForward();
    }
    // The busy component blocked every jump...
    EXPECT_EQ(engine.skippedCycles(), 0u);
    EXPECT_EQ(busy.ticks, 50u);
    // ...while the sleeper was ticked once (cycle 0, to obtain its
    // first promise) and its promise consulted exactly once.
    EXPECT_EQ(sleepy.ticks, 1u);
    EXPECT_EQ(sleepy.queries, 1u);

    engine.step();
    EXPECT_EQ(sleepy.ticks, 2u);
    EXPECT_EQ(sleepy.ticksAwake, 1u); // woke exactly on cycle 50
    EXPECT_EQ(sleepy.queries, 2u);    // re-queried after its tick
}

TEST(TickEngine, PerDomainAccountsSleptWindowsLazily)
{
    TickEngine engine;
    engine.setMode(IdleFastForward::PerDomain);
    ClockDomain &core = engine.addDomain("core", ClockRatio{1, 1});
    ClockDomain &half = engine.addDomain("half", ClockRatio{1, 2});
    CountingComponent busy(0);
    SleepyComponent sleepy(101); // half grid: due tick at 102
    engine.add(core, busy);
    engine.add(half, sleepy);

    while (engine.now() < 102) {
        engine.step();
        engine.fastForward();
    }
    engine.settle();

    // Slept windows cover exactly the schedule between the tick at
    // cycle 0 and the wake at 102 — 50 half-rate ticks — and the
    // per-domain counters agree.
    Cycle accounted = 0;
    for (const auto &[from, to] : sleepy.windows)
        accounted += ClockDomain::ticksThrough(to - 1, {1, 2}) -
            ClockDomain::ticksThrough(from - 1, {1, 2});
    EXPECT_EQ(accounted, 50u);
    EXPECT_EQ(half.componentTicksSkipped(), 50u);
    EXPECT_EQ(half.componentTicksRun() + half.componentTicksSkipped(),
              half.localCycles());
    EXPECT_EQ(core.componentTicksSkipped(), 0u);
}

/** Sleeps until an event another component delivers. */
struct PokeTarget : Clocked
{
    void
    tick(Cycle now) override
    {
        if (pending != kNoCycle && now >= pending) {
            ++work;
            pending = kNoCycle;
        }
    }
    Cycle
    nextEventAt(Cycle now) const override
    {
        return pending == kNoCycle ? kNoCycle
                                   : std::max(now, pending);
    }

    Cycle pending = kNoCycle;
    unsigned work = 0;
};

/** Delivers a future event into a PokeTarget at a fixed cycle. */
struct Poker : Clocked
{
    Poker(PokeTarget *t, Cycle w) : target(t), when(w) {}
    void
    tick(Cycle now) override
    {
        if (!done && now >= when) {
            target->pending = now + 7;
            done = true;
        }
    }
    Cycle
    nextEventAt(Cycle now) const override
    {
        return done ? kNoCycle : std::max(now, when);
    }

    PokeTarget *target;
    Cycle when;
    bool done = false;
};

TEST(TickEngine, WakeEdgeRevealsDeliveredEvents)
{
    // Event-scheduled stepping end to end: the engine must visit
    // only cycles 0 (initial promises), 5 (the poke) and 12 (the
    // delivered event), jumping every dead window in between.
    TickEngine engine;
    engine.setMode(IdleFastForward::PerDomain);
    ClockDomain &core = engine.addDomain("core", ClockRatio{1, 1});
    PokeTarget target;
    Poker poker(&target, 5);
    engine.add(core, target);
    engine.add(core, poker);
    engine.link(poker, target);

    while (engine.now() < 13 && engine.steps() < 64) {
        engine.step();
        engine.fastForward();
    }
    EXPECT_EQ(target.work, 1u);
    EXPECT_EQ(engine.steps(), 3u);
    EXPECT_EQ(engine.now(), 13u);
    EXPECT_EQ(engine.skippedCycles(), 10u); // [1,5) and [6,12)
}

// ------------------------------------- drained-engine fast-forward

TEST(TickEngine, FastForwardOnDrainedEngineReturnsZero)
{
    // Every promise kNoCycle: there is no event to aim at, so
    // fastForward() must return 0 instead of doing arithmetic on
    // kNoCycle (which would overflow the tick-grid math).
    TickEngine engine;
    engine.setMode(IdleFastForward::PerDomain);
    ClockDomain &core = engine.addDomain("core", ClockRatio{1, 1});
    ClockDomain &dram = engine.addDomain("dram", ClockRatio{1, 3});
    PokeTarget drained_a; // promises kNoCycle while nothing pending
    PokeTarget drained_b;
    engine.add(core, drained_a);
    engine.add(dram, drained_b);

    engine.step(); // obtain the (drained) promises
    const Cycle before = engine.now();
    EXPECT_EQ(engine.fastForward(), 0u);
    EXPECT_EQ(engine.fastForward(), 0u);
    EXPECT_EQ(engine.now(), before);
    EXPECT_EQ(engine.skippedCycles(), 0u);
}

TEST(TickEngine, FastForwardSaturatesOverflowingPromises)
{
    // A promise one off from kNoCycle on a {1,3} grid rounds up to
    // a tick at exactly 2^64, which used to wrap to 0 and propose
    // a *past* jump target; the saturating grid math must read it
    // as "never" so the other component's real event still wins.
    struct HugePromise : Clocked
    {
        void tick(Cycle) override {}
        Cycle
        nextEventAt(Cycle) const override
        {
            return kNoCycle - 1;
        }
    };
    TickEngine engine;
    engine.setMode(IdleFastForward::PerDomain);
    ClockDomain &slow = engine.addDomain("slow", ClockRatio{1, 3});
    ClockDomain &core = engine.addDomain("core", ClockRatio{1, 1});
    HugePromise huge;
    SleepyComponent sleepy(100);
    engine.add(slow, huge);
    engine.add(core, sleepy);

    engine.step();
    EXPECT_GT(engine.fastForward(), 0u);
    EXPECT_EQ(engine.now(), 100u);

    // Fast grids are the other overflow shape: the saturated tick
    // index must not be divided back into a finite bogus target
    // (tickCycle(kNoCycle, {2,1}) would read as 2^63, jumping the
    // engine half the representable timeline).
    TickEngine fast_engine;
    fast_engine.setMode(IdleFastForward::PerDomain);
    ClockDomain &fast =
        fast_engine.addDomain("fast", ClockRatio{2, 1});
    ClockDomain &fcore =
        fast_engine.addDomain("core", ClockRatio{1, 1});
    HugePromise huge2;
    SleepyComponent sleepy2(100);
    fast_engine.add(fast, huge2);
    fast_engine.add(fcore, sleepy2);

    fast_engine.step();
    EXPECT_GT(fast_engine.fastForward(), 0u);
    EXPECT_EQ(fast_engine.now(), 100u);
    EXPECT_EQ(ClockDomain::tickCycle(kNoCycle, ClockRatio{2, 1}),
              kNoCycle);
}

// --------------------------------------- parallel tick-group units

TEST(TickEngine, ResolveTickJobsClampsToOne)
{
    // hardware_concurrency() may return 0 ("unknown"); a zero
    // worker count must mean serial, never none.
    EXPECT_GE(TickEngine::resolveTickJobs(0), 1u);
    EXPECT_EQ(TickEngine::resolveTickJobs(1), 1u);
    EXPECT_EQ(TickEngine::resolveTickJobs(7), 7u);

    TickEngine engine;
    engine.setTickJobs(0);
    EXPECT_GE(engine.tickJobs(), 1u);
    engine.setTickJobs(3);
    EXPECT_EQ(engine.tickJobs(), 3u);
}

/** Ticks into component-private state only (group-parallel safe). */
struct PrivateLogComponent : Clocked
{
    void tick(Cycle now) override { log.push_back(now); }
    Cycle nextEventAt(Cycle now) const override { return now; }
    std::vector<Cycle> log;
};

TEST(TickEngine, TickGroupsMatchSerialTicking)
{
    // Two non-coordinator groups plus coordinator components, run
    // serially and with a worker pool: every component must see
    // exactly the same tick sequence, and the per-group counters
    // must agree (they are mirrored into experiment records, so
    // they may not depend on the execution mode).
    auto run = [](std::size_t tick_jobs) {
        TickEngine engine;
        engine.setMode(IdleFastForward::PerDomain);
        engine.setTickJobs(tick_jobs);
        ClockDomain &core =
            engine.addDomain("core", ClockRatio{1, 1});
        ClockDomain &half =
            engine.addDomain("half", ClockRatio{1, 2});
        const unsigned g1 = engine.addGroup("g1");
        const unsigned g2 = engine.addGroup("g2");

        PrivateLogComponent hub; // coordinator barrier
        PrivateLogComponent a1;
        PrivateLogComponent a2;
        PrivateLogComponent b1;
        engine.add(core, hub);
        engine.add(core, a1, g1);
        engine.add(half, a2, g1);
        engine.add(core, b1, g2);

        for (int i = 0; i < 32; ++i)
            engine.step();

        std::vector<std::vector<Cycle>> logs{hub.log, a1.log,
                                             a2.log, b1.log};
        std::vector<std::uint64_t> ticks;
        for (unsigned g = 0; g < engine.numGroups(); ++g)
            ticks.push_back(engine.groupTicksRun(g));
        return std::make_pair(logs, ticks);
    };

    const auto serial = run(1);
    const auto parallel = run(4);
    EXPECT_EQ(serial.first, parallel.first);
    EXPECT_EQ(serial.second, parallel.second);
    EXPECT_EQ(serial.second[1], 48u); // g1: 32 core + 16 half ticks
    EXPECT_EQ(serial.second[2], 32u); // g2
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

TEST(TickEngine, CrossGroupEdgeDemotesBothEndpointsToCoordinator)
{
    // A wake edge between two different non-zero groups means the
    // endpoints interact, so the engine must tick them in
    // registration order on the coordinating thread — the shared
    // log would race (and interleave nondeterministically) if
    // either endpoint kept running on the pool. A third,
    // independent group stays parallel-eligible alongside.
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
    PrivateLogComponent d;
    engine.add(core, a, g1);
    engine.add(core, b, g2);
    engine.add(core, c, g3);
    engine.add(core, d, g1); // same group as a: stays ordered too
    engine.link(a, b); // cross-group edge: demotes a and b

    const int cycles = 64;
    for (int i = 0; i < cycles; ++i)
        engine.step();

    ASSERT_EQ(shared_log.size(),
              static_cast<std::size_t>(2 * cycles));
    for (int i = 0; i < cycles; ++i) {
        EXPECT_EQ(shared_log[2 * i], 1) << i;     // registration
        EXPECT_EQ(shared_log[2 * i + 1], 2) << i; // order, per cycle
    }
    EXPECT_EQ(c.log.size(), static_cast<std::size_t>(cycles));
    EXPECT_EQ(d.log.size(), static_cast<std::size_t>(cycles));
}

// ------------------------------------------- cycle-exact equivalence

/** Small config so tests are fast but still multi-SM/partition. */
GpuConfig
smallGF106()
{
    GpuConfig cfg = makeGF106();
    cfg.numSms = 2;
    cfg.numPartitions = 2;
    cfg.deviceMemBytes = 32 * 1024 * 1024;
    return cfg;
}

struct RunCapture
{
    bool correct = false;
    Cycle cycles = 0;
    std::uint64_t instructions = 0;
    std::vector<LatencyTrace> traces;
    std::vector<ExposureRecord> exposure;
    std::uint64_t idleCycles = 0;
    Cycle skipped = 0;
    std::uint64_t steps = 0;
    Cycle endCycle = 0;
    /** Every simulation counter. The engine.* skip-effectiveness
     *  meta counters are excluded: they measure how much simulator
     *  work each mode avoided, so they differ across modes by
     *  design while everything the simulation *models* must not. */
    std::map<std::string, std::uint64_t> counters;
    std::uint64_t compSkipped = 0;
};

RunCapture
runWorkload(Workload &wl, GpuConfig cfg)
{
    Gpu gpu(std::move(cfg));
    RunCapture cap;
    cap.correct = wl.run(gpu).correct;
    cap.cycles = gpu.now();
    cap.instructions = gpu.issuedInstructions();
    cap.traces = gpu.latencies().traces();
    cap.exposure = gpu.exposure().records();
    for (unsigned s = 0; s < gpu.config().numSms; ++s)
        cap.idleCycles += gpu.stats().counterValue(
            "sm" + std::to_string(s) + ".idle_cycles");
    cap.skipped = gpu.engine().skippedCycles();
    cap.steps = gpu.engine().steps();
    cap.endCycle = gpu.now();
    for (const auto &[name, counter] : gpu.stats().counters()) {
        (void)counter;
        if (name.rfind("engine.", 0) == 0)
            continue;
        cap.counters[name] = gpu.stats().counterValue(name);
    }
    cap.compSkipped = gpu.engine().componentTicksSkipped();
    return cap;
}

void
expectIdenticalTraces(const std::vector<LatencyTrace> &a,
                      const std::vector<LatencyTrace> &b)
{
    ASSERT_EQ(a.size(), b.size());
    for (std::size_t i = 0; i < a.size(); ++i) {
        EXPECT_EQ(a[i].issue, b[i].issue) << i;
        EXPECT_EQ(a[i].l1Access, b[i].l1Access) << i;
        EXPECT_EQ(a[i].icntInject, b[i].icntInject) << i;
        EXPECT_EQ(a[i].ropEnq, b[i].ropEnq) << i;
        EXPECT_EQ(a[i].l2Enq, b[i].l2Enq) << i;
        EXPECT_EQ(a[i].l2Done, b[i].l2Done) << i;
        EXPECT_EQ(a[i].dramEnq, b[i].dramEnq) << i;
        EXPECT_EQ(a[i].dramSched, b[i].dramSched) << i;
        EXPECT_EQ(a[i].dramData, b[i].dramData) << i;
        EXPECT_EQ(a[i].complete, b[i].complete) << i;
        EXPECT_EQ(a[i].hitLevel, b[i].hitLevel) << i;
    }
}

void
expectIdenticalRuns(const RunCapture &a, const RunCapture &b)
{
    EXPECT_TRUE(a.correct);
    EXPECT_TRUE(b.correct);
    EXPECT_EQ(a.cycles, b.cycles);
    EXPECT_EQ(a.instructions, b.instructions);
    EXPECT_EQ(a.idleCycles, b.idleCycles);
    expectIdenticalTraces(a.traces, b.traces);
    ASSERT_EQ(a.exposure.size(), b.exposure.size());
    for (std::size_t i = 0; i < a.exposure.size(); ++i) {
        EXPECT_EQ(a.exposure[i].total, b.exposure[i].total) << i;
        EXPECT_EQ(a.exposure[i].exposed, b.exposure[i].exposed) << i;
    }
    EXPECT_EQ(a.counters, b.counters);
}

TEST(Engine, FastForwardIsCycleExactOnBfs)
{
    Bfs::Options o;
    o.kind = Bfs::GraphKind::Rmat;
    o.scale = 10;
    o.degree = 8;
    Bfs wl_ff(o);
    Bfs wl_naive(o);

    GpuConfig on = smallGF106();
    on.idleFastForward = IdleFastForward::PerDomain;
    GpuConfig off = smallGF106();
    off.idleFastForward = IdleFastForward::Off;

    const RunCapture ff = runWorkload(wl_ff, on);
    const RunCapture naive = runWorkload(wl_naive, off);

    EXPECT_TRUE(ff.correct);
    EXPECT_TRUE(naive.correct);
    EXPECT_EQ(ff.cycles, naive.cycles);
    EXPECT_EQ(ff.idleCycles, naive.idleCycles);
    expectIdenticalTraces(ff.traces, naive.traces);
    EXPECT_GT(ff.skipped, 0u);
}

// --------------------------------------- pre-refactor golden numbers

// Captured from the seed simulator (hand-orchestrated Gpu::tick(),
// commit c180f0e) with this exact config and workload. The engine
// at default 1:1:1:1 ratios must reproduce them bit-for-bit.

TEST(Engine, SeedRegressionVecAddGF106)
{
    VecAdd::Options o;
    o.n = 1 << 12;
    VecAdd wl(o);
    const RunCapture cap = runWorkload(wl, smallGF106());

    EXPECT_TRUE(cap.correct);
    EXPECT_EQ(cap.cycles, 15490u);
    EXPECT_EQ(cap.instructions, 2432u);
    EXPECT_EQ(cap.traces.size(), 512u);
    EXPECT_EQ(cap.exposure.size(), 256u);
    EXPECT_EQ(cap.idleCycles, 26058u);

    const Breakdown bd = computeBreakdown(cap.traces, 16);
    const std::array<std::uint64_t, kNumStages> expected{
        260804, 4328, 20489, 12288, 18316, 402617, 314406, 21523};
    EXPECT_EQ(bd.totalByStage, expected);
}

TEST(Engine, SeedRegressionBfsGF106)
{
    Bfs::Options o;
    o.kind = Bfs::GraphKind::Rmat;
    o.scale = 10;
    o.degree = 8;
    Bfs wl(o);
    const RunCapture cap = runWorkload(wl, smallGF106());

    EXPECT_TRUE(cap.correct);
    EXPECT_EQ(cap.cycles, 146849u);
    EXPECT_EQ(cap.instructions, 29515u);
    EXPECT_EQ(cap.traces.size(), 11484u);
    EXPECT_EQ(cap.exposure.size(), 4220u);
    EXPECT_EQ(cap.idleCycles, 174744u);

    const Breakdown bd = computeBreakdown(cap.traces, 16);
    const std::array<std::uint64_t, kNumStages> expected{
        729071, 10826, 55102, 33024, 191599, 100083, 306492, 58052};
    EXPECT_EQ(bd.totalByStage, expected);
}

TEST(Engine, SeedRegressionVecAddGK104)
{
    VecAdd::Options o;
    o.n = 1 << 12;
    VecAdd wl(o);
    const RunCapture cap = runWorkload(wl, makeGK104());

    EXPECT_TRUE(cap.correct);
    EXPECT_EQ(cap.cycles, 1982u);
    EXPECT_EQ(cap.instructions, 2432u);
    EXPECT_EQ(cap.traces.size(), 512u);
    EXPECT_EQ(cap.idleCycles, 11251u);

    const Breakdown bd = computeBreakdown(cap.traces, 16);
    const std::array<std::uint64_t, kNumStages> expected{
        22208, 32567, 42568, 26798, 157791, 50632, 104936, 13374};
    EXPECT_EQ(bd.totalByStage, expected);
}

// ------------------------------------- off-vs-perDomain goldens

/** Run one fresh workload instance under a given policy. */
template <typename WorkloadT, typename Options>
RunCapture
runMode(const Options &options, GpuConfig cfg, IdleFastForward mode)
{
    WorkloadT wl(options);
    cfg.idleFastForward = mode;
    return runWorkload(wl, std::move(cfg));
}

TEST(Engine, PerDomainMatchesOffOnVecAdd)
{
    VecAdd::Options o;
    o.n = 1 << 12;
    const RunCapture off = runMode<VecAdd>(o, smallGF106(),
                                           IdleFastForward::Off);
    const RunCapture per = runMode<VecAdd>(
        o, smallGF106(), IdleFastForward::PerDomain);

    expectIdenticalRuns(off, per);
    EXPECT_EQ(off.compSkipped, 0u);
    EXPECT_GT(per.compSkipped, 0u);

    // Fast-forward actually skipped work: fewer loop steps, and
    // steps + skipped add up to the simulated timeline.
    EXPECT_GT(per.skipped, 0u);
    EXPECT_LT(per.steps, off.steps);
    EXPECT_EQ(per.steps + per.skipped, per.endCycle);
    EXPECT_EQ(off.skipped, 0u);
}

TEST(Engine, PerDomainMatchesUnderNonUnityRatios)
{
    // A 1 : 2 : 1 : 1/3 core:icnt:l2:dram machine — double-rate
    // icnt exercises multi-tick cycles, the slow DRAM grid
    // exercises skipped-window alignment on a sparse schedule.
    GpuConfig cfg = smallGF106();
    cfg.icntClock = ClockRatio{2, 1};
    cfg.dramClock = ClockRatio{1, 3};

    Bfs::Options o;
    o.kind = Bfs::GraphKind::Rmat;
    o.scale = 9;
    o.degree = 8;
    const RunCapture off = runMode<Bfs>(o, cfg, IdleFastForward::Off);
    const RunCapture per =
        runMode<Bfs>(o, cfg, IdleFastForward::PerDomain);

    expectIdenticalRuns(off, per);
    EXPECT_GT(per.compSkipped, 0u);
}

TEST(Engine, PerDomainMatchesOffOnPchaseLadder)
{
    // The Table-I style idle-latency ladder: one footprint per
    // cache level. Latency-bound single-warp chases are where
    // per-domain skipping must shine — every level must be
    // cycle-identical to the naive reference while skipping
    // component ticks.
    for (const std::uint64_t footprint :
         {std::uint64_t{16} * 1024, std::uint64_t{256} * 1024,
          std::uint64_t{4} * 1024 * 1024}) {
        std::map<IdleFastForward, Cycle> cycles;
        std::map<IdleFastForward, std::uint64_t> skipped;
        for (const IdleFastForward mode :
             {IdleFastForward::Off, IdleFastForward::PerDomain}) {
            GpuConfig cfg = smallGF106();
            cfg.idleFastForward = mode;
            Gpu gpu(std::move(cfg));
            PChaseConfig pc;
            pc.space = MemSpace::Global;
            pc.footprintBytes = footprint;
            pc.strideBytes = 512;
            pc.timedAccesses = 128;
            const PChaseResult r = runPointerChase(gpu, pc);
            cycles[mode] = r.timedCycles;
            skipped[mode] = gpu.engine().componentTicksSkipped();
        }
        EXPECT_EQ(cycles[IdleFastForward::Off],
                  cycles[IdleFastForward::PerDomain])
            << footprint;
        EXPECT_EQ(skipped[IdleFastForward::Off], 0u) << footprint;
        EXPECT_GT(skipped[IdleFastForward::PerDomain], 0u)
            << footprint;
    }
}

// --------------------------------- intra-sim parallel tick goldens

TEST(Engine, ParallelTickingMatchesSerialOnVecAdd)
{
    VecAdd::Options o;
    o.n = 1 << 12;
    GpuConfig serial_cfg = smallGF106();
    GpuConfig par_cfg = smallGF106();
    par_cfg.engine.tickJobs = 4;

    VecAdd wl_serial(o);
    VecAdd wl_par(o);
    const RunCapture serial = runWorkload(wl_serial, serial_cfg);
    const RunCapture parallel = runWorkload(wl_par, par_cfg);
    expectIdenticalRuns(serial, parallel);
}

TEST(Engine, ParallelTickingMatchesSerialOnGemm)
{
    // The benchmark's SM-parallel loop shape: the tiled gemm loop,
    // proved safe, ticked on two threads.
    Gemm::Options o;
    o.n = 64;
    GpuConfig serial_cfg = smallGF106();
    GpuConfig par_cfg = smallGF106();
    par_cfg.engine.tickJobs = 2;

    Gemm wl_serial(o);
    Gemm wl_par(o);
    const RunCapture serial = runWorkload(wl_serial, serial_cfg);
    const RunCapture parallel = runWorkload(wl_par, par_cfg);
    expectIdenticalRuns(serial, parallel);
    EXPECT_FALSE(serial.traces.empty());
}

TEST(Engine, ParallelTickingMatchesSerialOnBfsNonUnityRatios)
{
    // Worker-parallel partition ticking composed with multi-rate
    // grids and per-domain sleeping — the full stack at once.
    GpuConfig cfg = smallGF106();
    cfg.numPartitions = 4;
    cfg.icntClock = ClockRatio{2, 1};
    cfg.l2Clock = ClockRatio{2, 3};
    cfg.dramClock = ClockRatio{1, 3};

    Bfs::Options o;
    o.kind = Bfs::GraphKind::Rmat;
    o.scale = 9;
    o.degree = 8;

    for (const IdleFastForward mode :
         {IdleFastForward::Off, IdleFastForward::PerDomain}) {
        GpuConfig serial_cfg = cfg;
        serial_cfg.idleFastForward = mode;
        GpuConfig par_cfg = serial_cfg;
        par_cfg.engine.tickJobs = 4;

        Bfs wl_serial(o);
        Bfs wl_par(o);
        const RunCapture serial = runWorkload(wl_serial, serial_cfg);
        const RunCapture parallel = runWorkload(wl_par, par_cfg);
        expectIdenticalRuns(serial, parallel);
    }
}

TEST(Engine, ParallelTickingMatchesOnPchaseLadder)
{
    // The Table-I style idle-latency ladder must be bit-identical
    // under worker-parallel ticking: latency-bound single-warp
    // chases are where a reordered partition tick would shift a
    // measured cycle immediately.
    for (const std::uint64_t footprint :
         {std::uint64_t{16} * 1024, std::uint64_t{4} * 1024 * 1024}) {
        std::map<std::size_t, Cycle> cycles;
        for (const std::size_t jobs : {std::size_t{1}, std::size_t{4}}) {
            GpuConfig cfg = smallGF106();
            cfg.engine.tickJobs = jobs;
            Gpu gpu(std::move(cfg));
            PChaseConfig pc;
            pc.space = MemSpace::Global;
            pc.footprintBytes = footprint;
            pc.strideBytes = 512;
            pc.timedAccesses = 128;
            cycles[jobs] = runPointerChase(gpu, pc).timedCycles;
        }
        EXPECT_EQ(cycles[1], cycles[4]) << footprint;
    }
}

// -------------------------------------------------- non-unity ratios

/**
 * Idle DRAM-resident pointer-chase latency under a config: a single
 * warp chasing dependent pointers cannot hide any latency, so a
 * slower domain on the fetch path must strictly cost cycles (loaded
 * throughput workloads can react non-monotonically — a slower DRAM
 * cadence deepens the queue FR-FCFS reorders over, which can *help*).
 */
Cycle
chaseLatency(GpuConfig cfg)
{
    Gpu gpu(std::move(cfg));
    PChaseConfig pc;
    pc.space = MemSpace::Global;
    pc.footprintBytes = 2 * 1024 * 1024; // >> total L2: DRAM-resident
    pc.strideBytes = 512;
    pc.timedAccesses = 128;
    const PChaseResult r = runPointerChase(gpu, pc);
    return r.timedCycles;
}

TEST(Engine, SlowerDramClockRaisesChaseLatency)
{
    const Cycle base = chaseLatency(smallGF106());
    GpuConfig slow = smallGF106();
    slow.dramClock = ClockRatio{1, 2};
    EXPECT_GT(chaseLatency(slow), base);
}

TEST(Engine, SlowerIcntClockRaisesChaseLatency)
{
    const Cycle base = chaseLatency(smallGF106());
    GpuConfig slow = smallGF106();
    slow.icntClock = ClockRatio{1, 2};
    EXPECT_GT(chaseLatency(slow), base);
}

TEST(Engine, MultiRateIsDeterministic)
{
    auto run = [] {
        GpuConfig cfg = smallGF106();
        cfg.icntClock = ClockRatio{1, 2};
        cfg.l2Clock = ClockRatio{2, 3};
        cfg.dramClock = ClockRatio{1, 3};
        Bfs::Options o;
        o.kind = Bfs::GraphKind::Rmat;
        o.scale = 9;
        Bfs wl(o);
        const RunCapture cap = runWorkload(wl, cfg);
        EXPECT_TRUE(cap.correct);
        return cap.cycles;
    };
    EXPECT_EQ(run(), run());
}

TEST(Engine, MultiRateFastForwardStaysCycleExact)
{
    Bfs::Options o;
    o.kind = Bfs::GraphKind::Rmat;
    o.scale = 9;

    // Fractional ratios (mul > 1 and div > 1) exercise the
    // irregular tick grids where naive event alignment once
    // overshot scheduled ticks.
    GpuConfig on = smallGF106();
    on.icntClock = ClockRatio{1, 2};
    on.l2Clock = ClockRatio{2, 3};
    on.dramClock = ClockRatio{3, 7};
    GpuConfig off = on;
    off.idleFastForward = IdleFastForward::Off;

    Bfs wl_ff(o);
    Bfs wl_naive(o);
    const RunCapture ff = runWorkload(wl_ff, on);
    const RunCapture naive = runWorkload(wl_naive, off);

    EXPECT_TRUE(ff.correct);
    EXPECT_EQ(ff.cycles, naive.cycles);
    expectIdenticalTraces(ff.traces, naive.traces);
    EXPECT_GT(ff.skipped, 0u);
}

TEST(Engine, RejectsDegenerateRatios)
{
    // Every domain knob, both degenerate shapes: the icnt ratio in
    // particular is consumed in the Gpu member-initializer list, so
    // validation must fire before any arithmetic touches it.
    for (auto knob : {&GpuConfig::icntClock, &GpuConfig::l2Clock,
                      &GpuConfig::dramClock}) {
        for (const ClockRatio bad :
             {ClockRatio{0, 1}, ClockRatio{1, 0}, ClockRatio{1, 65},
              ClockRatio{65, 1}}) {
            GpuConfig cfg = smallGF106();
            cfg.*knob = bad;
            EXPECT_THROW(Gpu{cfg}, FatalError)
                << bad.mul << ":" << bad.div;
        }
    }
}

} // namespace
} // namespace gpulat
