/**
 * @file
 * The tick engine: owns the clock domains and advances every
 * registered component in deterministic ratio-correct order, as an
 * event-scheduled stepper — each component carries a cached
 * next-event promise, and the engine only performs the ticks that
 * might do work, advancing each clock domain independently to its
 * earliest pending event.
 *
 * Ordering rules (what makes multi-rate simulation reproducible):
 *  - within one core cycle, components tick in registration order,
 *    regardless of domain — so at unity ratios the engine replays
 *    exactly the hand-written orchestration it replaced;
 *  - a faster-than-core domain owes several ticks on some core
 *    cycles; a component runs all its due ticks consecutively at
 *    its position in the registration order;
 *  - a slower-than-core domain is simply skipped on the core
 *    cycles it is not scheduled on.
 *
 * Event cache: after a component ticks, its nextEventAt() promise
 * is queried exactly once and cached. The cache is discarded when
 * the component ticks again or when one of its declared producers
 * (link()) ticks — a producer's tick may deliver input, and a
 * promise is only required to be valid right after the component's
 * own tick. A component whose cache says "nothing before cycle E"
 * is not ticked before E; its scheduled-but-dead ticks are
 * accounted lazily through fastForward() windows, which keeps
 * per-cycle statistics bit-identical to naive ticking. The no-skip
 * path is O(components that changed): a sleeping component's
 * promise is never re-consulted without an intervening tick.
 *
 * Modes (IdleFastForward):
 *  - Off: tick everything, never consult promises (naive reference);
 *  - PerDomain (default): let individual components sleep through
 *    cycles the engine visits for some other domain's event, so a
 *    long DRAM bank wait no longer drags the core/icnt/L2
 *    components through per-cycle no-op ticks (and core drain
 *    tails no longer tick DRAM refresh state cycle by cycle), and
 *    jump windows where every component sleeps.
 *
 * Tick groups (intra-simulation parallelism): every component is
 * assigned to a tick group at add() time; group 0 is the
 * *coordinator* group. With setTickJobs(N > 1), the due components
 * of *different* non-coordinator groups tick concurrently on a
 * small persistent worker pool, while coordinator-group components
 * tick inline at their position in the registration order and act
 * as ordering barriers for the parallel batches around them.
 *
 * What keeps this bit-identical to serial ticking:
 *  - assigning two components to different non-coordinator groups
 *    is the wiring code's *assertion* that their tick() functions
 *    touch disjoint state (each memory partition only mutates its
 *    own queues, banks and pre-resolved counters; each SM core
 *    appends to its own collector shards and request-id pool) —
 *    components that do share ordered mutable state must share one
 *    group, which keeps them in registration order on a single
 *    worker, and a group can be forced onto the coordinator per
 *    launch via setSerialized() when the safety of concurrent
 *    ticking depends on the running kernel;
 *  - a wake edge (link()) between two different non-coordinator
 *    groups contradicts that assertion, so both endpoints are
 *    demoted to the coordinator and tick in registration order on
 *    the coordinating thread;
 *  - all engine bookkeeping (idle-window accounting, skip
 *    counters, promise-cache invalidation) is replayed by the
 *    coordinator in exact registration order *before* the batch is
 *    dispatched, so workers only call tick() — the one operation
 *    that commutes across groups by the disjointness assertion;
 *  - per-cycle dispatch is barrier-free work stealing: workers
 *    claim batches from a shared atomic epoch-tagged cursor (no
 *    mutex/condvar on the active-cycle path; they park on a
 *    condvar after an idle-spin threshold so serial and
 *    fast-forward phases don't tax the host), claims are guided —
 *    a thread grabs a shrinking chunk of the remaining batches per
 *    CAS, so many small per-SM batches don't degrade into one CAS
 *    per batch while uneven tails still split one batch at a time
 *    — the coordinator steals from the same cursor, and completion
 *    is a plain atomic counter: on an oversubscribed host the
 *    coordinator simply ends up ticking every batch itself.
 */

#ifndef GPULAT_ENGINE_TICK_ENGINE_HH
#define GPULAT_ENGINE_TICK_ENGINE_HH

#include <cstddef>
#include <memory>
#include <string>
#include <vector>

#include "common/stats.hh"
#include "engine/clock_domain.hh"
#include "engine/clocked.hh"

namespace gpulat {

class TickEngine
{
  public:
    TickEngine();
    ~TickEngine();

    /** Create a domain; the engine owns it. */
    ClockDomain &addDomain(std::string name, ClockRatio ratio);

    /**
     * Create a tick group for add(). Group 0 ("main") pre-exists
     * and is the coordinator group. Assigning components to a
     * shared non-zero group asserts they may tick concurrently
     * with every *other* non-zero group (disjoint mutable state);
     * within one group registration order is always preserved.
     */
    unsigned addGroup(std::string name);

    /**
     * Register @p component in @p domain, assigned to tick group
     * @p group (default: coordinator). Components tick in
     * registration order within a core cycle; a component may be
     * registered only once.
     */
    void add(ClockDomain &domain, Clocked &component,
             unsigned group = 0);

    /**
     * Declare a wake edge: a performed tick of @p producer may
     * deliver input to @p consumer (push a packet, dispatch a
     * block), invalidating the consumer's cached promise. Both
     * must already be add()ed. PerDomain mode is only cycle-exact
     * when every delivery path is declared; Off ignores edges.
     * An edge between two different non-zero tick groups demotes
     * both endpoints to the coordinator group (they interact, so
     * they must not tick concurrently).
     */
    void link(Clocked &producer, Clocked &consumer);

    /**
     * Force @p component to tick on the coordinator thread (in
     * registration order) regardless of its declared group, or lift
     * that force again. The wiring layer uses this as a per-launch
     * safety valve: SM cores live in per-SM groups, but a kernel
     * whose ticks touch cross-SM shared state (atomics, data-
     * dependent stores) must serialize. Tick *counting* stays with
     * the declared group, so `engine.group.*.ticks_run` counters
     * are identical for every tickJobs value and every verdict.
     */
    void setSerialized(Clocked &component, bool serialized);

    /** Select the fast-forward policy (default PerDomain). */
    void setMode(IdleFastForward mode) { mode_ = mode; }
    IdleFastForward mode() const { return mode_; }

    /**
     * Worker threads ticking non-coordinator groups inside step():
     * 1 (default) is the serial path, 0 resolves to the hardware
     * concurrency. Purely an execution knob — cycles, traces and
     * counters are bit-identical for every value.
     */
    void setTickJobs(std::size_t jobs);
    std::size_t tickJobs() const { return tickJobs_; }

    /**
     * Map a tick-jobs request to a worker count: 0 becomes the
     * hardware concurrency, clamped to >= 1 —
     * std::thread::hardware_concurrency() may legitimately return
     * 0 ("unknown"), which must mean serial, never zero workers.
     */
    static std::size_t resolveTickJobs(std::size_t jobs);

    /** Mirror per-domain and per-group tick counters into @p stats. */
    void bindStats(StatRegistry &stats);

    /** Current core cycle. */
    Cycle now() const { return now_; }

    /**
     * Tick every due component that might do work at now(), then
     * advance one cycle. In PerDomain mode a component whose cached
     * promise says it is dead at now() is skipped (and accounted
     * lazily); Off ticks everything due.
     */
    void step();

    /**
     * Jump to the earliest upcoming event over all components
     * (each aligned to its domain's tick grid). In Off mode, or
     * when every component is fully drained (all promises
     * kNoCycle), this is a no-op.
     * @return cycles skipped (0 when anything is due right now).
     */
    Cycle fastForward();

    /**
     * Discard every cached promise. Call after mutating component
     * state from outside the engine (arming a dispatcher, loading
     * warps, resetting DRAM): cached promises cannot see external
     * writes.
     */
    void wakeAll();

    /**
     * Flush lazy idle accounting: every component's fastForward()
     * windows are closed through now(). Call before reading
     * per-cycle statistics (end of a launch, stall reports).
     */
    void settle();

    /** @name Fast-forward effectiveness (for benches/reports) @{ */
    Cycle skippedCycles() const { return skippedCycles_; }
    std::uint64_t fastForwardWindows() const { return ffWindows_; }
    std::uint64_t steps() const { return steps_; }
    /** Component ticks skipped, summed over all domains. */
    std::uint64_t componentTicksSkipped() const;
    /** @} */

    /** @name Tick-group introspection (for benches/reports) @{ */
    std::size_t numGroups() const { return groups_.size(); }
    const std::string &groupName(unsigned g) const
    {
        return groups_[g].name;
    }
    /** Performed component ticks of group @p g (identical for
     *  every tickJobs value; mirrored into stats as
     *  `engine.group.<name>.ticks_run`). */
    std::uint64_t groupTicksRun(unsigned g) const
    {
        return groups_[g].ticksRun;
    }
    /** @} */

    const std::vector<std::unique_ptr<ClockDomain>> &domains() const
    {
        return domains_;
    }

    /**
     * Domain by name, for registering components after the initial
     * wiring (the serving layer adds its LaunchQueueScheduler to an
     * already-constructed Gpu's "core" domain); nullptr if unknown.
     * add() stays legal at any time — the schedule is refinalized
     * lazily on the next step().
     */
    ClockDomain *findDomain(const std::string &name);

  private:
    struct Registration
    {
        ClockDomain *domain;
        std::size_t domainIdx;
        Clocked *component;
        /** Declared tick group (counting, reports). */
        unsigned group = 0;
        /** Scheduling group after edge demotion (0 = coordinator). */
        unsigned effGroup = 0;
        /** setSerialized(): tick on the coordinator regardless of
         *  the declared group (per-launch safety fallback). */
        bool forceSerial = false;

        /** Raw promise from the last post-tick query (kNoCycle =
         *  fully drained); meaningless while !cacheValid. */
        Cycle cachedEvent = 0;
        bool cacheValid = false;
        /** Scheduled ticks before this core cycle have all been
         *  performed or fastForward()-accounted. */
        Cycle accountedThrough = 0;
        /** Ticked or delivered into during the current step():
         *  promise re-query due after the cycle completes. */
        bool refreshDue = false;
        /** Registration indices this component can deliver into. */
        std::vector<std::size_t> consumers;
    };

    struct TickGroup
    {
        std::string name;
        std::uint64_t ticksRun = 0;
        Counter *counter = nullptr;
    };

    class WorkerPool;

    /** One contiguous slice of sectionRegs_ = one group's due
     *  components of the current parallel section. */
    struct Batch
    {
        std::size_t begin;
        std::size_t end;
    };

    std::size_t indexOf(const Clocked &component) const;

    /** Close the lazy idle window [accountedThrough, to). */
    void account(Registration &reg, Cycle to);

    /**
     * The per-component bookkeeping slice of one step() walk,
     * shared verbatim by the serial and parallel paths so their
     * bit-identity is structural rather than copy-discipline:
     * sleep decision from the cached promise, idle-window
     * accounting for the component and (selective) its consumers,
     * run/group counters, and promise-cache invalidation.
     * @return false when the component sleeps this cycle; the
     * caller performs (or defers) the @p n ticks themselves.
     */
    bool bookkeepTick(Registration &reg, unsigned n,
                      bool selective);

    /** Serial walk body of step() (the tickJobs == 1 path). */
    void stepSerial(bool selective);
    /** Coordinator walk + worker dispatch (tickJobs > 1 path). */
    void stepParallel(bool selective);
    /** Run one section batch (worker or coordinator thread). */
    void runBatch(std::size_t batch);
    /** Dispatch the pending section's batches and join. */
    void flushSection();

    /** Apply edge demotion, decide parallel eligibility, size the
     *  pool. Re-run lazily after add()/link()/setTickJobs(). */
    void finalizeSchedule();

    void
    noteGroupTicks(unsigned group, std::uint64_t n)
    {
        auto &g = groups_[group];
        g.ticksRun += n;
        if (g.counter)
            g.counter->inc(n);
    }

    std::vector<std::unique_ptr<ClockDomain>> domains_;
    std::vector<Registration> order_;
    std::vector<unsigned> due_; ///< per-domain scratch for step()
    std::vector<TickGroup> groups_;

    IdleFastForward mode_ = IdleFastForward::PerDomain;

    std::size_t tickJobs_ = 1;
    /** True once finalizeSchedule() found >= 2 distinct runnable
     *  non-coordinator groups and tickJobs_ > 1. */
    bool parallelActive_ = false;
    bool scheduleDirty_ = true;
    std::unique_ptr<WorkerPool> pool_;

    /** @name stepParallel() scratch (capacity reused per cycle) @{ */
    std::vector<std::vector<std::size_t>> groupPending_;
    std::vector<unsigned> pendingGroups_;
    std::vector<std::size_t> sectionRegs_;
    std::vector<Batch> sectionBatches_;
    std::vector<std::exception_ptr> sectionErrors_;
    /** @} */

    Cycle now_ = 0;
    Cycle skippedCycles_ = 0;
    std::uint64_t ffWindows_ = 0;
    std::uint64_t steps_ = 0;
};

} // namespace gpulat

#endif // GPULAT_ENGINE_TICK_ENGINE_HH
