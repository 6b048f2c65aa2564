#include "engine/tick_engine.hh"

#include <algorithm>
#include <atomic>
#include <condition_variable>
#include <mutex>
#include <thread>

#include "common/log.hh"

namespace gpulat {

namespace {

/** Scheduled ticks of @p ratio landing in the window [from, to). */
Cycle
ticksIn(Cycle from, Cycle to, ClockRatio ratio)
{
    GPULAT_ASSERT(to > from, "empty tick window");
    const Cycle upto = ClockDomain::ticksThrough(to - 1, ratio);
    if (from == 0)
        return upto;
    return upto - ClockDomain::ticksThrough(from - 1, ratio);
}

} // namespace

/**
 * Persistent spinning worker pool for intra-cycle batch dispatch.
 *
 * Barrier-free by design: publishing a section is one release
 * store of a fresh (epoch, index=0) cursor word, workers claim
 * batch indices by CAS on that same word, and completion is an
 * atomic counter the coordinator spins on — no mutex or condition
 * variable is ever touched on the per-cycle path, which is what
 * keeps dispatch cost in the nanosecond range across millions of
 * simulated cycles.
 *
 * The epoch lives in the cursor's upper bits so every claim
 * atomically validates "this index belongs to the section I
 * joined": a straggler worker that wakes up late can never consume
 * (or double-run) a slot of a newer section — its CAS fails the
 * moment the epoch bits moved on. The coordinator participates in
 * its own sections, so on an oversubscribed or single-core host
 * the simulation still makes full progress even if the workers are
 * never scheduled; idle workers yield between epochs rather than
 * burning their whole quantum.
 */
class TickEngine::WorkerPool
{
  public:
    WorkerPool(TickEngine &owner, std::size_t workers)
        : owner_(owner)
    {
        threads_.reserve(workers);
        for (std::size_t w = 0; w < workers; ++w)
            threads_.emplace_back([this] { workerLoop(); });
    }

    ~WorkerPool()
    {
        stop_.store(true, std::memory_order_release);
        {
            // Lock-then-notify: a worker is either before its
            // predicate check (sees stop_) or inside wait().
            std::lock_guard<std::mutex> lock(parkMu_);
        }
        parkCv_.notify_all();
        for (std::thread &t : threads_)
            t.join();
    }

    /** Execute owner_.runBatch(0 .. count-1); returns when all are
     *  done. Caller (the coordinator) participates. */
    void
    run(std::size_t count)
    {
        GPULAT_ASSERT(count < (std::uint64_t{1} << kIdxBits),
                      "section batch count exceeds cursor width");
        // Close the cursor under its own epoch *before* staging
        // the new section: a straggler still holding the previous
        // section's exhausted cursor word must see its CAS target
        // vanish before count_ can grow, or it could claim a
        // phantom batch in the staging window (index = old count,
        // which the new, larger count would declare valid). The
        // closed word's index is kIdxMask, which no count can
        // exceed, so it admits no claims under either count value.
        const std::uint64_t closed = ++epochSeq_;
        cursor_.store(closed << kIdxBits | kIdxMask,
                      std::memory_order_release);
        // Release on count_, acquire at its load: a straggler that
        // observes the new count is thereby guaranteed to also see
        // the close above — a relaxed store could sink past the
        // close on weakly-ordered hardware, reviving the phantom
        // claim against the old cursor word.
        count_.store(count, std::memory_order_release);
        done_.store(0, std::memory_order_relaxed);
        // The open store publishes the epoch, the reset index, and
        // (transitively) count_ plus all section data written
        // above: claimers acquire the cursor first. A distinct
        // epoch from `closed`, so a worker that probed the closed
        // word still wakes for the open one.
        const std::uint64_t epoch = ++epochSeq_;
        cursor_.store(epoch << kIdxBits, std::memory_order_release);
        if (parked_.load(std::memory_order_acquire) > 0) {
            {
                std::lock_guard<std::mutex> lock(parkMu_);
            }
            parkCv_.notify_all();
        }
        drain(epoch);
        while (done_.load(std::memory_order_acquire) < count)
            std::this_thread::yield();
    }

    std::size_t workers() const { return threads_.size(); }

  private:
    /** Claim and run batches of section @p epoch until it is
     *  exhausted or a newer section replaces it. Claims are guided
     *  self-scheduling: each CAS takes a chunk proportional to the
     *  remaining batches over the thread count, so sections with
     *  many small batches (one per SM group) cost O(threads) CAS
     *  round-trips instead of one per batch, while the final
     *  chunks shrink to single batches and an uneven tail can
     *  still be stolen one group at a time. */
    void
    drain(std::uint64_t epoch)
    {
        const std::size_t threads = threads_.size() + 1;
        std::uint64_t cur = cursor_.load(std::memory_order_acquire);
        while (true) {
            if ((cur >> kIdxBits) != epoch)
                return; // a newer section owns the cursor
            const std::size_t idx =
                static_cast<std::size_t>(cur & kIdxMask);
            // A matching-epoch cursor acquire makes this epoch's
            // count visible. A stale worker may pair an old epoch
            // with a newer count, but run() closes the cursor
            // (fresh epoch, index = kIdxMask) before publishing
            // that count (release/acquire on count_ keeps the
            // order on weak hardware), so the stale CAS target no
            // longer exists and the worst case is one wasted loop.
            const std::size_t count =
                count_.load(std::memory_order_acquire);
            if (idx >= count)
                return; // exhausted
            const std::size_t take =
                std::max<std::size_t>(1,
                                      (count - idx) / (2 * threads));
            if (cursor_.compare_exchange_weak(
                    cur, cur + take, std::memory_order_acq_rel,
                    std::memory_order_acquire)) {
                for (std::size_t b = 0; b < take; ++b)
                    owner_.runBatch(idx + b);
                done_.fetch_add(take, std::memory_order_release);
                cur = cursor_.load(std::memory_order_acquire);
            }
            // CAS failure reloaded cur: revalidate epoch + index.
        }
    }

    void
    workerLoop()
    {
        std::uint64_t seen = 0;
        unsigned idle_polls = 0;
        while (true) {
            const std::uint64_t epoch =
                cursor_.load(std::memory_order_acquire) >> kIdxBits;
            if (epoch == seen) {
                if (stop_.load(std::memory_order_acquire))
                    return;
                // Spin-yield while sections are streaming (they
                // arrive every active cycle, far apart only during
                // fast-forward jumps and serial phases), then park
                // — a standing spin would tax every core of the
                // host for the whole life of the simulation.
                if (++idle_polls < kPollsBeforePark) {
                    std::this_thread::yield();
                    continue;
                }
                std::unique_lock<std::mutex> lock(parkMu_);
                parked_.fetch_add(1, std::memory_order_acq_rel);
                parkCv_.wait(lock, [&] {
                    return (cursor_.load(std::memory_order_acquire)
                            >> kIdxBits) != seen ||
                        stop_.load(std::memory_order_acquire);
                });
                parked_.fetch_sub(1, std::memory_order_acq_rel);
                idle_polls = 0;
                continue;
            }
            seen = epoch;
            idle_polls = 0;
            drain(epoch);
        }
    }

    /** 2^20 batches per section is far beyond any group count;
     *  44 epoch bits outlast any simulation. */
    static constexpr unsigned kIdxBits = 20;
    static constexpr std::uint64_t kIdxMask =
        (std::uint64_t{1} << kIdxBits) - 1;
    /** Idle polls before a worker parks on the condvar. */
    static constexpr unsigned kPollsBeforePark = 256;

    TickEngine &owner_;
    std::vector<std::thread> threads_;
    std::atomic<bool> stop_{false};
    std::mutex parkMu_;
    std::condition_variable parkCv_;
    std::atomic<unsigned> parked_{0};
    /** (epoch << kIdxBits) | next unclaimed batch index. */
    std::atomic<std::uint64_t> cursor_{0};
    std::atomic<std::size_t> done_{0};
    std::uint64_t epochSeq_ = 0; ///< coordinator-only
    /** Batches in the current section; written before the epoch
     *  publish, atomic because stale-epoch workers may still probe
     *  it while the next section is being staged. */
    std::atomic<std::size_t> count_{0};
};

TickEngine::TickEngine()
{
    groups_.push_back(TickGroup{"main", 0, nullptr});
}

TickEngine::~TickEngine() = default;

ClockDomain &
TickEngine::addDomain(std::string name, ClockRatio ratio)
{
    domains_.push_back(
        std::make_unique<ClockDomain>(std::move(name), ratio));
    due_.push_back(0);
    return *domains_.back();
}

ClockDomain *
TickEngine::findDomain(const std::string &name)
{
    for (const auto &domain : domains_) {
        if (domain->name() == name)
            return domain.get();
    }
    return nullptr;
}

unsigned
TickEngine::addGroup(std::string name)
{
    groups_.push_back(TickGroup{std::move(name), 0, nullptr});
    scheduleDirty_ = true;
    return static_cast<unsigned>(groups_.size() - 1);
}

void
TickEngine::add(ClockDomain &domain, Clocked &component,
                unsigned group)
{
    std::size_t idx = domains_.size();
    for (std::size_t d = 0; d < domains_.size(); ++d)
        if (domains_[d].get() == &domain)
            idx = d;
    GPULAT_ASSERT(idx < domains_.size(),
                  "domain not owned by this engine");
    GPULAT_ASSERT(group < groups_.size(),
                  "tick group not created via addGroup()");
    for (const auto &reg : order_)
        GPULAT_ASSERT(reg.component != &component,
                      "component registered twice");
    Registration reg;
    reg.domain = &domain;
    reg.domainIdx = idx;
    reg.component = &component;
    reg.group = group;
    reg.effGroup = group;
    order_.push_back(std::move(reg));
    scheduleDirty_ = true;
}

std::size_t
TickEngine::indexOf(const Clocked &component) const
{
    for (std::size_t i = 0; i < order_.size(); ++i)
        if (order_[i].component == &component)
            return i;
    GPULAT_ASSERT(false, "component not registered");
    return order_.size();
}

void
TickEngine::link(Clocked &producer, Clocked &consumer)
{
    const std::size_t src = indexOf(producer);
    const std::size_t dst = indexOf(consumer);
    auto &edges = order_[src].consumers;
    if (std::find(edges.begin(), edges.end(), dst) == edges.end())
        edges.push_back(dst);
    scheduleDirty_ = true;
}

void
TickEngine::setTickJobs(std::size_t jobs)
{
    tickJobs_ = resolveTickJobs(jobs);
    scheduleDirty_ = true;
}

void
TickEngine::setSerialized(Clocked &component, bool serialized)
{
    Registration &reg = order_[indexOf(component)];
    if (reg.forceSerial == serialized)
        return;
    reg.forceSerial = serialized;
    scheduleDirty_ = true;
}

std::size_t
TickEngine::resolveTickJobs(std::size_t jobs)
{
    if (jobs != 0)
        return jobs;
    const unsigned hw = std::thread::hardware_concurrency();
    return hw ? hw : 1;
}

void
TickEngine::finalizeSchedule()
{
    scheduleDirty_ = false;

    // A wake edge between two *different* non-coordinator groups
    // means those components interact within a cycle, so ticking
    // their groups concurrently could reorder a delivery against a
    // tick — demote both endpoints to the coordinator, where the
    // registration-order walk serializes them exactly like the
    // tickJobs == 1 path. Demotion is computed from the declared
    // groups in one pass: a demoted component keeps acting as a
    // barrier for every batch around it, which is always safe.
    for (auto &reg : order_)
        reg.effGroup = reg.forceSerial ? 0 : reg.group;
    for (std::size_t i = 0; i < order_.size(); ++i) {
        for (const std::size_t c : order_[i].consumers) {
            if (order_[i].group != order_[c].group &&
                order_[i].group != 0 && order_[c].group != 0) {
                order_[i].effGroup = 0;
                order_[c].effGroup = 0;
            }
        }
    }

    // Parallel stepping pays off only when at least two distinct
    // groups can actually be in flight together.
    std::vector<bool> seen(groups_.size(), false);
    std::size_t runnable = 0;
    for (const auto &reg : order_) {
        if (reg.effGroup != 0 && !seen[reg.effGroup]) {
            seen[reg.effGroup] = true;
            ++runnable;
        }
    }
    parallelActive_ = tickJobs_ > 1 && runnable >= 2;

    if (!parallelActive_) {
        pool_.reset();
        return;
    }

    groupPending_.resize(groups_.size());
    sectionErrors_.reserve(runnable);

    // Workers beyond (groups - 1) could never find a batch: the
    // coordinator always takes one itself.
    const std::size_t workers =
        std::min(tickJobs_, runnable) - 1;
    if (!pool_ || pool_->workers() != workers)
        pool_ = std::make_unique<WorkerPool>(*this, workers);
}

void
TickEngine::bindStats(StatRegistry &stats)
{
    for (auto &domain : domains_)
        domain->bindStats(stats);
    for (auto &group : groups_) {
        group.counter = &stats.counter(
            "engine.group." + group.name + ".ticks_run");
    }
}

void
TickEngine::account(Registration &reg, Cycle to)
{
    if (reg.accountedThrough >= to)
        return;
    const Cycle from = reg.accountedThrough;
    reg.accountedThrough = to;
    reg.component->fastForward(from, to);
    reg.domain->noteSkipped(ticksIn(from, to, reg.domain->ratio()));
}

bool
TickEngine::bookkeepTick(Registration &reg, unsigned n,
                         bool selective)
{
    if (selective && reg.cacheValid && reg.cachedEvent > now_) {
        // Promised dead through every scheduled tick before
        // cachedEvent: sleep, account the window lazily.
        return false;
    }
    // Close idle windows before anything observes per-cycle
    // statistics: the component's own (idle-cumulative reads
    // during its tick), then every consumer's — this tick may
    // deliver into them, and delivery paths read the consumer's
    // counters (e.g. load-exposure accounting).
    account(reg, now_);
    if (selective) {
        for (const std::size_t c : reg.consumers)
            account(order_[c], now_);
    }
    reg.accountedThrough = now_ + 1;
    reg.domain->noteRun(n);
    noteGroupTicks(reg.group, n);
    reg.refreshDue = true;
    if (selective) {
        // The tick may deliver input: a consumer later in the
        // order must run its scheduled tick this very cycle (naive
        // ticking would have), so its stale promise is discarded;
        // consumers whose slot already passed are simply
        // re-queried after the cycle.
        for (const std::size_t c : reg.consumers) {
            order_[c].cacheValid = false;
            order_[c].refreshDue = true;
        }
    }
    return true;
}

void
TickEngine::stepSerial(bool selective)
{
    for (auto &reg : order_) {
        const unsigned n = due_[reg.domainIdx];
        if (n == 0)
            continue;
        if (!bookkeepTick(reg, n, selective))
            continue;
        for (unsigned i = 0; i < n; ++i)
            reg.component->tick(now_);
    }
}

void
TickEngine::runBatch(std::size_t batch)
{
    const Batch &b = sectionBatches_[batch];
    try {
        for (std::size_t s = b.begin; s < b.end; ++s) {
            Registration &reg = order_[sectionRegs_[s]];
            const unsigned n = due_[reg.domainIdx];
            for (unsigned i = 0; i < n; ++i)
                reg.component->tick(now_);
        }
    } catch (...) {
        // Deterministic propagation: the coordinator rethrows the
        // lowest-indexed batch's failure after the join.
        sectionErrors_[batch] = std::current_exception();
    }
}

void
TickEngine::flushSection()
{
    if (pendingGroups_.empty())
        return;

    sectionRegs_.clear();
    sectionBatches_.clear();
    for (const unsigned g : pendingGroups_) {
        auto &pending = groupPending_[g];
        const std::size_t begin = sectionRegs_.size();
        sectionRegs_.insert(sectionRegs_.end(), pending.begin(),
                            pending.end());
        sectionBatches_.push_back(Batch{begin, sectionRegs_.size()});
        pending.clear();
    }
    pendingGroups_.clear();

    sectionErrors_.assign(sectionBatches_.size(), nullptr);
    if (sectionBatches_.size() == 1) {
        // One group: nothing to overlap, skip the dispatch (this
        // is the common shape for the SM group's slice of a cycle).
        runBatch(0);
    } else {
        pool_->run(sectionBatches_.size());
    }
    for (const std::exception_ptr &err : sectionErrors_) {
        if (err)
            std::rethrow_exception(err);
    }
    sectionErrors_.clear();
}

void
TickEngine::stepParallel(bool selective)
{
    // The coordinator walks the identical registration order with
    // the identical bookkeepTick() the serial path uses — sleep
    // checks, idle-window accounting, promise invalidation, run
    // counters all happen here, serially, in order (decisions
    // depend only on engine-side flags, never on tick side
    // effects). Only the ticks themselves differ: bookkeeping runs
    // before a component's ticks in both paths, and consumer
    // windows are closed before any producer's tick can deliver
    // into them, so deferring a batch's ticks to the section flush
    // leaves every account-before-tick ordering intact.
    //
    // Coordinator-group components tick inline, flushing the
    // accumulated parallel batches first, so every cross-group
    // interaction (which by construction passes through a
    // coordinator component or a demoted endpoint) sees its
    // operands in registration order.
    for (std::size_t i = 0; i < order_.size(); ++i) {
        Registration &reg = order_[i];
        const unsigned n = due_[reg.domainIdx];
        if (n == 0)
            continue;
        if (!bookkeepTick(reg, n, selective))
            continue;

        if (reg.effGroup == 0) {
            flushSection();
            for (unsigned t = 0; t < n; ++t)
                reg.component->tick(now_);
        } else {
            if (groupPending_[reg.effGroup].empty())
                pendingGroups_.push_back(reg.effGroup);
            groupPending_[reg.effGroup].push_back(i);
        }
    }
    flushSection();
}

void
TickEngine::step()
{
    if (scheduleDirty_)
        finalizeSchedule();

    for (std::size_t d = 0; d < domains_.size(); ++d)
        due_[d] = domains_[d]->dueTicks(now_);

    const bool selective = mode_ == IdleFastForward::PerDomain;
    if (parallelActive_)
        stepParallel(selective);
    else
        stepSerial(selective);

    for (std::size_t d = 0; d < domains_.size(); ++d)
        domains_[d]->retire(due_[d]);

    ++now_;
    ++steps_;

    // Refresh the promise of everything that ticked or was
    // delivered into, exactly once, after the whole cycle — the
    // O(changed components) path. Promises reflect all deliveries
    // at query time (see Clocked), so a quiet consumer re-queried
    // after a producer's no-op tick keeps its old event and stays
    // asleep: wake waves die out instead of cascading. Off never
    // consults promises, so it keeps no cache.
    if (selective) {
        for (auto &reg : order_) {
            if (!reg.refreshDue)
                continue;
            reg.refreshDue = false;
            reg.cachedEvent = reg.component->nextEventAt(now_);
            reg.cacheValid = true;
        }
    }
}

Cycle
TickEngine::fastForward()
{
    if (mode_ == IdleFastForward::Off)
        return 0;

    Cycle target = kNoCycle;
    for (const auto &reg : order_) {
        // Trust the event cache (wake edges keep it honest); a
        // component without a fresh post-tick promise is assumed
        // active at its next scheduled tick.
        Cycle event = reg.cacheValid ? reg.cachedEvent : now_;
        if (event == kNoCycle)
            continue;
        event = std::max(event, now_);
        // nextTickAtOrAfter() saturates to kNoCycle instead of
        // wrapping, so a promise near 2^64 on a slow grid reads as
        // "never" rather than time-travelling the engine.
        target = std::min(target,
                          reg.domain->nextTickAtOrAfter(event));
        if (target <= now_)
            return 0; // something is due right now
    }
    // Every component drained (all promises kNoCycle), or nothing
    // strictly ahead: no jump. The drained case matters — there is
    // no event to aim at, so attempting arithmetic on kNoCycle
    // would overflow the grid math.
    if (target == kNoCycle || target <= now_)
        return 0;

    for (auto &reg : order_)
        account(reg, target);
    for (const auto &domain : domains_)
        domain->skipTo(target);

    const Cycle skipped = target - now_;
    now_ = target;
    skippedCycles_ += skipped;
    ++ffWindows_;
    return skipped;
}

void
TickEngine::wakeAll()
{
    for (auto &reg : order_) {
        reg.cacheValid = false;
        reg.refreshDue = false;
    }
}

void
TickEngine::settle()
{
    for (auto &reg : order_)
        account(reg, now_);
}

std::uint64_t
TickEngine::componentTicksSkipped() const
{
    std::uint64_t sum = 0;
    for (const auto &domain : domains_)
        sum += domain->componentTicksSkipped();
    return sum;
}

} // namespace gpulat
