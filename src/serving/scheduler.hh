/**
 * @file
 * Launch-queue scheduling for the multi-tenant serving layer.
 *
 * The policy core is a pure function, pickNextLaunch(), over a
 * snapshot of the queue and per-tenant scheduling state, so every
 * policy is unit-testable on a toy queue without a Gpu. The
 * LaunchQueueScheduler wraps it as a Clocked component on the
 * TickEngine's core domain: each tick it (1) reaps completed
 * launches, (2) collects due arrivals from the per-tenant
 * ArrivalStreams and (3) admits queued launches through
 * Gpu::beginLaunch() while capacity lasts — static MPS-style SM
 * shares or dynamic best-effort SM allocation, per
 * GpuConfig::serving. The Gpu's BlockDispatcher hands out the
 * admitted launches' blocks. Every decision is a pure function of
 * simulated time and device state, so serving runs are
 * byte-identical across `--jobs` and `--tick-jobs`.
 *
 * Policies (the `serving.policy` override key):
 *  - fifo:       strict arrival order; head-of-line blocking.
 *  - rr:         round-robin over tenants; work-conserving (a
 *                tenant with nothing admissible is skipped), the
 *                cursor advances past a tenant only when it admits.
 *  - sjf-est:    smallest estimated cost first, over all queued
 *                launches (may reorder within a tenant).
 *  - fair-share: least attained weighted service first
 *                (attained SM-cycles / weight); starvation-free
 *                because service monotonically raises the served
 *                tenant's key above the starved one's.
 */

#ifndef GPULAT_SERVING_SCHEDULER_HH
#define GPULAT_SERVING_SCHEDULER_HH

#include <cstdint>
#include <vector>

#include "engine/clocked.hh"
#include "gpu/gpu.hh"
#include "serving/arrival.hh"
#include "serving/metrics.hh"

namespace gpulat {

/** pickNextLaunch(): nothing admissible. */
inline constexpr std::size_t kNoPick = static_cast<std::size_t>(-1);

/** One queued (arrived, not yet admitted) launch. */
struct QueuedLaunch
{
    unsigned tenant = 0;
    /** Global arrival sequence number (unique, monotonic). */
    std::uint64_t seq = 0;
    Cycle arrival = 0;
    /** Policy-visible cost estimate (sjf-est). */
    double estCost = 0.0;
    /** Enough free SMs (or a free static share) right now? */
    bool admissible = false;
    /** Index into the tenant's launch-shape rotation. */
    unsigned shape = 0;
};

/** Per-tenant scheduling state the policies read. */
struct TenantSchedState
{
    double weight = 1.0;
    /** Attained service in SM-cycles (completed launches). */
    double attained = 0.0;
};

/**
 * Pick the queue index to admit next under @p policy, or kNoPick.
 * @p queue must be in arrival order (seq ascending). Only a
 * tenant's earliest queued entry is eligible under fifo/rr/
 * fair-share (per-tenant FIFO); sjf-est considers every entry.
 * @p rr_cursor is the round-robin scan origin (tenant index).
 */
std::size_t pickNextLaunch(ServePolicy policy,
                           const std::vector<QueuedLaunch> &queue,
                           const std::vector<TenantSchedState> &tenants,
                           unsigned rr_cursor);

/** One launch shape a tenant cycles through. */
struct LaunchShape
{
    const Kernel *kernel = nullptr;
    unsigned numBlocks = 1;
    unsigned threadsPerBlock = 32;
    std::vector<RegValue> params;
    double estCost = 0.0;
};

/** One tenant's serving plan: shapes cycled per arrival + weight. */
struct TenantPlan
{
    std::vector<LaunchShape> shapes;
    double weight = 1.0;
};

class LaunchQueueScheduler : public Clocked
{
  public:
    /**
     * @p plans and @p streams are indexed by tenant and must have
     * equal size. Policy/partition/capacity come from
     * gpu.config().serving. The caller registers the scheduler on
     * the engine (ServingSession does this).
     */
    LaunchQueueScheduler(Gpu &gpu, std::vector<TenantPlan> plans,
                         std::vector<ArrivalStream> streams,
                         ServingMetrics &metrics);

    void tick(Cycle now) override;
    Cycle nextEventAt(Cycle now) const override;

    /** Streams dry, queue empty, nothing in flight. */
    bool finished() const;

    /** Watchdog signature: changes with any scheduling progress. */
    std::uint64_t progressSignature() const
    {
        return arrivals_ + (admitted_ << 20) + (completed_ << 40);
    }

  private:
    struct ActiveLaunch
    {
        Gpu::LaunchId id = 0;
        unsigned tenant = 0;
        std::uint64_t seq = 0;
        Cycle arrival = 0;
        Cycle admit = 0;
        std::vector<unsigned> sms;
    };

    void reapCompletions(Cycle now);
    void collectArrivals(Cycle now);
    void admitLaunches(Cycle now);

    /** SMs a launch of @p tenant would run on right now; empty if
     *  not admissible under the configured partition mode. */
    std::vector<unsigned> candidateSms(unsigned tenant) const;
    /** Refresh QueuedLaunch::admissible against current SM state. */
    void refreshAdmissibility(std::vector<QueuedLaunch> &queue) const;

    Gpu &gpu_;
    std::vector<TenantPlan> plans_;
    std::vector<ArrivalStream> streams_;
    ServingMetrics &metrics_;

    std::vector<QueuedLaunch> queue_;
    std::vector<TenantSchedState> tenants_;
    std::vector<ActiveLaunch> active_;
    /** Per-tenant arrival count (shape rotation index). */
    std::vector<unsigned> tenantArrivals_;
    /** Busy map over SM ids (owned by an active launch). */
    std::vector<bool> smBusy_;
    unsigned rrCursor_ = 0;
    std::uint64_t nextSeq_ = 0;

    std::uint64_t arrivals_ = 0;
    std::uint64_t admitted_ = 0;
    std::uint64_t completed_ = 0;
};

} // namespace gpulat

#endif // GPULAT_SERVING_SCHEDULER_HH
