/**
 * @file
 * The clocked-component interface every ticking model implements.
 *
 * Time is kept on one global axis measured in core ("hot") clock
 * cycles — the unit every latency in the paper is reported in. A
 * component never advances itself: the TickEngine calls tick() at
 * the cycles its clock domain is scheduled on, so a component in a
 * half-rate domain simply sees tick() every other core cycle, and a
 * double-rate one sees it twice per core cycle. Because all
 * timestamps (LatencyTrace, queue ready-times) live on the shared
 * core-cycle axis, cross-domain handoffs need no unit conversion.
 *
 * Idle fast-forward contract: nextEventAt() is a *promise* that
 * tick() is a pure no-op — no state change, no statistics beyond
 * what fastForward() reproduces — at every scheduled tick before
 * the returned cycle, PROVIDED no other component delivers input in
 * the meantime. The engine tracks delivery paths as wake edges
 * (TickEngine::link()) and re-queries a consumer's promise after a
 * producer ticks, so nextEventAt() must reflect delivered state at
 * *any* query time: timestamps read from queue heads do so
 * naturally; state a delivery changes without leaving a queue
 * entry behind (e.g. a load response completing a warp's register
 * dependency) must raise a woke flag that forces "active now"
 * until the next tick observes it. fastForward() then lets a
 * component account for the skipped cycles (per-cycle idle
 * statistics) so results are bit-identical to naive ticking; it
 * must be additive, i.e. fastForward(a, b) + fastForward(b, c) must
 * leave the same state as fastForward(a, c), because the
 * per-domain stepper splits one dead window at every cycle it
 * visits for some *other* domain's event.
 */

#ifndef GPULAT_ENGINE_CLOCKED_HH
#define GPULAT_ENGINE_CLOCKED_HH

#include "common/types.hh"

namespace gpulat {

/**
 * Frequency of a clock domain relative to the core clock:
 * f_domain = f_core * mul / div. {1,1} is the core clock itself;
 * {1,2} runs at half rate, {2,1} at double rate.
 */
struct ClockRatio
{
    unsigned mul = 1;
    unsigned div = 1;

    bool isUnity() const { return mul == div; }

    /** Relative frequency as a double (for reports only). */
    double
    frequency() const
    {
        return static_cast<double>(mul) / static_cast<double>(div);
    }
};

/**
 * Idle fast-forward policy of the TickEngine (see GpuConfig's
 * `idleFastForward` knob; both modes are cycle-exact by
 * construction, they differ only in how much simulator work they
 * avoid):
 *  - Off: naive reference — every component ticks on every
 *    scheduled cycle and no promises are ever consulted;
 *  - PerDomain: event-scheduled — each component sleeps through to
 *    its own cached next-event promise, so the DRAM domain ticks
 *    through a long bank wait while core/icnt/L2 components sleep,
 *    and vice versa; windows where everything sleeps are jumped.
 */
enum class IdleFastForward
{
    Off,
    PerDomain,
};

/** A component the TickEngine advances. */
class Clocked
{
  public:
    virtual ~Clocked() = default;

    /**
     * Advance one domain cycle. @p now is the global core-cycle
     * time of this tick (a half-rate component sees gaps in @p now;
     * a double-rate one sees repeats).
     */
    virtual void tick(Cycle now) = 0;

    /**
     * Earliest core cycle >= @p now at which tick() might do any
     * work. Return @p now when active or unsure (always safe);
     * return kNoCycle when fully drained with nothing scheduled.
     */
    virtual Cycle nextEventAt(Cycle now) const = 0;

    /**
     * The engine skipped the window [@p from, @p to) because every
     * component promised it dead. Account for the elapsed cycles
     * (bulk idle statistics); must not change simulation behaviour.
     */
    virtual void
    fastForward(Cycle from, Cycle to)
    {
        (void)from;
        (void)to;
    }
};

} // namespace gpulat

#endif // GPULAT_ENGINE_CLOCKED_HH
