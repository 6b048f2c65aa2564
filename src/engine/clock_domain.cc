#include "engine/clock_domain.hh"

#include <algorithm>

#include "common/log.hh"

namespace gpulat {

namespace {

using Wide = unsigned __int128;

/**
 * Narrow a 128-bit tick/cycle value back to Cycle, saturating at
 * kNoCycle. Promises near 2^64 (a buggy or drained component one
 * off from kNoCycle) land on slow grids whose arithmetic exceeds
 * 64 bits; wrapping would hand fastForward() a *past* cycle and
 * time-travel the engine, while kNoCycle correctly reads "never".
 */
Cycle
narrow(Wide v)
{
    return v >= Wide{kNoCycle} ? kNoCycle : static_cast<Cycle>(v);
}

/** n / d without a hardware divide for the d == 1 of every default
 *  (unity) grid: these helpers run tens of millions of times per
 *  launch. */
Cycle
divide(Cycle n, unsigned d)
{
    return d == 1 ? n : n / d;
}

/**
 * floor(x * mul / div) + 1, saturating at kNoCycle. Computed in 64
 * bits whenever x * mul fits (every argument on a unity grid, and
 * every realistic one on the others); only the rest pays the
 * 128-bit division.
 */
Cycle
floorMulDivPlusOne(Cycle x, ClockRatio ratio)
{
    Cycle num;
    if (!__builtin_mul_overflow(x, Cycle{ratio.mul}, &num)) {
        const Cycle q = divide(num, ratio.div);
        return q >= kNoCycle - 1 ? kNoCycle : q + 1;
    }
    return narrow(Wide{x} * ratio.mul / ratio.div + 1);
}

} // namespace

ClockDomain::ClockDomain(std::string name, ClockRatio ratio)
    : name_(std::move(name)), ratio_(ratio)
{
    GPULAT_ASSERT(ratio_.mul > 0 && ratio_.div > 0,
                  "clock ratio must be positive");
}

Cycle
ClockDomain::tickCycle(Cycle k, ClockRatio ratio)
{
    // A saturated tick index means "never": on a fast grid
    // (mul > div) the division below would otherwise shrink the
    // sentinel back into a finite — and bogus — cycle.
    if (k == kNoCycle)
        return kNoCycle;
    Cycle num;
    if (!__builtin_mul_overflow(k, Cycle{ratio.div}, &num) &&
        !__builtin_add_overflow(num, Cycle{ratio.mul} - 1, &num))
        return divide(num, ratio.mul);
    return narrow((Wide{k} * ratio.div + ratio.mul - 1) / ratio.mul);
}

Cycle
ClockDomain::ticksThrough(Cycle c, ClockRatio ratio)
{
    // Tick k lands on ceil(k * div / mul), so ticks with
    // k * div <= c * mul have happened by the end of cycle c:
    // floor(c * mul / div) of them with k >= 1, plus tick 0.
    return floorMulDivPlusOne(c, ratio);
}

Cycle
ClockDomain::firstTickAtOrAfter(Cycle e, ClockRatio ratio)
{
    // ceil(k * div / mul) >= e  <=>  k * div > (e - 1) * mul
    //                           <=>  k > (e - 1) * mul / div.
    if (e == 0)
        return 0;
    return floorMulDivPlusOne(e - 1, ratio);
}

Cycle
ClockDomain::ticksThrough(Cycle c) const
{
    return ticksThrough(c, ratio_);
}

unsigned
ClockDomain::dueTicks(Cycle c) const
{
    const Cycle through = ticksThrough(c);
    GPULAT_ASSERT(through >= ticks_, "domain ticked past schedule");
    return static_cast<unsigned>(through - ticks_);
}

void
ClockDomain::skipTo(Cycle c)
{
    GPULAT_ASSERT(c > 0, "cannot skip to cycle 0");
    ticks_ = std::max(ticks_, ticksThrough(c - 1));
}

Cycle
ClockDomain::nextTickAtOrAfter(Cycle e) const
{
    // Smallest unperformed tick index whose time is >= e.
    const Cycle k =
        std::max(firstTickAtOrAfter(e, ratio_), ticks_);
    return tickCycle(k, ratio_);
}

} // namespace gpulat
