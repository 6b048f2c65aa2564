#include "gpu/ports.hh"

namespace gpulat {

void
BlockDispatcher::tick(Cycle now)
{
    for (GridLaunch *launch : active_) {
        const std::size_t n = launch->smIds.size();
        for (std::size_t k = 0; k < n && !launch->allDispatched(); ++k) {
            SmCore &sm = *sms_[launch->smIds[(now + k) % n]];
            if (sm.canAcceptBlock())
                sm.dispatchBlock(launch->nextBlock++);
        }
    }
}

Cycle
BlockDispatcher::nextEventAt(Cycle now) const
{
    // Blocks remain: dispatch happens the moment an owned SM has
    // room. If none has, room only appears when a resident block
    // retires — an SM-side event, so it is safe to report idle here
    // (the Gpu declares an SM -> dispatcher wake edge, so a
    // retirement discards this promise before it could go stale).
    for (const GridLaunch *launch : active_) {
        if (launch->allDispatched())
            continue;
        for (const unsigned s : launch->smIds)
            if (sms_[s]->canAcceptBlock())
                return now;
    }
    return kNoCycle;
}

} // namespace gpulat
