#include "simt/scheduler.hh"

namespace gpulat {

const char *
toString(SchedPolicy policy)
{
    switch (policy) {
      case SchedPolicy::LRR: return "LRR";
      case SchedPolicy::GTO: return "GTO";
    }
    return "?";
}

WarpScheduler::WarpScheduler(SchedPolicy policy,
                             std::vector<unsigned> warp_slots)
    : policy_(policy), slots_(std::move(warp_slots))
{
}

} // namespace gpulat
