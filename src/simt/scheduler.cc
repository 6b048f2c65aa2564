#include "simt/scheduler.hh"

namespace gpulat {

WarpScheduler::WarpScheduler(SchedPolicy policy,
                             std::vector<unsigned> warp_slots)
    : policy_(policy), slots_(std::move(warp_slots))
{
}

} // namespace gpulat
