/**
 * @file
 * Warp schedulers: loose round-robin (LRR) and greedy-then-oldest
 * (GTO). Each SM instantiates one scheduler object per issue slot;
 * a scheduler owns the warp slots with slot % numSchedulers == id.
 */

#ifndef GPULAT_SIMT_SCHEDULER_HH
#define GPULAT_SIMT_SCHEDULER_HH

#include <cstdint>
#include <vector>

#include "common/types.hh"

namespace gpulat {

/** Warp scheduling policies. */
enum class SchedPolicy : std::uint8_t { LRR, GTO };

const char *toString(SchedPolicy policy);

/**
 * Picks which of its warps issues next. The scheduler only orders
 * candidates; the core supplies an `is_ready` oracle (scoreboard,
 * barrier and resource checks).
 */
class WarpScheduler
{
  public:
    /**
     * @param policy LRR or GTO.
     * @param warp_slots slot indices this scheduler owns.
     */
    WarpScheduler(SchedPolicy policy,
                  std::vector<unsigned> warp_slots);

    /**
     * Choose a warp to issue.
     *
     * @param is_ready slot -> can issue right now.
     * @param age slot -> dispatch sequence number (older = smaller).
     * @return chosen slot, or -1 if none ready.
     */
    template <typename IsReady, typename Age>
    int pick(IsReady &&is_ready, Age &&age);

    const std::vector<unsigned> &slots() const { return slots_; }

  private:
    SchedPolicy policy_;
    std::vector<unsigned> slots_;
    std::size_t rrNext_ = 0;  ///< LRR rotation index (into slots_)
    int greedySlot_ = -1;     ///< GTO sticky warp
};

template <typename IsReady, typename Age>
int
WarpScheduler::pick(IsReady &&is_ready, Age &&age)
{
    if (slots_.empty())
        return -1;

    if (policy_ == SchedPolicy::LRR) {
        // Start one past the last issuer and take the first ready.
        for (std::size_t k = 0; k < slots_.size(); ++k) {
            const std::size_t i = (rrNext_ + k) % slots_.size();
            if (is_ready(slots_[i])) {
                rrNext_ = (i + 1) % slots_.size();
                return static_cast<int>(slots_[i]);
            }
        }
        return -1;
    }

    // GTO: stay on the greedy warp while it issues; on a stall,
    // switch to the oldest ready warp.
    if (greedySlot_ >= 0 &&
        is_ready(static_cast<unsigned>(greedySlot_))) {
        return greedySlot_;
    }
    int best = -1;
    std::uint64_t best_age = ~0ull;
    for (unsigned slot : slots_) {
        if (!is_ready(slot))
            continue;
        const std::uint64_t a = age(slot);
        if (a < best_age) {
            best_age = a;
            best = static_cast<int>(slot);
        }
    }
    greedySlot_ = best;
    return best;
}

} // namespace gpulat

#endif // GPULAT_SIMT_SCHEDULER_HH
