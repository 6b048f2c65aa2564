#include "mem/dram_sched.hh"

#include "common/log.hh"

namespace gpulat {

std::optional<std::size_t>
pickDramRequest(DramSchedPolicy policy,
                const std::deque<DramQueueEntry> &queue,
                const DramChannel &channel, Cycle now,
                Cycle starvation_limit)
{
    if (queue.empty())
        return std::nullopt;

    if (policy == DramSchedPolicy::FCFS) {
        // Strictly oldest-first; wait for its bank if necessary.
        return channel.bankReady(queue.front().coord, now)
            ? std::optional<std::size_t>(0)
            : std::nullopt;
    }

    // Anti-starvation: when the oldest request has been bypassed for
    // too long, stop preferring row hits over it. An unstamped
    // enqueue cycle would silently disable this forever, so it is a
    // bug in the producer (pushDram() stamps every request).
    const Cycle head_enq = queue.front().req.trace.dramEnq;
    GPULAT_ASSERT(head_enq != kNoCycle,
                  "DRAM request reached the scheduler without a "
                  "dramEnq stamp: anti-starvation would be disabled");
    const bool starving = now - head_enq > starvation_limit;

    // FR-FCFS: oldest ready row-hit first, then oldest ready request.
    std::optional<std::size_t> oldest_ready;
    for (std::size_t i = 0; i < queue.size(); ++i) {
        if (!channel.bankReady(queue[i].coord, now))
            continue;
        if (!starving && channel.rowHit(queue[i].coord))
            return i;
        if (!oldest_ready)
            oldest_ready = i;
        if (starving)
            break; // serve strictly oldest-ready
    }
    return oldest_ready;
}

} // namespace gpulat
