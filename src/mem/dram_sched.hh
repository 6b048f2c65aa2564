/**
 * @file
 * DRAM request schedulers.
 *
 * The paper singles out "DRAM access scheduling" as one of the two
 * dominant dynamic latency components and suggests the scheduling
 * algorithm as a latency lever; we therefore implement both the
 * throughput-oriented FR-FCFS (first-ready, row-hit-first) policy
 * GPUs ship and a plain FCFS baseline to ablate it against
 * (`partition.sched=fcfs`).
 */

#ifndef GPULAT_MEM_DRAM_SCHED_HH
#define GPULAT_MEM_DRAM_SCHED_HH

#include <cstddef>
#include <deque>
#include <optional>

#include "common/spelling.hh"
#include "mem/dram.hh"
#include "mem/request.hh"

namespace gpulat {

/** Available scheduling policies. */
enum class DramSchedPolicy : std::uint8_t { FCFS, FRFCFS };

/** `partition.sched` spellings. */
inline constexpr Spelling<DramSchedPolicy> kDramSchedPolicySpellings[] = {
    {"fcfs", DramSchedPolicy::FCFS},
    {"frfcfs", DramSchedPolicy::FRFCFS},
};

/** A queued DRAM request and where it lands in the channel, mapped
 *  once on entry so the scheduler's per-tick scan maps nothing. */
struct DramQueueEntry
{
    MemRequest req;
    DramCoord coord;
};

/**
 * Select which queued request the channel should service next.
 *
 * @param policy scheduling policy.
 * @param queue pending requests in arrival order.
 * @param channel bank state (row-hit queries).
 * @param now current cycle.
 * @param starvation_limit FR-FCFS only: once the oldest request has
 *        waited this long, fall back to oldest-first so a stream of
 *        row hits cannot starve a row conflict indefinitely.
 * @return index into @p queue, or nullopt if nothing is serviceable
 *         (all target banks busy).
 */
std::optional<std::size_t>
pickDramRequest(DramSchedPolicy policy,
                const std::deque<DramQueueEntry> &queue,
                const DramChannel &channel, Cycle now,
                Cycle starvation_limit = 768);

} // namespace gpulat

#endif // GPULAT_MEM_DRAM_SCHED_HH
