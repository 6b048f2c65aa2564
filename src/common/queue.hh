/**
 * @file
 * Bounded FIFO queues with minimum-residency timing, the basic
 * building block of every memory-pipeline hop in the simulator.
 *
 * A TimedQueue models a hardware queue/latch pipe: an entry pushed at
 * cycle t with latency L becomes visible at the head no earlier than
 * t + L. Capacity is finite; a full queue exerts backpressure (the
 * producer must retry).
 */

#ifndef GPULAT_COMMON_QUEUE_HH
#define GPULAT_COMMON_QUEUE_HH

#include <cstddef>
#include <deque>
#include <utility>

#include "common/log.hh"
#include "common/types.hh"

namespace gpulat {

/**
 * Bounded FIFO with per-entry ready times.
 *
 * @tparam T payload type (moved in/out).
 */
template <typename T>
class TimedQueue
{
  public:
    /**
     * @param capacity maximum number of in-flight entries (0 = panic).
     * @param min_latency cycles an entry must stay before it can pop.
     */
    TimedQueue(std::size_t capacity, Cycle min_latency)
        : capacity_(capacity), minLatency_(min_latency)
    {
        GPULAT_ASSERT(capacity > 0, "queue capacity must be positive");
    }

    /** True if another entry can be accepted this cycle. */
    bool full() const { return entries_.size() >= capacity_; }

    /** True if no entries are in flight. */
    bool empty() const { return entries_.empty(); }

    /** Number of in-flight entries. */
    std::size_t size() const { return entries_.size(); }

    /** Configured capacity. */
    std::size_t capacity() const { return capacity_; }

    /** Configured minimum residency in cycles. */
    Cycle minLatency() const { return minLatency_; }

    /**
     * Push an entry at cycle @p now.
     * @return false (and leave @p value untouched) if full.
     */
    bool
    push(Cycle now, T value)
    {
        if (full())
            return false;
        entries_.push_back(Entry{now + minLatency_, std::move(value)});
        return true;
    }

    /** True if the head entry exists and its residency has elapsed. */
    bool
    headReady(Cycle now) const
    {
        return !entries_.empty() && entries_.front().readyAt <= now;
    }

    /** Peek the head payload; undefined if empty. */
    const T &front() const { return entries_.front().value; }
    T &front() { return entries_.front().value; }

    /** Cycle at which the head becomes poppable; kNoCycle if empty. */
    Cycle
    headReadyAt() const
    {
        return entries_.empty() ? kNoCycle : entries_.front().readyAt;
    }

    /** Pop and return the head payload; undefined if !headReady. */
    T
    pop()
    {
        GPULAT_ASSERT(!entries_.empty(), "pop from empty queue");
        T v = std::move(entries_.front().value);
        entries_.pop_front();
        return v;
    }

  private:
    struct Entry
    {
        Cycle readyAt;
        T value;
    };

    std::size_t capacity_;
    Cycle minLatency_;
    std::deque<Entry> entries_;
};

} // namespace gpulat

#endif // GPULAT_COMMON_QUEUE_HH
