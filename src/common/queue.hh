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
#include <utility>
#include <vector>

#include "common/log.hh"
#include "common/types.hh"

namespace gpulat {

/**
 * Bounded FIFO with per-entry ready times.
 *
 * The entries live in a power-of-two ring that doubles when a push
 * finds it full and never shrinks, so it grows to the queue's
 * high-water mark, not to its capacity (which may be SIZE_MAX), and
 * a queue in steady state allocates nothing. A popped slot keeps its
 * moved-from payload until a later push overwrites it.
 *
 * @tparam T payload type (default-constructible; moved in/out).
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
    bool full() const { return size_ >= capacity_; }

    /** True if no entries are in flight. */
    bool empty() const { return size_ == 0; }

    /** Number of in-flight entries. */
    std::size_t size() const { return size_; }

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
        if (size_ == ring_.size())
            grow();
        ring_[(head_ + size_) & (ring_.size() - 1)] =
            Entry{now + minLatency_, std::move(value)};
        ++size_;
        return true;
    }

    /** True if the head entry exists and its residency has elapsed. */
    bool
    headReady(Cycle now) const
    {
        return size_ != 0 && ring_[head_].readyAt <= now;
    }

    /** Peek the head payload; undefined if empty. */
    const T &front() const { return ring_[head_].value; }
    T &front() { return ring_[head_].value; }

    /** Cycle at which the head becomes poppable; kNoCycle if empty. */
    Cycle
    headReadyAt() const
    {
        return size_ == 0 ? kNoCycle : ring_[head_].readyAt;
    }

    /** Pop and return the head payload; undefined if !headReady. */
    T
    pop()
    {
        GPULAT_ASSERT(size_ != 0, "pop from empty queue");
        T v = std::move(ring_[head_].value);
        head_ = (head_ + 1) & (ring_.size() - 1);
        --size_;
        return v;
    }

  private:
    struct Entry
    {
        Cycle readyAt;
        T value;
    };

    /** Double the ring (from one slot), unrolling the entries to
     *  the front of the new one. */
    void
    grow()
    {
        std::vector<Entry> bigger(ring_.empty() ? 1 : 2 * ring_.size());
        for (std::size_t i = 0; i < size_; ++i)
            bigger[i] = std::move(ring_[(head_ + i) & (ring_.size() - 1)]);
        ring_.swap(bigger);
        head_ = 0;
    }

    std::size_t capacity_;
    Cycle minLatency_;
    std::vector<Entry> ring_;
    std::size_t head_ = 0;
    std::size_t size_ = 0;
};

} // namespace gpulat

#endif // GPULAT_COMMON_QUEUE_HH
