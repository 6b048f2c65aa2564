/**
 * @file
 * Unit tests for the common infrastructure: timed queues, stats,
 * RNG determinism and table/chart rendering.
 */

#include <deque>
#include <limits>
#include <sstream>
#include <string>
#include <utility>

#include <gtest/gtest.h>

#include "common/percentile.hh"
#include "common/queue.hh"
#include "common/random.hh"
#include "common/stats.hh"
#include "common/table.hh"

namespace gpulat {
namespace {

TEST(TimedQueue, RespectsMinLatency)
{
    TimedQueue<int> q(4, 10);
    EXPECT_TRUE(q.push(100, 7));
    EXPECT_FALSE(q.headReady(100));
    EXPECT_FALSE(q.headReady(109));
    EXPECT_TRUE(q.headReady(110));
    EXPECT_EQ(q.pop(), 7);
    EXPECT_TRUE(q.empty());
}

TEST(TimedQueue, ZeroLatencyIsImmediatelyReady)
{
    TimedQueue<int> q(2, 0);
    ASSERT_TRUE(q.push(5, 1));
    EXPECT_TRUE(q.headReady(5));
}

TEST(TimedQueue, EnforcesCapacity)
{
    TimedQueue<int> q(2, 1);
    EXPECT_TRUE(q.push(0, 1));
    EXPECT_TRUE(q.push(0, 2));
    EXPECT_TRUE(q.full());
    EXPECT_FALSE(q.push(0, 3));
    EXPECT_EQ(q.size(), 2u);
}

TEST(TimedQueue, FifoOrder)
{
    TimedQueue<int> q(8, 1);
    for (int i = 0; i < 8; ++i)
        ASSERT_TRUE(q.push(0, i));
    for (int i = 0; i < 8; ++i) {
        ASSERT_TRUE(q.headReady(1));
        EXPECT_EQ(q.pop(), i);
    }
}

TEST(TimedQueue, HeadReadyAtReportsCycle)
{
    TimedQueue<int> q(2, 25);
    EXPECT_EQ(q.headReadyAt(), kNoCycle);
    q.push(100, 1);
    EXPECT_EQ(q.headReadyAt(), 125u);
}

TEST(TimedQueue, LaterPushesKeepOrderEvenWhenReadyEarlier)
{
    // FIFO: the head blocks younger entries even if they were
    // pushed with lower latency... (same latency per queue, so the
    // ready times are monotonic by construction).
    TimedQueue<int> q(4, 5);
    q.push(0, 1);
    q.push(3, 2);
    EXPECT_TRUE(q.headReady(5));
    EXPECT_EQ(q.pop(), 1);
    EXPECT_FALSE(q.headReady(6));
    EXPECT_TRUE(q.headReady(8));
}

/**
 * TimedQueue before its ring buffer: entries in a std::deque. The
 * class is kept verbatim apart from its name; the property test
 * below drives both.
 */
template <typename T>
class ReferenceTimedQueue
{
  public:
    /**
     * @param capacity maximum number of in-flight entries (0 = panic).
     * @param min_latency cycles an entry must stay before it can pop.
     */
    ReferenceTimedQueue(std::size_t capacity, Cycle min_latency)
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

/** Property: over seeded push/pop sequences the ring answers every
 *  query as the deque did, through growth and wrap-around. */
TEST(TimedQueueProperty, MatchesDequeReference)
{
    struct Shape
    {
        std::size_t capacity;
        Cycle latency;
    };
    constexpr std::size_t kUnbounded =
        std::numeric_limits<std::size_t>::max();
    for (const Shape shape :
         {Shape{1, 0}, Shape{1, 3}, Shape{2, 1}, Shape{3, 0},
          Shape{8, 5}, Shape{100, 2}, Shape{kUnbounded, 0},
          Shape{kUnbounded, 30}}) {
        const std::string where = "capacity " +
            std::to_string(shape.capacity) + " latency " +
            std::to_string(shape.latency);
        TimedQueue<std::string> ring(shape.capacity, shape.latency);
        ReferenceTimedQueue<std::string> ref(shape.capacity,
                                             shape.latency);
        Rng rng(shape.capacity * 31 + shape.latency);
        int id = 0;
        Cycle now = 0;
        for (int step = 0; step < 20000; ++step) {
            // Phases of mostly-push and mostly-pop move the
            // occupancy up and down, so the ring grows, drains and
            // wraps many times.
            const bool filling = step / 500 % 2 == 0;
            now += rng.below(3);
            ASSERT_EQ(ring.full(), ref.full()) << where;
            ASSERT_EQ(ring.empty(), ref.empty()) << where;
            ASSERT_EQ(ring.size(), ref.size()) << where;
            ASSERT_EQ(ring.headReady(now), ref.headReady(now)) << where;
            ASSERT_EQ(ring.headReadyAt(), ref.headReadyAt()) << where;
            if (!ref.empty()) {
                ASSERT_EQ(ring.front(), ref.front()) << where;
            }
            if (rng.below(4) < (filling ? 3u : 1u)) {
                // Long enough to live on the heap, so a lost move
                // shows as a wrong payload.
                const std::string v =
                    "payload-" + std::to_string(id++) +
                    std::string(24, 'x');
                ASSERT_EQ(ring.push(now, v), ref.push(now, v)) << where;
            } else if (ref.headReady(now)) {
                ASSERT_EQ(ring.pop(), ref.pop()) << where;
            }
        }
        while (!ref.empty()) {
            const Cycle at = ref.headReadyAt();
            ASSERT_EQ(ring.headReadyAt(), at) << where;
            ASSERT_EQ(ring.pop(), ref.pop()) << where;
        }
        EXPECT_TRUE(ring.empty()) << where;
        EXPECT_EQ(ring.capacity(), shape.capacity);
    }
}

TEST(Counter, Increments)
{
    Counter c;
    c.inc();
    c.inc(41);
    EXPECT_EQ(c.value(), 42u);
}

TEST(ScalarStat, TracksMoments)
{
    ScalarStat s;
    s.sample(1.0);
    s.sample(3.0);
    s.sample(2.0);
    EXPECT_EQ(s.count(), 3u);
    EXPECT_DOUBLE_EQ(s.mean(), 2.0);
    EXPECT_DOUBLE_EQ(s.min(), 1.0);
    EXPECT_DOUBLE_EQ(s.max(), 3.0);
}


TEST(StatRegistry, NamedCountersAreSingletons)
{
    StatRegistry reg;
    reg.counter("a.b").inc(3);
    reg.counter("a.b").inc(4);
    EXPECT_EQ(reg.counterValue("a.b"), 7u);
    EXPECT_EQ(reg.counterValue("missing"), 0u);
}

TEST(StatRegistry, DumpContainsAllNames)
{
    StatRegistry reg;
    reg.counter("x.count").inc();
    reg.scalar("y.wait").sample(2.0);
    std::ostringstream oss;
    reg.dump(oss);
    EXPECT_NE(oss.str().find("x.count"), std::string::npos);
    EXPECT_NE(oss.str().find("y.wait"), std::string::npos);
}

TEST(Rng, DeterministicAcrossInstances)
{
    Rng a(42);
    Rng b(42);
    for (int i = 0; i < 100; ++i)
        EXPECT_EQ(a.next(), b.next());
}

TEST(Rng, BelowStaysInRange)
{
    Rng rng(7);
    for (int i = 0; i < 1000; ++i)
        EXPECT_LT(rng.below(13), 13u);
}

TEST(Rng, UniformIsInUnitInterval)
{
    Rng rng(9);
    for (int i = 0; i < 1000; ++i) {
        const double u = rng.uniform();
        EXPECT_GE(u, 0.0);
        EXPECT_LT(u, 1.0);
    }
}

TEST(Rng, DifferentSeedsDiffer)
{
    Rng a(1);
    Rng b(2);
    EXPECT_NE(a.next(), b.next());
}

TEST(TextTable, AlignsAndCountsRows)
{
    TextTable t({"col", "value"});
    t.addRow({"x", "1"});
    t.addRow({"longer", "2"});
    EXPECT_EQ(t.rows(), 2u);
    std::ostringstream oss;
    t.print(oss);
    EXPECT_NE(oss.str().find("longer"), std::string::npos);
}

TEST(TextTable, CsvQuotesCommas)
{
    EXPECT_EQ(csvField("x,y"), "\"x,y\"");
    EXPECT_EQ(csvField("plain"), "plain");
}

TEST(StackedBarChart, RendersLegendAndBars)
{
    StackedBarChart chart({"alpha", "beta"}, 20);
    chart.addBar("0-10", {75.0, 25.0});
    std::ostringstream oss;
    chart.print(oss);
    EXPECT_NE(oss.str().find("alpha"), std::string::npos);
    EXPECT_NE(oss.str().find("0-10"), std::string::npos);
}

TEST(Percentile, EmptySampleReturnsValueInitialized)
{
    EXPECT_EQ(percentileSorted(std::vector<int>{}, 0.5), 0);
    EXPECT_EQ(percentileSorted(std::vector<double>{}, 0.99), 0.0);
}

TEST(Percentile, SingleElementIsEveryPercentile)
{
    const std::vector<int> one = {42};
    EXPECT_EQ(percentileSorted(one, 0.0), 42);
    EXPECT_EQ(percentileSorted(one, 0.5), 42);
    EXPECT_EQ(percentileSorted(one, 0.99), 42);
    EXPECT_EQ(percentileSorted(one, 1.0), 42);
}

TEST(Percentile, UsesTheLatencySummaryIndexConvention)
{
    // index = floor(p * (n - 1)) on the sorted sample — the exact
    // formula the latency summary has always used.
    const std::vector<int> v = {10, 20, 30, 40, 50};
    EXPECT_EQ(percentileSorted(v, 0.5), 30);  // floor(0.5 * 4) = 2
    EXPECT_EQ(percentileSorted(v, 0.99), 40); // floor(0.99 * 4) = 3
    EXPECT_EQ(percentileSorted(v, 0.25), 20); // floor(0.25 * 4) = 1
    EXPECT_EQ(percentileSorted(v, 1.0), 50);
    // Out-of-range p clamps to the extremes.
    EXPECT_EQ(percentileSorted(v, -0.5), 10);
    EXPECT_EQ(percentileSorted(v, 2.0), 50);
}

TEST(Percentile, TiesAndUnsortedInput)
{
    const std::vector<int> ties = {7, 7, 7, 7};
    EXPECT_EQ(percentileSorted(ties, 0.5), 7);
    EXPECT_EQ(percentileSorted(ties, 0.99), 7);
    // percentile() sorts a copy first.
    EXPECT_EQ(percentile(std::vector<int>{50, 10, 40, 20, 30}, 0.5),
              30);
}

TEST(Log, PanicAndFatalThrowDistinctTypes)
{
    EXPECT_THROW(panic("boom"), PanicError);
    EXPECT_THROW(fatal("bad input"), FatalError);
}

TEST(Log, AssertMacroFiresOnFalse)
{
    EXPECT_THROW(GPULAT_ASSERT(false, "nope"), PanicError);
    EXPECT_NO_THROW(GPULAT_ASSERT(true, "fine"));
}

} // namespace
} // namespace gpulat
