/**
 * @file
 * Unit tests for the crossbar interconnect: latency, backpressure,
 * round-robin arbitration fairness and drain behaviour.
 */

#include <string>
#include <vector>

#include <gtest/gtest.h>

#include "common/random.hh"
#include "icnt/crossbar.hh"

namespace gpulat {
namespace {

struct Pkt
{
    int id;
};

TEST(Crossbar, DeliversAfterFixedLatency)
{
    StatRegistry stats;
    Crossbar<Pkt> xbar("x", 2, 2, 10, 4, 4, &stats);
    ASSERT_TRUE(xbar.inject(0, 0, 1, Pkt{7}));
    for (Cycle c = 0; c < 10; ++c) {
        xbar.tick(c);
        EXPECT_FALSE(xbar.deliverable(1, c)) << "cycle " << c;
    }
    xbar.tick(10);
    ASSERT_TRUE(xbar.deliverable(1, 10));
    EXPECT_EQ(xbar.eject(1).id, 7);
    EXPECT_TRUE(xbar.empty());
}

TEST(Crossbar, InputQueueBackpressure)
{
    StatRegistry stats;
    Crossbar<Pkt> xbar("x", 1, 1, 1, 2, 2, &stats);
    EXPECT_TRUE(xbar.canInject(0));
    EXPECT_TRUE(xbar.inject(0, 0, 0, Pkt{1}));
    EXPECT_TRUE(xbar.inject(0, 0, 0, Pkt{2}));
    EXPECT_FALSE(xbar.canInject(0));
    EXPECT_FALSE(xbar.inject(0, 0, 0, Pkt{3}));
}

TEST(Crossbar, OnePacketPerDestinationPerCycle)
{
    StatRegistry stats;
    Crossbar<Pkt> xbar("x", 2, 1, 0, 4, 4, &stats);
    ASSERT_TRUE(xbar.inject(0, 0, 0, Pkt{1}));
    ASSERT_TRUE(xbar.inject(0, 1, 0, Pkt{2}));
    xbar.tick(0);
    ASSERT_TRUE(xbar.deliverable(0, 0));
    xbar.eject(0);
    // Second packet needs a second cycle.
    EXPECT_FALSE(xbar.deliverable(0, 0));
    xbar.tick(1);
    EXPECT_TRUE(xbar.deliverable(0, 1));
}

TEST(Crossbar, RoundRobinAlternatesContendingSources)
{
    StatRegistry stats;
    Crossbar<Pkt> xbar("x", 2, 1, 0, 8, 8, &stats);
    // Both sources keep 2 packets queued for dst 0.
    ASSERT_TRUE(xbar.inject(0, 0, 0, Pkt{10}));
    ASSERT_TRUE(xbar.inject(0, 0, 0, Pkt{11}));
    ASSERT_TRUE(xbar.inject(0, 1, 0, Pkt{20}));
    ASSERT_TRUE(xbar.inject(0, 1, 0, Pkt{21}));

    std::vector<int> order;
    for (Cycle c = 0; c < 4; ++c) {
        xbar.tick(c);
        ASSERT_TRUE(xbar.deliverable(0, c));
        order.push_back(xbar.eject(0).id);
    }
    // RR: src0, src1, src0, src1 (starting pointer at 0).
    EXPECT_EQ(order, (std::vector<int>{10, 20, 11, 21}));
}

TEST(Crossbar, ArbitrationLossesAreCounted)
{
    StatRegistry stats;
    Crossbar<Pkt> xbar("x", 2, 1, 0, 4, 4, &stats);
    xbar.inject(0, 0, 0, Pkt{1});
    xbar.inject(0, 1, 0, Pkt{2});
    xbar.tick(0);
    EXPECT_EQ(stats.counterValue("x.arb_stalls"), 1u);
}

TEST(Crossbar, OutputBackpressureStallsTransfer)
{
    StatRegistry stats;
    Crossbar<Pkt> xbar("x", 1, 1, 0, 4, 1, &stats);
    xbar.inject(0, 0, 0, Pkt{1});
    xbar.inject(0, 0, 0, Pkt{2});
    xbar.tick(0); // moves pkt 1 into the single-entry output
    xbar.tick(1); // output full: pkt 2 must wait
    ASSERT_TRUE(xbar.deliverable(0, 1));
    EXPECT_EQ(xbar.eject(0).id, 1);
    xbar.tick(2);
    ASSERT_TRUE(xbar.deliverable(0, 2));
    EXPECT_EQ(xbar.eject(0).id, 2);
}

TEST(Crossbar, IndependentDestinationsTransferInParallel)
{
    StatRegistry stats;
    Crossbar<Pkt> xbar("x", 2, 2, 0, 4, 4, &stats);
    xbar.inject(0, 0, 0, Pkt{1});
    xbar.inject(0, 1, 1, Pkt{2});
    xbar.tick(0);
    EXPECT_TRUE(xbar.deliverable(0, 0));
    EXPECT_TRUE(xbar.deliverable(1, 0));
}

TEST(Crossbar, SourcePopsAtMostOncePerCycle)
{
    StatRegistry stats;
    // One source with packets for two different destinations: only
    // the head may move in a given cycle.
    Crossbar<Pkt> xbar("x", 1, 2, 0, 4, 4, &stats);
    xbar.inject(0, 0, 0, Pkt{1});
    xbar.inject(0, 0, 1, Pkt{2});
    xbar.tick(0);
    EXPECT_TRUE(xbar.deliverable(0, 0));
    EXPECT_FALSE(xbar.deliverable(1, 0));
    xbar.tick(1);
    EXPECT_TRUE(xbar.deliverable(1, 1));
}

/** Property: random traffic is conserved and per-source order to
 *  each destination is preserved, across crossbar shapes. */
class CrossbarShapes
    : public ::testing::TestWithParam<std::pair<unsigned, unsigned>>
{
};

TEST_P(CrossbarShapes, ConservesAndOrdersRandomTraffic)
{
    const unsigned nsrc = GetParam().first;
    const unsigned ndst = GetParam().second;
    StatRegistry stats;
    Crossbar<Pkt> xbar("x", nsrc, ndst, 3, 4, 4, &stats);

    Rng rng(nsrc * 100 + ndst);
    // id encodes (src, dst, seq) so order can be checked on eject.
    std::vector<unsigned> sent_per_pair(nsrc * ndst, 0);
    std::vector<unsigned> seen_per_pair(nsrc * ndst, 0);
    int sent = 0;
    int received = 0;
    const int target = 300;

    for (Cycle now = 0; now < 20000 && received < target; ++now) {
        if (sent < target) {
            const auto src = static_cast<unsigned>(rng.below(nsrc));
            const auto dst = static_cast<unsigned>(rng.below(ndst));
            if (xbar.canInject(src)) {
                const unsigned pair = src * ndst + dst;
                const int id = static_cast<int>(
                    pair * 100000 + sent_per_pair[pair]);
                ASSERT_TRUE(xbar.inject(now, src, dst, Pkt{id}));
                ++sent_per_pair[pair];
                ++sent;
            }
        }
        xbar.tick(now);
        for (unsigned d = 0; d < ndst; ++d) {
            if (!xbar.deliverable(d, now))
                continue;
            const Pkt pkt = xbar.eject(d);
            const unsigned pair =
                static_cast<unsigned>(pkt.id) / 100000;
            const unsigned seq =
                static_cast<unsigned>(pkt.id) % 100000;
            // Packets from one src to one dst arrive in order.
            ASSERT_EQ(seq, seen_per_pair[pair]);
            ++seen_per_pair[pair];
            ASSERT_EQ(pair % ndst, d) << "misrouted packet";
            ++received;
        }
    }
    EXPECT_EQ(received, sent);
    EXPECT_TRUE(xbar.empty());
}

INSTANTIATE_TEST_SUITE_P(
    Shapes, CrossbarShapes,
    ::testing::Values(std::pair<unsigned, unsigned>{1, 1},
                      std::pair<unsigned, unsigned>{2, 6},
                      std::pair<unsigned, unsigned>{6, 2},
                      std::pair<unsigned, unsigned>{15, 6},
                      std::pair<unsigned, unsigned>{6, 15}));

/**
 * The crossbar before its one-pass arbiter: for every destination,
 * a round-robin probe of all sources. tick() is kept verbatim; the
 * rest is what the property test drives.
 */
template <typename T>
class ReferenceCrossbar
{
  public:
    ReferenceCrossbar(std::string name, unsigned num_src,
                      unsigned num_dst, Cycle latency,
                      std::size_t in_capacity, std::size_t out_capacity,
                      StatRegistry *stats)
        : name_(std::move(name)), latency_(latency)
    {
        inputs_.reserve(num_src);
        for (unsigned s = 0; s < num_src; ++s)
            inputs_.emplace_back(in_capacity, latency_);
        outputs_.reserve(num_dst);
        for (unsigned d = 0; d < num_dst; ++d)
            outputs_.emplace_back(out_capacity, Cycle{0});
        rrPtr_.assign(num_dst, 0);
        transferred_ = &stats->counter(name_ + ".transferred");
        arbStalls_ = &stats->counter(name_ + ".arb_stalls");
    }

    unsigned numSrc() const
    {
        return static_cast<unsigned>(inputs_.size());
    }
    unsigned numDst() const
    {
        return static_cast<unsigned>(outputs_.size());
    }

    bool
    canInject(unsigned src) const
    {
        return !inputs_[src].queue.full();
    }

    bool
    inject(Cycle now, unsigned src, unsigned dst, T payload)
    {
        return inputs_[src].queue.push(
            now, Packet{dst, std::move(payload)});
    }

    void
    tick(Cycle now)
    {
        const unsigned nsrc = numSrc();
        for (unsigned d = 0; d < numDst(); ++d) {
            if (outputs_[d].full())
                continue;
            bool contended = false;
            const unsigned start = rrPtr_[d];
            for (unsigned k = 0; k < nsrc; ++k) {
                unsigned s = (start + k) % nsrc;
                auto &in = inputs_[s];
                if (!in.queue.headReady(now) || in.poppedThisCycle)
                    continue;
                if (in.queue.front().dst != d) {
                    continue;
                }
                if (contended) {
                    arbStalls_->inc();
                    continue;
                }
                Packet pkt = in.queue.pop();
                in.poppedThisCycle = true;
                bool ok = outputs_[d].push(now, std::move(pkt.payload));
                GPULAT_ASSERT(ok, "output push must succeed");
                transferred_->inc();
                rrPtr_[d] = (s + 1) % nsrc;
                contended = true; // this dst is served; count losers
            }
        }
        for (auto &in : inputs_)
            in.poppedThisCycle = false;
    }

    bool
    deliverable(unsigned dst, Cycle now) const
    {
        return outputs_[dst].headReady(now);
    }

    T eject(unsigned dst) { return outputs_[dst].pop(); }

  private:
    struct Packet
    {
        unsigned dst;
        T payload;
    };

    struct InputPort
    {
        InputPort(std::size_t capacity, Cycle latency)
            : queue(capacity, latency)
        {
        }
        TimedQueue<Packet> queue;
        bool poppedThisCycle = false;
    };

    std::string name_;
    Cycle latency_;
    std::vector<InputPort> inputs_;
    std::vector<TimedQueue<T>> outputs_;
    std::vector<unsigned> rrPtr_;

    Counter *transferred_;
    Counter *arbStalls_;
};

/** Property: under seeded injections and random output drains, the
 *  crossbar ejects the same packets as the reference arbiter, cycle
 *  by cycle, with the same transfer and arbitration-stall counts. */
TEST(CrossbarProperty, MatchesReferenceArbiter)
{
    struct Shape
    {
        unsigned nsrc, ndst;
    };
    struct Queues
    {
        Cycle latency;
        std::size_t in, out;
    };
    for (const Shape shape : {Shape{1, 1}, Shape{2, 6}, Shape{15, 6},
                              Shape{6, 15}, Shape{70, 3}}) {
        for (const Queues q : {Queues{0, 4, 1}, Queues{3, 4, 4},
                               Queues{1, 2, 1}, Queues{0, 8, 2}}) {
            const std::string where =
                std::to_string(shape.nsrc) + "x" +
                std::to_string(shape.ndst) + " lat " +
                std::to_string(q.latency) + " in " +
                std::to_string(q.in) + " out " + std::to_string(q.out);
            StatRegistry stats;
            Crossbar<Pkt> xbar("x", shape.nsrc, shape.ndst, q.latency,
                               q.in, q.out, &stats);
            ReferenceCrossbar<Pkt> ref("r", shape.nsrc, shape.ndst,
                                       q.latency, q.in, q.out, &stats);
            Rng rng(shape.nsrc * 1000 + shape.ndst * 10 + q.out);
            // Skewed destinations make contention common; drains
            // slower than arrivals keep outputs full part of the time.
            const auto hot = static_cast<unsigned>(rng.below(shape.ndst));
            int id = 0;
            for (Cycle now = 0; now < 3000; ++now) {
                for (unsigned s = 0; s < shape.nsrc; ++s) {
                    if (rng.below(3) == 0)
                        continue;
                    ASSERT_EQ(xbar.canInject(s), ref.canInject(s))
                        << where << " cycle " << now;
                    if (!xbar.canInject(s))
                        continue;
                    const auto d = rng.below(2) == 0
                        ? hot
                        : static_cast<unsigned>(rng.below(shape.ndst));
                    ASSERT_TRUE(xbar.inject(now, s, d, Pkt{id}));
                    ASSERT_TRUE(ref.inject(now, s, d, Pkt{id}));
                    ++id;
                }
                xbar.tick(now);
                ref.tick(now);
                ASSERT_EQ(stats.counterValue("x.transferred"),
                          stats.counterValue("r.transferred"))
                    << where << " cycle " << now;
                ASSERT_EQ(stats.counterValue("x.arb_stalls"),
                          stats.counterValue("r.arb_stalls"))
                    << where << " cycle " << now;
                for (unsigned d = 0; d < shape.ndst; ++d) {
                    ASSERT_EQ(xbar.deliverable(d, now),
                              ref.deliverable(d, now))
                        << where << " cycle " << now << " dst " << d;
                    if (!xbar.deliverable(d, now) || rng.below(4) == 0)
                        continue;
                    ASSERT_EQ(xbar.eject(d).id, ref.eject(d).id)
                        << where << " cycle " << now << " dst " << d;
                }
            }
            EXPECT_GT(stats.counterValue("x.transferred"), 100u) << where;
            if (shape.nsrc > 1) {
                EXPECT_GT(stats.counterValue("x.arb_stalls"), 0u)
                    << where;
            }
        }
    }
}

} // namespace
} // namespace gpulat
