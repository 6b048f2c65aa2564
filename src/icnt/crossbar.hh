/**
 * @file
 * SM <-> memory-partition interconnect, modelled as a single-stage
 * crossbar with bounded per-port queues.
 *
 * Each source port accepts at most one packet per cycle; each
 * destination port delivers at most one packet per cycle, selected
 * by round-robin arbitration over contending sources. Packets incur
 * a fixed traversal latency plus whatever queueing the load induces
 * — which is exactly the "queueing and arbitration" behaviour the
 * paper identifies as a key dynamic latency contributor.
 */

#ifndef GPULAT_ICNT_CROSSBAR_HH
#define GPULAT_ICNT_CROSSBAR_HH

#include <algorithm>
#include <vector>

#include "common/log.hh"
#include "common/queue.hh"
#include "common/stats.hh"
#include "common/types.hh"
#include "engine/clocked.hh"

namespace gpulat {

template <typename T>
class Crossbar : public Clocked
{
  public:
    /**
     * @param name stats prefix.
     * @param num_src source ports.
     * @param num_dst destination ports.
     * @param latency fixed traversal latency (cycles).
     * @param in_capacity per-source input queue depth.
     * @param out_capacity per-destination output queue depth.
     * @param stats registry for arbitration statistics.
     */
    Crossbar(std::string name, unsigned num_src, unsigned num_dst,
             Cycle latency, std::size_t in_capacity,
             std::size_t out_capacity, StatRegistry *stats)
        : name_(std::move(name)), latency_(latency)
    {
        GPULAT_ASSERT(num_src > 0 && num_dst > 0, "bad crossbar shape");
        inputs_.reserve(num_src);
        for (unsigned s = 0; s < num_src; ++s)
            inputs_.emplace_back(in_capacity, latency_);
        outputs_.reserve(num_dst);
        for (unsigned d = 0; d < num_dst; ++d)
            outputs_.emplace_back(out_capacity, Cycle{0});
        rrPtr_.assign(num_dst, 0);
        arb_.resize(num_dst);
        GPULAT_ASSERT(stats != nullptr, "crossbar needs stats");
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

    /** True if source port @p src can accept a packet this cycle. */
    bool
    canInject(unsigned src) const
    {
        return !inputs_[src].full();
    }

    /**
     * Inject a packet at @p src headed to @p dst.
     * @return false if the input queue is full.
     */
    bool
    inject(Cycle now, unsigned src, unsigned dst, T payload)
    {
        GPULAT_ASSERT(dst < numDst(), "bad crossbar destination");
        return inputs_[src].push(now, Packet{dst, std::move(payload)});
    }

    /**
     * Advance one cycle: move up to one ready packet to each
     * destination output queue, arbitrating round-robin among
     * sources whose head packet targets that destination.
     *
     * One pass over the sources collects the bids: a source bids
     * only with its head, so it moves at most one packet per cycle,
     * and only for a destination with output room. The winner for
     * destination d is the bidder nearest at or after rrPtr_[d]
     * (smallest rank); every other bidder is an arbitration stall.
     * A second pass over the destinations moves the winners.
     */
    void
    tick(Cycle now) override
    {
        const unsigned nsrc = numSrc();
        for (unsigned s = 0; s < nsrc; ++s) {
            const auto &in = inputs_[s];
            if (!in.headReady(now))
                continue;
            const unsigned d = in.front().dst;
            if (outputs_[d].full())
                continue;
            const unsigned start = rrPtr_[d];
            const unsigned rank =
                s >= start ? s - start : s + nsrc - start;
            Arbitration &arb = arb_[d];
            if (arb.bidders++ == 0 || rank < arb.rank) {
                arb.rank = rank;
                arb.winner = s;
            }
        }
        for (unsigned d = 0; d < numDst(); ++d) {
            Arbitration &arb = arb_[d];
            if (arb.bidders == 0)
                continue;
            Packet pkt = inputs_[arb.winner].pop();
            bool ok = outputs_[d].push(now, std::move(pkt.payload));
            GPULAT_ASSERT(ok, "output push must succeed");
            transferred_->inc();
            arbStalls_->inc(arb.bidders - 1);
            rrPtr_[d] = arb.winner + 1 == nsrc ? 0 : arb.winner + 1;
            arb.bidders = 0;
        }
    }

    /**
     * Earliest cycle an input-queue head becomes movable — the only
     * work tick() itself performs (output drain belongs to the
     * ejecting port, see nextDeliveryAt()).
     */
    Cycle
    nextEventAt(Cycle now) const override
    {
        (void)now;
        Cycle e = kNoCycle;
        for (const auto &in : inputs_)
            e = std::min(e, in.headReadyAt());
        return e;
    }

    /** Earliest cycle any output head becomes deliverable. */
    Cycle
    nextDeliveryAt() const
    {
        Cycle e = kNoCycle;
        for (const auto &out : outputs_)
            e = std::min(e, out.headReadyAt());
        return e;
    }

    /** Packets anywhere inside the crossbar (for stall reports). */
    std::size_t
    inFlight() const
    {
        std::size_t n = 0;
        for (const auto &in : inputs_)
            n += in.size();
        for (const auto &out : outputs_)
            n += out.size();
        return n;
    }

    /** True if @p dst has a deliverable packet. */
    bool
    deliverable(unsigned dst, Cycle now) const
    {
        return outputs_[dst].headReady(now);
    }

    /** Peek the deliverable packet at @p dst. */
    const T &peek(unsigned dst) const { return outputs_[dst].front(); }

    /** Pop the deliverable packet at @p dst. */
    T eject(unsigned dst) { return outputs_[dst].pop(); }

    /** True when no packet is anywhere in the crossbar. */
    bool
    empty() const
    {
        for (const auto &in : inputs_)
            if (!in.empty())
                return false;
        for (const auto &out : outputs_)
            if (!out.empty())
                return false;
        return true;
    }

  private:
    struct Packet
    {
        unsigned dst;
        T payload;
    };

    /** One destination's bids in the current tick (bidders is 0
     *  between ticks). */
    struct Arbitration
    {
        unsigned bidders = 0;
        unsigned rank = 0;
        unsigned winner = 0;
    };

    std::string name_;
    Cycle latency_;
    std::vector<TimedQueue<Packet>> inputs_;
    std::vector<TimedQueue<T>> outputs_;
    std::vector<unsigned> rrPtr_;
    std::vector<Arbitration> arb_;

    Counter *transferred_;
    Counter *arbStalls_;
};

} // namespace gpulat

#endif // GPULAT_ICNT_CROSSBAR_HH
