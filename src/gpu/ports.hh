/**
 * @file
 * Timed-port adapters: the small Clocked components that move
 * packets between the big models (crossbars, partitions, SMs) and
 * dispatch thread blocks of the active launches.
 *
 * Each adapter is registered in the *consumer's* clock domain — a
 * packet crosses into a domain when that domain clocks it in, which
 * is how hardware synchronizers behave. Because every queue
 * timestamp lives on the global core-cycle axis, the latency a
 * packet accumulates while waiting for a slow consumer clock lands
 * in its LatencyTrace in core cycles automatically — no unit
 * conversion at the boundary.
 *
 * The partition's two clock sides (ROP/L2 vs DRAM) get their own
 * adapter types so one MemPartition can straddle two domains.
 *
 * Every adapter reports an *accurate per-side* nextEventAt()
 * promise (the earliest absolute core cycle its own tick could
 * move anything), never a whole-component busy/idle bit: the
 * per-domain fast-forward caches these promises and lets each side
 * sleep independently, so the DRAM side of a partition can probe a
 * bank wait while its L2 side — and every SM — sleeps. The promise
 * only needs to be valid right after the adapter's own tick; the
 * owning Gpu declares the delivery paths as TickEngine wake edges.
 */

#ifndef GPULAT_GPU_PORTS_HH
#define GPULAT_GPU_PORTS_HH

#include <memory>
#include <vector>

#include "engine/clocked.hh"
#include "gpu/kernel_analysis.hh"
#include "icnt/crossbar.hh"
#include "mem/partition.hh"
#include "mem/request.hh"
#include "simt/core.hh"

namespace gpulat {

/** Ejects request-network packets into partition ROP queues. */
class NetToPartitionPort : public Clocked
{
  public:
    NetToPartitionPort(
        Crossbar<MemRequest> &net,
        std::vector<std::unique_ptr<MemPartition>> &partitions)
        : net_(net), partitions_(partitions)
    {
    }

    void
    tick(Cycle now) override
    {
        for (unsigned p = 0; p < net_.numDst(); ++p) {
            if (net_.deliverable(p, now) &&
                partitions_[p]->canAccept()) {
                partitions_[p]->accept(now, net_.eject(p));
            }
        }
    }

    Cycle
    nextEventAt(Cycle now) const override
    {
        (void)now;
        return net_.nextDeliveryAt();
    }

  private:
    Crossbar<MemRequest> &net_;
    std::vector<std::unique_ptr<MemPartition>> &partitions_;
};

/** Injects ready partition responses into the response network. */
class PartitionToNetPort : public Clocked
{
  public:
    PartitionToNetPort(
        std::vector<std::unique_ptr<MemPartition>> &partitions,
        Crossbar<MemRequest> &net)
        : partitions_(partitions), net_(net)
    {
    }

    void
    tick(Cycle now) override
    {
        for (unsigned p = 0; p < partitions_.size(); ++p) {
            if (!partitions_[p]->responseReady(now))
                continue;
            const unsigned dst = partitions_[p]->peekResponseSm();
            if (!net_.canInject(p))
                continue;
            MemRequest resp = partitions_[p]->popResponse();
            const bool ok = net_.inject(now, p, dst, std::move(resp));
            GPULAT_ASSERT(ok, "response inject after canInject");
        }
    }

    Cycle
    nextEventAt(Cycle now) const override
    {
        (void)now;
        Cycle e = kNoCycle;
        for (const auto &part : partitions_)
            e = std::min(e, part->nextResponseAt());
        return e;
    }

  private:
    std::vector<std::unique_ptr<MemPartition>> &partitions_;
    Crossbar<MemRequest> &net_;
};

/** Ejects response-network packets into their SM's writeback path. */
class NetToSmPort : public Clocked
{
  public:
    NetToSmPort(Crossbar<MemRequest> &net,
                std::vector<std::unique_ptr<SmCore>> &sms)
        : net_(net), sms_(sms)
    {
    }

    void
    tick(Cycle now) override
    {
        for (unsigned s = 0; s < net_.numDst(); ++s) {
            if (net_.deliverable(s, now))
                sms_[s]->acceptResponse(now, net_.eject(s));
        }
    }

    Cycle
    nextEventAt(Cycle now) const override
    {
        (void)now;
        return net_.nextDeliveryAt();
    }

  private:
    Crossbar<MemRequest> &net_;
    std::vector<std::unique_ptr<SmCore>> &sms_;
};

/** DRAM-side view of a partition (completions + scheduling). */
class PartitionMemSide : public Clocked
{
  public:
    explicit PartitionMemSide(MemPartition &part) : part_(part) {}
    void tick(Cycle now) override { part_.tickMemSide(now); }
    Cycle
    nextEventAt(Cycle now) const override
    {
        return part_.nextMemEventAt(now);
    }
    void
    fastForward(Cycle from, Cycle to) override
    {
        part_.skipMemSide(from, to);
    }

  private:
    MemPartition &part_;
};

/** ROP/L2-side view of a partition (front queues + pipes). */
class PartitionL2Side : public Clocked
{
  public:
    explicit PartitionL2Side(MemPartition &part) : part_(part) {}
    void tick(Cycle now) override { part_.tickL2Side(now); }
    Cycle
    nextEventAt(Cycle now) const override
    {
        return part_.nextL2EventAt(now);
    }

  private:
    MemPartition &part_;
};

/**
 * One grid launch: the context its SMs bind to (address-stable, SMs
 * keep a raw pointer), the SMs it owns, its dispatch cursor and the
 * SM-parallel safety verdict its SMs tick under.
 */
struct GridLaunch
{
    LaunchContext ctx;
    std::vector<unsigned> smIds;
    unsigned nextBlock = 0;
    bool serialized = false;
    SmParallelVerdict verdict;

    bool allDispatched() const { return nextBlock >= ctx.numBlocks; }
};

/**
 * Grid dispatcher for every active launch: up to one block per
 * owned SM per core cycle, round-robin over the launch's SMs from
 * offset `now % n`. The offset derives from the cycle, not a
 * tick-counted rotor, so cycles the engine skipped (no owned SM had
 * room, so none could dispatch) do not shift later decisions
 * between fast-forward modes.
 *
 * Registered after the SMs, and the serving scheduler after it: a
 * launch begun during cycle t receives blocks from t+1 on, after
 * its SMs have performed a real tick with the bound context.
 * Dispatching into an SM whose scheduled tick this cycle was
 * skipped would make its lazily flushed idle window non-idle,
 * diverging per-cycle statistics between fast-forward modes.
 */
class BlockDispatcher : public Clocked
{
  public:
    BlockDispatcher(std::vector<std::unique_ptr<SmCore>> &sms,
                    const std::vector<GridLaunch *> &active)
        : sms_(sms), active_(active)
    {
    }

    void tick(Cycle now) override;
    Cycle nextEventAt(Cycle now) const override;

  private:
    std::vector<std::unique_ptr<SmCore>> &sms_;
    const std::vector<GridLaunch *> &active_;
};

} // namespace gpulat

#endif // GPULAT_GPU_PORTS_HH
