/**
 * @file
 * Collectors the simulator feeds during execution; analyzers consume
 * them afterwards to produce the paper's figures.
 *
 * Both collectors are *sharded*: every SM appends to its own private
 * shard, so SM cores assigned to different tick groups can record
 * concurrently without sharing mutable state. Each append carries a
 * merge tag — the core cycle it happened on plus a phase bit
 * (phase 0: a response delivered by the return-network port, which
 * ticks before every SM; phase 1: the SM's own tick) — and readers
 * see a lazily merged view ordered by (cycle, phase, shard). That
 * key reproduces the exact append order a single shared collector
 * sees under serial ticking: within a core cycle the return port
 * delivers into SMs in ascending smId order first, then the SMs
 * tick in registration (= smId) order. Per shard the tag sequence
 * is nondecreasing by construction, so a stable k-way merge suffices
 * and the merged view is byte-identical for every tickJobs value.
 *
 * Readers (reports, record aggregation) run on the host thread
 * after the engine settles; shards are only appended to from inside
 * ticks. The merged view is rebuilt when the shard totals outgrow
 * it, so no cross-thread dirty flag is needed.
 */

#ifndef GPULAT_LATENCY_COLLECTOR_HH
#define GPULAT_LATENCY_COLLECTOR_HH

#include <cstdint>
#include <vector>

#include "common/types.hh"
#include "latency/stages.hh"

namespace gpulat {

namespace detail {

/** (cycle << 1) | phase — cycles stay far below 2^63. */
inline std::uint64_t
mergeTag(Cycle cycle, unsigned phase)
{
    return (cycle << 1) | (phase & 1u);
}

/**
 * Stable k-way merge of per-shard (tag, record) sequences into
 * @p merged. Each shard's tags are nondecreasing (appends happen in
 * cycle order, phase 0 before phase 1 within a cycle), so repeated
 * min-selection with the shard index as tie-breaker reproduces the
 * serial shared-collector append order.
 */
template <typename Shard, typename Record>
void
mergeShards(const std::vector<Shard> &shards,
            std::vector<Record> &merged)
{
    merged.clear();
    std::size_t total = 0;
    for (const Shard &shard : shards)
        total += shard.records.size();
    merged.reserve(total);

    std::vector<std::size_t> next(shards.size(), 0);
    while (merged.size() < total) {
        std::size_t best = shards.size();
        std::uint64_t best_tag = ~std::uint64_t{0};
        for (std::size_t s = 0; s < shards.size(); ++s) {
            if (next[s] >= shards[s].records.size())
                continue;
            const std::uint64_t tag = shards[s].tags[next[s]];
            if (best == shards.size() || tag < best_tag) {
                best = s;
                best_tag = tag;
            }
        }
        merged.push_back(shards[best].records[next[best]++]);
    }
}

} // namespace detail

/**
 * Completed per-request (cache-line transaction) latency traces —
 * the raw data behind Figure 1.
 */
class LatencyCollector
{
  public:
    /** Per-SM append handle; pointers stay valid after resize(). */
    class Shard
    {
      public:
        void
        record(Cycle cycle, unsigned phase, const LatencyTrace &trace)
        {
            tags.push_back(detail::mergeTag(cycle, phase));
            records.push_back(trace);
        }

        std::vector<std::uint64_t> tags;
        std::vector<LatencyTrace> records;
    };

    /** Size the shard array (once, before handing out shards). */
    void
    resize(std::size_t shards)
    {
        shards_.resize(shards);
    }

    Shard &shard(std::size_t i) { return shards_[i]; }

    /** Merged traces in serial append order (lazily rebuilt). */
    const std::vector<LatencyTrace> &
    traces() const
    {
        if (merged_.size() != count())
            detail::mergeShards(shards_, merged_);
        return merged_;
    }

    std::size_t
    count() const
    {
        std::size_t total = 0;
        for (const Shard &shard : shards_)
            total += shard.records.size();
        return total;
    }

    /** Enable/disable recording (microbenchmark warm-up rounds). */
    void setEnabled(bool enabled) { enabled_ = enabled; }
    bool enabled() const { return enabled_; }

  private:
    std::vector<Shard> shards_{1};
    mutable std::vector<LatencyTrace> merged_;
    bool enabled_ = true;
};

/** Per-load-instruction exposure record — the raw data of Fig. 2. */
struct ExposureRecord
{
    Cycle total;   ///< load lifetime, issue -> writeback
    Cycle exposed; ///< cycles of that lifetime the SM issued nothing
};

class ExposureCollector
{
  public:
    /** Per-SM append handle; pointers stay valid after resize(). */
    class Shard
    {
      public:
        void
        record(Cycle cycle, unsigned phase, Cycle total, Cycle exposed)
        {
            tags.push_back(detail::mergeTag(cycle, phase));
            records.push_back(ExposureRecord{total, exposed});
        }

        std::vector<std::uint64_t> tags;
        std::vector<ExposureRecord> records;
    };

    /** Size the shard array (once, before handing out shards). */
    void
    resize(std::size_t shards)
    {
        shards_.resize(shards);
    }

    Shard &shard(std::size_t i) { return shards_[i]; }

    /** Merged records in serial append order (lazily rebuilt). */
    const std::vector<ExposureRecord> &
    records() const
    {
        if (merged_.size() != count())
            detail::mergeShards(shards_, merged_);
        return merged_;
    }

    std::size_t
    count() const
    {
        std::size_t total = 0;
        for (const Shard &shard : shards_)
            total += shard.records.size();
        return total;
    }

  private:
    std::vector<Shard> shards_{1};
    mutable std::vector<ExposureRecord> merged_;
};

} // namespace gpulat

#endif // GPULAT_LATENCY_COLLECTOR_HH
