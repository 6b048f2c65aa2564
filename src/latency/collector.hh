/**
 * @file
 * Collectors the simulator feeds during execution; analyzers consume
 * them afterwards to produce the paper's figures.
 *
 * Both collectors are *sharded*: every SM appends to its own private
 * vector, so SM cores assigned to different tick groups can record
 * concurrently without sharing mutable state. A read moves the
 * shards' new records onto the end of one vector, SM 0's first and
 * each SM's in its own append order, and frees the shards, so every
 * record is stored exactly once. No schedule changes the order of
 * one SM's appends, so a read is identical for every tickJobs value;
 * the figures aggregate without regard to order anyway.
 *
 * Readers (reports, record aggregation) run on the host thread
 * after the engine settles; shards are only appended to from inside
 * ticks.
 */

#ifndef GPULAT_LATENCY_COLLECTOR_HH
#define GPULAT_LATENCY_COLLECTOR_HH

#include <cstdint>
#include <vector>

#include "common/types.hh"
#include "latency/stages.hh"

namespace gpulat {

/** Per-SM record shards and the one vector a read moves them into. */
template <typename Record>
class ShardedCollector
{
  public:
    /** Per-SM append handle; pointers stay valid after resize(). */
    class Shard
    {
      public:
        void record(const Record &r) { records_.push_back(r); }

      private:
        friend class ShardedCollector;
        std::vector<Record> records_;
    };

    /** Size the shard array (once, before handing out shards). */
    void
    resize(std::size_t shards)
    {
        shards_.resize(shards);
    }

    Shard &shard(std::size_t i) { return shards_[i]; }

    /**
     * Every record appended so far: the records of earlier reads,
     * then the new ones in SM order, each SM's in append order.
     */
    const std::vector<Record> &
    records()
    {
        read_.reserve(count());
        for (Shard &shard : shards_) {
            read_.insert(read_.end(), shard.records_.begin(),
                         shard.records_.end());
            std::vector<Record>().swap(shard.records_);
        }
        return read_;
    }

    std::size_t
    count() const
    {
        std::size_t total = read_.size();
        for (const Shard &shard : shards_)
            total += shard.records_.size();
        return total;
    }

  private:
    std::vector<Shard> shards_{1};
    std::vector<Record> read_;
};

/**
 * Completed per-request (cache-line transaction) latency traces —
 * the raw data behind Figure 1.
 */
class LatencyCollector : public ShardedCollector<LatencyTrace>
{
  public:
    const std::vector<LatencyTrace> &traces() { return records(); }

    /** Enable/disable recording (microbenchmark warm-up rounds). */
    void setEnabled(bool enabled) { enabled_ = enabled; }
    bool enabled() const { return enabled_; }

  private:
    bool enabled_ = true;
};

/** Per-load-instruction exposure record — the raw data of Fig. 2. */
struct ExposureRecord
{
    Cycle total;   ///< load lifetime, issue -> writeback
    Cycle exposed; ///< cycles of that lifetime the SM issued nothing
};

using ExposureCollector = ShardedCollector<ExposureRecord>;

} // namespace gpulat

#endif // GPULAT_LATENCY_COLLECTOR_HH
