/**
 * @file
 * Set-associative cache tag-array model used for both the per-SM L1
 * data caches and the per-partition L2 slices.
 *
 * Only tags/state are modelled; data is functional (held in
 * DeviceMemory). Timing comes from the surrounding pipeline, so the
 * cache itself answers hit/miss and tracks dirtiness/evictions.
 */

#ifndef GPULAT_CACHE_CACHE_HH
#define GPULAT_CACHE_CACHE_HH

#include <cstdint>
#include <optional>
#include <string>
#include <vector>

#include "common/spelling.hh"
#include "common/stats.hh"
#include "common/types.hh"

namespace gpulat {

/** Write policies. */
enum class WritePolicy : std::uint8_t {
    /** Write-through, no write-allocate (GPU L1 style): writes
     *  update a present line and always propagate downstream. */
    WriteThrough,
    /** Write-back, write-allocate-on-fill (GPU L2 style). */
    WriteBack,
};

/** `sm.l1Cache.write` / `partition.l2Cache.write` spellings. */
inline constexpr Spelling<WritePolicy> kWritePolicySpellings[] = {
    {"writethrough", WritePolicy::WriteThrough},
    {"writeback", WritePolicy::WriteBack},
};

/** Geometry + write policy of one cache (replacement is LRU). */
struct CacheParams
{
    std::uint64_t capacityBytes = 16 * 1024;
    std::uint32_t lineBytes = 128;
    std::uint32_t ways = 4;
    WritePolicy write = WritePolicy::WriteThrough;

    std::uint64_t sets() const
    {
        return capacityBytes / lineBytes / ways;
    }
};

/** Result of a cache access. */
enum class CacheOutcome : std::uint8_t {
    Hit,
    Miss,
    /** Write miss under write-through/no-allocate: nothing to do in
     *  the array, the write simply goes downstream. */
    WriteNoAllocate,
};

/**
 * The tag array. All addresses passed in must be line-aligned.
 */
class Cache
{
  public:
    /**
     * @param name stats prefix ("sm0.l1").
     * @param params geometry.
     * @param stats registry the hit/miss counters live in.
     */
    Cache(std::string name, const CacheParams &params,
          StatRegistry *stats);

    /**
     * Perform a read or write lookup at cycle @p now (used as the
     * LRU timestamp).
     *
     * Read miss does NOT allocate; the line is installed later via
     * fill() when the downstream response arrives (allocate-on-fill,
     * as GPGPU-Sim models Fermi).
     */
    CacheOutcome access(Addr line_addr, bool is_write, Cycle now);

    /**
     * Install @p line_addr (a returning fill).
     * @return the address of an evicted *dirty* line that must be
     *         written downstream, if any.
     */
    std::optional<Addr> fill(Addr line_addr, Cycle now);

    /** Pure lookup without side effects. */
    bool contains(Addr line_addr) const;

    /** Mark a present line dirty (atomic RMW at this level). */
    void markDirty(Addr line_addr);

    const CacheParams &params() const { return params_; }

    std::uint64_t hits() const { return hits_->value(); }
    std::uint64_t misses() const { return misses_->value(); }

  private:
    struct Line
    {
        Addr tag = kNoAddr; ///< full line address (simple, unique)
        bool valid = false;
        bool dirty = false;
        Cycle lastUse = 0;  ///< last hit or fill (LRU order)
    };

    Line *findLine(Addr line_addr);
    const Line *findLine(Addr line_addr) const;
    std::size_t setIndex(Addr line_addr) const;
    Line &victimIn(std::size_t set);

    std::string name_;
    CacheParams params_;
    std::vector<Line> lines_; ///< sets * ways, set-major

    Counter *hits_;
    Counter *misses_;
    Counter *evictions_;
    Counter *dirtyEvictions_;
};

} // namespace gpulat

#endif // GPULAT_CACHE_CACHE_HH
