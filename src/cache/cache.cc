#include "cache/cache.hh"

#include <bit>

#include "common/log.hh"

namespace gpulat {

Cache::Cache(std::string name, const CacheParams &params,
             WritePolicy write, StatRegistry *stats)
    : name_(std::move(name)), params_(params), write_(write)
{
    GPULAT_ASSERT(params_.lineBytes > 0 &&
                  std::has_single_bit(params_.lineBytes),
                  "line size must be a power of two");
    GPULAT_ASSERT(params_.ways > 0, "cache needs >= 1 way");
    const auto sets = params_.sets();
    GPULAT_ASSERT(sets > 0 && std::has_single_bit(sets),
                  "cache '", name_, "': set count ", sets,
                  " must be a power of two (capacity ",
                  params_.capacityBytes, " line ", params_.lineBytes,
                  " ways ", params_.ways, ")");
    lines_.resize(sets * params_.ways);

    GPULAT_ASSERT(stats != nullptr, "cache needs a stat registry");
    hits_ = &stats->counter(name_ + ".hits");
    misses_ = &stats->counter(name_ + ".misses");
    evictions_ = &stats->counter(name_ + ".evictions");
    dirtyEvictions_ = &stats->counter(name_ + ".dirty_evictions");
}

std::size_t
Cache::setIndex(Addr line_addr) const
{
    return (line_addr / params_.lineBytes) % params_.sets();
}

Cache::Line *
Cache::findLine(Addr line_addr)
{
    const std::size_t set = setIndex(line_addr);
    Line *base = &lines_[set * params_.ways];
    for (std::uint32_t w = 0; w < params_.ways; ++w) {
        if (base[w].valid && base[w].tag == line_addr)
            return &base[w];
    }
    return nullptr;
}

const Cache::Line *
Cache::findLine(Addr line_addr) const
{
    return const_cast<Cache *>(this)->findLine(line_addr);
}

bool
Cache::contains(Addr line_addr) const
{
    return findLine(line_addr) != nullptr;
}

void
Cache::markDirty(Addr line_addr)
{
    if (Line *line = findLine(line_addr))
        line->dirty = true;
}

CacheOutcome
Cache::access(Addr line_addr, bool is_write, Cycle now)
{
    GPULAT_ASSERT(line_addr % params_.lineBytes == 0,
                  "unaligned line address");
    Line *line = findLine(line_addr);
    if (line) {
        hits_->inc();
        line->lastUse = now;
        if (is_write) {
            if (write_ == WritePolicy::WriteBack)
                line->dirty = true;
            // Write-through: line stays clean; the caller forwards
            // the write downstream regardless.
        }
        return CacheOutcome::Hit;
    }

    if (is_write && write_ == WritePolicy::WriteThrough) {
        // No-allocate on write miss; not counted as a demand miss
        // since nothing waits on it.
        return CacheOutcome::WriteNoAllocate;
    }

    misses_->inc();
    return CacheOutcome::Miss;
}

Cache::Line &
Cache::victimIn(std::size_t set)
{
    Line *base = &lines_[set * params_.ways];
    Line *victim = base;
    for (std::uint32_t w = 0; w < params_.ways; ++w) {
        if (!base[w].valid)
            return base[w];
        if (base[w].lastUse < victim->lastUse)
            victim = &base[w];
    }
    return *victim;
}

std::optional<Addr>
Cache::fill(Addr line_addr, Cycle now)
{
    GPULAT_ASSERT(line_addr % params_.lineBytes == 0,
                  "unaligned line address");
    if (findLine(line_addr))
        return std::nullopt; // already present (merged fill)

    Line &victim = victimIn(setIndex(line_addr));
    std::optional<Addr> writeback;
    if (victim.valid) {
        evictions_->inc();
        if (victim.dirty) {
            dirtyEvictions_->inc();
            writeback = victim.tag;
        }
    }
    victim.valid = true;
    victim.dirty = false;
    victim.tag = line_addr;
    victim.lastUse = now;
    return writeback;
}

} // namespace gpulat
