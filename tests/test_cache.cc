/**
 * @file
 * Unit + property tests for the cache tag array and MSHR table.
 */

#include <map>
#include <set>

#include <gtest/gtest.h>

#include "cache/cache.hh"
#include "cache/mshr.hh"
#include "common/random.hh"

namespace gpulat {
namespace {

CacheParams
smallParams()
{
    CacheParams p;
    p.capacityBytes = 4 * 1024; // 32 lines
    p.lineBytes = 128;
    p.ways = 4;
    return p;
}

TEST(Cache, MissThenFillThenHit)
{
    StatRegistry stats;
    Cache cache("c", smallParams(), WritePolicy::WriteThrough, &stats);
    EXPECT_EQ(cache.access(0, false, 0), CacheOutcome::Miss);
    EXPECT_FALSE(cache.contains(0));
    cache.fill(0, 1);
    EXPECT_TRUE(cache.contains(0));
    EXPECT_EQ(cache.access(0, false, 2), CacheOutcome::Hit);
    EXPECT_EQ(cache.hits(), 1u);
    EXPECT_EQ(cache.misses(), 1u);
}

TEST(Cache, RejectsUnalignedAddress)
{
    StatRegistry stats;
    Cache cache("c", smallParams(), WritePolicy::WriteThrough, &stats);
    EXPECT_THROW(cache.access(4, false, 0), PanicError);
}

TEST(Cache, LruEvictsLeastRecentlyUsed)
{
    StatRegistry stats;
    CacheParams p = smallParams(); // 8 sets, 4 ways
    Cache cache("c", p, WritePolicy::WriteThrough, &stats);
    const Addr set_stride = 8 * 128; // same set every 1KB

    // Fill one set's 4 ways at increasing times.
    for (Addr i = 0; i < 4; ++i)
        cache.fill(i * set_stride, i);
    // Touch line 0 so line 1 becomes LRU.
    EXPECT_EQ(cache.access(0, false, 10), CacheOutcome::Hit);
    // New fill in the same set evicts line 1.
    cache.fill(4 * set_stride, 11);
    EXPECT_TRUE(cache.contains(0));
    EXPECT_FALSE(cache.contains(1 * set_stride));
    EXPECT_TRUE(cache.contains(4 * set_stride));
}

TEST(Cache, WriteThroughDoesNotAllocateOnWriteMiss)
{
    StatRegistry stats;
    CacheParams p = smallParams();
    Cache cache("c", p, WritePolicy::WriteThrough, &stats);
    EXPECT_EQ(cache.access(0, true, 0), CacheOutcome::WriteNoAllocate);
    EXPECT_FALSE(cache.contains(0));
    EXPECT_EQ(cache.misses(), 0u); // nothing waits on a write miss
}

TEST(Cache, WriteBackMarksDirtyAndEvictsDirty)
{
    StatRegistry stats;
    CacheParams p = smallParams();
    p.ways = 1; // direct-mapped for deterministic eviction
    Cache cache("c", p, WritePolicy::WriteBack, &stats);
    const Addr conflict = p.capacityBytes; // same set as addr 0

    cache.fill(0, 0);
    EXPECT_EQ(cache.access(0, true, 1), CacheOutcome::Hit);
    const auto victim = cache.fill(conflict, 2);
    ASSERT_TRUE(victim.has_value());
    EXPECT_EQ(*victim, 0u);
}

TEST(Cache, CleanEvictionYieldsNoWriteback)
{
    StatRegistry stats;
    CacheParams p = smallParams();
    p.ways = 1;
    Cache cache("c", p, WritePolicy::WriteBack, &stats);
    cache.fill(0, 0);
    EXPECT_FALSE(cache.fill(p.capacityBytes, 1).has_value());
}

TEST(Cache, FillIsIdempotentForPresentLine)
{
    StatRegistry stats;
    Cache cache("c", smallParams(), WritePolicy::WriteThrough, &stats);
    cache.fill(128, 0);
    EXPECT_FALSE(cache.fill(128, 1).has_value());
    EXPECT_TRUE(cache.contains(128));
}

TEST(Cache, CapacityWorkingSetFitsExactly)
{
    StatRegistry stats;
    CacheParams p = smallParams();
    Cache cache("c", p, WritePolicy::WriteThrough, &stats);
    const Addr lines = p.capacityBytes / p.lineBytes;
    for (Addr i = 0; i < lines; ++i)
        cache.fill(i * 128, i);
    // The whole working set must still be resident.
    for (Addr i = 0; i < lines; ++i)
        EXPECT_TRUE(cache.contains(i * 128)) << "line " << i;
}

/**
 * Property: against a reference model (map of sets to LRU lists),
 * the cache gives identical hit/miss answers on random traffic.
 */
TEST(CacheProperty, MatchesReferenceLruModel)
{
    StatRegistry stats;
    CacheParams p = smallParams();
    Cache cache("c", p, WritePolicy::WriteThrough, &stats);

    const std::size_t sets = p.sets();
    std::map<std::size_t, std::vector<Addr>> ref; // MRU front

    Rng rng(99);
    for (int step = 0; step < 20000; ++step) {
        const Addr line = rng.below(256) * 128;
        const std::size_t set = (line / 128) % sets;
        auto &lru = ref[set];
        const auto it = std::find(lru.begin(), lru.end(), line);
        const bool ref_hit = it != lru.end();

        const auto outcome = cache.access(
            line, false, static_cast<Cycle>(step));
        EXPECT_EQ(outcome == CacheOutcome::Hit, ref_hit)
            << "step " << step;

        if (ref_hit) {
            lru.erase(it);
            lru.insert(lru.begin(), line);
        } else {
            cache.fill(line, static_cast<Cycle>(step));
            lru.insert(lru.begin(), line);
            if (lru.size() > p.ways)
                lru.pop_back();
        }
    }
}

/** Geometry sweep: the reference-model equivalence must hold for
 *  every (capacity, ways) shape, including direct-mapped and
 *  fully-associative corners. */
class CacheGeometries
    : public ::testing::TestWithParam<std::pair<std::uint64_t,
                                                std::uint32_t>>
{
};

TEST_P(CacheGeometries, MatchesReferenceLruModel)
{
    StatRegistry stats;
    CacheParams p;
    p.capacityBytes = GetParam().first;
    p.lineBytes = 128;
    p.ways = GetParam().second;
    Cache cache("c", p, WritePolicy::WriteThrough, &stats);

    const std::size_t sets = p.sets();
    std::map<std::size_t, std::vector<Addr>> ref;

    Rng rng(GetParam().first + GetParam().second);
    for (int step = 0; step < 5000; ++step) {
        const Addr line = rng.below(512) * 128;
        const std::size_t set = (line / 128) % sets;
        auto &lru = ref[set];
        const auto it = std::find(lru.begin(), lru.end(), line);
        const bool ref_hit = it != lru.end();
        const auto outcome =
            cache.access(line, false, static_cast<Cycle>(step));
        ASSERT_EQ(outcome == CacheOutcome::Hit, ref_hit)
            << "step " << step;
        if (ref_hit) {
            lru.erase(it);
            lru.insert(lru.begin(), line);
        } else {
            cache.fill(line, static_cast<Cycle>(step));
            lru.insert(lru.begin(), line);
            if (lru.size() > p.ways)
                lru.pop_back();
        }
    }
}

INSTANTIATE_TEST_SUITE_P(
    Shapes, CacheGeometries,
    ::testing::Values(
        std::pair<std::uint64_t, std::uint32_t>{2048, 1},
        std::pair<std::uint64_t, std::uint32_t>{4096, 2},
        std::pair<std::uint64_t, std::uint32_t>{4096, 32},
        std::pair<std::uint64_t, std::uint32_t>{16384, 4},
        std::pair<std::uint64_t, std::uint32_t>{16384, 8},
        std::pair<std::uint64_t, std::uint32_t>{65536, 16}));

TEST(Mshr, PrimaryThenMergesThenRelease)
{
    MshrTable<int> mshr(4, 4);
    EXPECT_EQ(mshr.allocate(128, 1), MshrOutcome::NewEntry);
    EXPECT_EQ(mshr.allocate(128, 2), MshrOutcome::Merged);
    EXPECT_EQ(mshr.allocate(128, 3), MshrOutcome::Merged);
    EXPECT_TRUE(mshr.pending(128));
    EXPECT_EQ(mshr.peekCount(128), 3u);
    const auto payloads = mshr.release(128);
    EXPECT_EQ(payloads, (std::vector<int>{1, 2, 3}));
    EXPECT_FALSE(mshr.pending(128));
}

TEST(Mshr, EntryCapacityStalls)
{
    MshrTable<int> mshr(2, 8);
    EXPECT_EQ(mshr.allocate(0, 1), MshrOutcome::NewEntry);
    EXPECT_EQ(mshr.allocate(128, 2), MshrOutcome::NewEntry);
    EXPECT_EQ(mshr.allocate(256, 3), MshrOutcome::FullEntries);
    mshr.release(0);
    EXPECT_EQ(mshr.allocate(256, 3), MshrOutcome::NewEntry);
}

TEST(Mshr, MergeCapacityStalls)
{
    MshrTable<int> mshr(4, 2);
    EXPECT_EQ(mshr.allocate(0, 1), MshrOutcome::NewEntry);
    EXPECT_EQ(mshr.allocate(0, 2), MshrOutcome::Merged);
    EXPECT_EQ(mshr.allocate(0, 3), MshrOutcome::FullMerges);
}

TEST(Mshr, ReleaseOfUntrackedLinePanics)
{
    MshrTable<int> mshr(2, 2);
    EXPECT_THROW(mshr.release(512), PanicError);
}

} // namespace
} // namespace gpulat
