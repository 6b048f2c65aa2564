/**
 * @file
 * Allocation regression test. The SM and memory-pipeline state that
 * every simulated cycle touches (scoreboard writebacks, timed
 * queues, MSHR tables) is reused rather than allocated per event, so
 * a simulation costs few heap allocations per warp instruction.
 *
 * This binary replaces the global operator new with a counting one
 * and counts the allocations made inside Workload::run, after
 * Gpu::Gpu has built the machine, exactly as `gpulat run` drives a
 * cell.
 */

#include <atomic>
#include <cstdint>
#include <cstdlib>
#include <iostream>
#include <new>
#include <string>
#include <vector>

#include <gtest/gtest.h>

#include "api/param_map.hh"
#include "api/workload_registry.hh"
#include "gpu/gpu.hh"
#include "workloads/workload.hh"

namespace {

std::atomic<bool> gCounting{false};
std::atomic<std::uint64_t> gAllocations{0};

void *
countedAlloc(std::size_t bytes, std::size_t align = 0)
{
    if (gCounting.load(std::memory_order_relaxed))
        gAllocations.fetch_add(1, std::memory_order_relaxed);
    if (bytes == 0)
        bytes = 1;
    void *p = align == 0
        ? std::malloc(bytes)
        : std::aligned_alloc(align, (bytes + align - 1) / align * align);
    if (!p)
        throw std::bad_alloc();
    return p;
}

} // namespace

// Every form is replaced, so that under a sanitizer that brings its
// own operator new no block allocated by one family is freed by the
// other.
void *operator new(std::size_t n) { return countedAlloc(n); }
void *operator new[](std::size_t n) { return countedAlloc(n); }
void *
operator new(std::size_t n, std::align_val_t a)
{
    return countedAlloc(n, static_cast<std::size_t>(a));
}
void *
operator new[](std::size_t n, std::align_val_t a)
{
    return countedAlloc(n, static_cast<std::size_t>(a));
}
void *
operator new(std::size_t n, const std::nothrow_t &) noexcept
{
    try {
        return countedAlloc(n);
    } catch (const std::bad_alloc &) {
        return nullptr;
    }
}
void *
operator new[](std::size_t n, const std::nothrow_t &) noexcept
{
    try {
        return countedAlloc(n);
    } catch (const std::bad_alloc &) {
        return nullptr;
    }
}
void operator delete(void *p) noexcept { std::free(p); }
void operator delete[](void *p) noexcept { std::free(p); }
void operator delete(void *p, std::size_t) noexcept { std::free(p); }
void operator delete[](void *p, std::size_t) noexcept { std::free(p); }
void operator delete(void *p, std::align_val_t) noexcept { std::free(p); }
void operator delete[](void *p, std::align_val_t) noexcept
{
    std::free(p);
}
void
operator delete(void *p, std::size_t, std::align_val_t) noexcept
{
    std::free(p);
}
void
operator delete[](void *p, std::size_t, std::align_val_t) noexcept
{
    std::free(p);
}

namespace gpulat {
namespace {

struct Count
{
    std::uint64_t allocations = 0;
    std::uint64_t warpInstructions = 0;
    bool correct = false;

    double
    perThousand() const
    {
        return 1000.0 * static_cast<double>(allocations) /
               static_cast<double>(warpInstructions);
    }
};

/** `gpulat run --workload W ARGS` on gf100-sim, counting only the
 *  allocations inside Workload::run. */
Count
countRun(const std::string &workload,
         const std::vector<std::string> &assignments)
{
    const WorkloadRegistry &reg = WorkloadRegistry::instance();
    ParamMap params = reg.scaledParams(workload, 1.0);
    for (const std::string &a : assignments) {
        const auto [key, value] = ParamMap::splitAssignment(a);
        params.set(key, value);
    }
    const auto w = reg.create(workload, params);
    Gpu gpu(makeConfig("gf100-sim"));
    gAllocations = 0;
    gCounting = true;
    const bool correct = w->run(gpu).correct;
    gCounting = false;
    Count c;
    c.allocations = gAllocations;
    c.warpInstructions = gpu.issuedInstructions();
    c.correct = correct;
    return c;
}

// Both bounds sit about twice above what the simulator needs and far
// below one allocation per scoreboard writeback or queue entry. What
// remains is mostly the LSU's per-instruction transaction lists.

TEST(Allocations, GemmUnder50PerThousandWarpInstructions)
{
    const Count c = countRun("gemm", {"n=128"});
    ASSERT_TRUE(c.correct);
    ASSERT_GT(c.warpInstructions, 0u);
    std::cout << "gemm n=128: " << c.allocations << " allocations, "
              << c.warpInstructions << " warp instructions ("
              << c.perThousand() << " per thousand)\n";
    EXPECT_LT(c.perThousand(), 50.0);
}

TEST(Allocations, BfsUnder500PerThousandWarpInstructions)
{
    const Count c = countRun("bfs", {"scale=12"});
    ASSERT_TRUE(c.correct);
    ASSERT_GT(c.warpInstructions, 0u);
    std::cout << "bfs scale=12: " << c.allocations << " allocations, "
              << c.warpInstructions << " warp instructions ("
              << c.perThousand() << " per thousand)\n";
    EXPECT_LT(c.perThousand(), 500.0);
}

} // namespace
} // namespace gpulat
