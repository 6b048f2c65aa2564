#include "host_probe.hh"

#include <sys/mman.h>

#include <algorithm>
#include <cstring>
#include <new>

namespace perfbench {
namespace {

constexpr std::size_t kSets = 4096;
constexpr std::size_t kWays = 8;
constexpr int kLookups = 3'000'000;
constexpr std::size_t kKeys = std::size_t{1} << 16;
constexpr int kSorts = 10;
constexpr std::size_t kFillBytes = std::size_t{64} << 20;
constexpr std::size_t kPageBytes = 4096;

std::uint64_t
xorshift(std::uint64_t &s)
{
    s ^= s << 13;
    s ^= s >> 7;
    s ^= s << 17;
    return s;
}

/** LRU tag lookups over a footprint four times the array's reach;
 *  returns the hit count. */
std::uint64_t
lookups(std::vector<std::uint64_t> &tags, std::vector<std::uint8_t> &ages)
{
    std::fill(tags.begin(), tags.end(), ~std::uint64_t{0});
    std::fill(ages.begin(), ages.end(), 0);
    std::uint64_t s = 12345;
    std::uint64_t hits = 0;
    for (int i = 0; i < kLookups; ++i) {
        const std::uint64_t r = xorshift(s);
        const std::uint64_t line = (r & 0xffff) + ((r >> 40) & 3) * 0x10000;
        std::uint64_t *way = &tags[(line % kSets) * kWays];
        std::uint8_t *age = &ages[(line % kSets) * kWays];
        const std::uint64_t tag = line / kSets;
        std::size_t hit = kWays;
        for (std::size_t w = 0; w < kWays; ++w) {
            if (way[w] == tag) {
                hit = w;
                break;
            }
        }
        if (hit < kWays) {
            ++hits;
            for (std::size_t w = 0; w < kWays; ++w)
                age[w] += age[w] < age[hit];
            age[hit] = 0;
        } else {
            std::size_t victim = 0;
            for (std::size_t w = 1; w < kWays; ++w)
                victim = age[w] > age[victim] ? w : victim;
            for (std::size_t w = 0; w < kWays; ++w)
                ++age[w];
            way[victim] = tag;
            age[victim] = 0;
        }
    }
    return hits;
}

std::uint64_t
sorts(std::vector<std::uint32_t> &keys)
{
    std::uint64_t s = 999;
    std::uint64_t sum = 0;
    for (int i = 0; i < kSorts; ++i) {
        for (std::uint32_t &k : keys)
            k = static_cast<std::uint32_t>(xorshift(s));
        std::sort(keys.begin(), keys.end());
        sum += keys[keys.size() / 2];
    }
    return sum;
}

/** Zero-fill freshly mapped pages and give them back: page faults
 *  plus memset, like constructing DeviceMemory. */
std::uint64_t
fill()
{
    void *p = mmap(nullptr, kFillBytes, PROT_READ | PROT_WRITE,
                   MAP_PRIVATE | MAP_ANONYMOUS, -1, 0);
    if (p == MAP_FAILED)
        throw std::bad_alloc();
    std::memset(p, 0, kFillBytes);
    std::uint64_t sum = 0;
    const auto *bytes = static_cast<const volatile std::uint8_t *>(p);
    for (std::size_t off = 0; off < kFillBytes; off += kPageBytes)
        sum += bytes[off];
    munmap(p, kFillBytes);
    return sum;
}

} // namespace

HostProbe::HostProbe()
    : tags_(kSets * kWays), ages_(kSets * kWays), keys_(kKeys)
{
    run();
}

std::uint64_t
HostProbe::run()
{
    return lookups(tags_, ages_) + sorts(keys_) + fill();
}

} // namespace perfbench
