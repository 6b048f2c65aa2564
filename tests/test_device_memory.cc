/**
 * @file
 * Device memory: pages are zero on demand, so a Gpu's resident
 * memory follows what its workload touches, not deviceMemBytes; and
 * no address or size near 2^64 can wrap past a range check.
 */

#include <gtest/gtest.h>

#include <cstdint>
#include <fstream>
#include <string>

#include <unistd.h>

#include "gpu/gpu.hh"
#include "mem/device_memory.hh"

namespace gpulat {
namespace {

constexpr std::uint64_t kMiB = 1024 * 1024;

/** Resident set size of this process, from /proc/self/statm. */
std::int64_t
residentBytes()
{
    std::ifstream statm("/proc/self/statm");
    std::int64_t size_pages = 0;
    std::int64_t resident_pages = -1;
    statm >> size_pages >> resident_pages;
    EXPECT_GE(resident_pages, 0) << "cannot read /proc/self/statm";
    return resident_pages * sysconf(_SC_PAGESIZE);
}

/** The message of the FatalError @p fn throws ("" if none). */
template <typename Fn>
std::string
fatalMessage(Fn &&fn)
{
    try {
        fn();
    } catch (const FatalError &e) {
        return e.what();
    }
    return "";
}

TEST(DeviceMemory, UntouchedMemoryIsNotResident)
{
    const std::int64_t before = residentBytes();
    DeviceMemory dmem(512 * kMiB);
    EXPECT_LT(residentBytes() - before,
              static_cast<std::int64_t>(4 * kMiB));
}

TEST(DeviceMemory, Gf100GpuIsNotResident)
{
    // gf100-sim names 512 MiB of device memory.
    const std::int64_t before = residentBytes();
    Gpu gpu(makeConfig("gf100-sim"));
    EXPECT_LT(residentBytes() - before,
              static_cast<std::int64_t>(64 * kMiB));
}

TEST(DeviceMemory, FreshMemoryReadsZero)
{
    DeviceMemory dmem(512 * kMiB);
    EXPECT_EQ(dmem.read64(0), 0u);
    EXPECT_EQ(dmem.read64(dmem.size() - 8), 0u);
}

TEST(DeviceMemory, ExhaustedAtTheSameByte)
{
    DeviceMemory dmem(kMiB);
    EXPECT_EQ(dmem.alloc(kMiB - 256), 0u);
    EXPECT_EQ(dmem.alloc(256), kMiB - 256);
    EXPECT_EQ(dmem.allocated(), kMiB);
    EXPECT_EQ(fatalMessage([&] { dmem.alloc(1); }),
              "fatal: device memory exhausted: want 1 bytes at "
              "1048576, have deviceMemBytes=1048576");
}

TEST(DeviceMemory, WrappingRangesAreFatal)
{
    // Each call passes a check written as addr + bytes > size,
    // because the sum wraps below the memory's size.
    DeviceMemory dmem(kMiB);
    const std::uint64_t minus4 = ~std::uint64_t{0} - 3;
    std::uint8_t buf[16] = {};
    EXPECT_THROW(dmem.read64(minus4), FatalError);
    EXPECT_THROW(dmem.write64(minus4, 1), FatalError);
    EXPECT_THROW(dmem.copyIn(minus4, buf, 8), FatalError);
    EXPECT_THROW(dmem.copyIn(16, buf, minus4), FatalError);
    EXPECT_THROW(dmem.copyOut(minus4, buf, 8), FatalError);
    EXPECT_THROW(dmem.copyOut(16, buf, minus4), FatalError);
    dmem.alloc(256);
    EXPECT_THROW(dmem.alloc(minus4), FatalError);
    EXPECT_EQ(dmem.allocated(), 256u);
}

TEST(DeviceMemory, EmptyMemoryRejectsEveryAccess)
{
    // deviceMemBytes=0 maps nothing.
    DeviceMemory dmem(0);
    std::uint8_t buf[8] = {};
    EXPECT_EQ(dmem.size(), 0u);
    EXPECT_THROW(dmem.read64(0), FatalError);
    EXPECT_THROW(dmem.write64(0, 1), FatalError);
    EXPECT_THROW(dmem.copyIn(0, buf, 8), FatalError);
    EXPECT_THROW(dmem.copyOut(0, buf, 8), FatalError);
    EXPECT_THROW(dmem.alloc(1), FatalError);
    // An empty copy is in range and must not touch the null store.
    dmem.copyIn(0, buf, 0);
    dmem.copyOut(0, buf, 0);
}

TEST(DeviceMemory, FailedMappingIsFatal)
{
    // 4 EiB exceeds any host's user address space.
    const std::string what =
        fatalMessage([] { DeviceMemory dmem(std::uint64_t{1} << 62); });
    EXPECT_NE(what.find("deviceMemBytes"), std::string::npos) << what;
}

} // namespace
} // namespace gpulat
