/**
 * @file
 * Functional device memory: flat byte store + bump allocator.
 *
 * Timing lives entirely in the caches/interconnect/DRAM models; this
 * class is the architectural state kernels actually read and write.
 * The store is an anonymous private mapping, so the host kernel
 * supplies zero pages on first touch: a Gpu costs the time and
 * resident memory of the pages its workload touches, not of
 * deviceMemBytes.
 */

#ifndef GPULAT_MEM_DEVICE_MEMORY_HH
#define GPULAT_MEM_DEVICE_MEMORY_HH

#include <cstdint>
#include <cstring>

#include "common/log.hh"
#include "common/types.hh"

namespace gpulat {

class DeviceMemory
{
  public:
    /** Map @p bytes of zeroed memory (0 maps nothing). */
    explicit DeviceMemory(std::uint64_t bytes);
    ~DeviceMemory();

    DeviceMemory(const DeviceMemory &) = delete;
    DeviceMemory &operator=(const DeviceMemory &) = delete;

    /**
     * Allocate @p bytes with @p align alignment (bump allocator;
     * there is no free(), experiments create a fresh Gpu instead).
     */
    Addr
    alloc(std::uint64_t bytes, std::uint64_t align = 256)
    {
        GPULAT_ASSERT(align > 0 && (align & (align - 1)) == 0,
                      "alignment must be a power of two");
        Addr base = (brk_ + align - 1) & ~(align - 1);
        if (outOfRange(base, bytes, size_))
            fatal("device memory exhausted: want ", bytes,
                  " bytes at ", base, ", have deviceMemBytes=", size_);
        brk_ = base + bytes;
        return base;
    }

    std::uint64_t
    read64(Addr addr) const
    {
        checkRange(addr, 8);
        std::uint64_t v;
        std::memcpy(&v, data_ + addr, 8);
        return v;
    }

    void
    write64(Addr addr, std::uint64_t value)
    {
        checkRange(addr, 8);
        std::memcpy(data_ + addr, &value, 8);
    }

    void
    copyIn(Addr addr, const void *src, std::uint64_t bytes)
    {
        checkRange(addr, bytes);
        if (bytes != 0) // data_ is null when nothing is mapped
            std::memcpy(data_ + addr, src, bytes);
    }

    void
    copyOut(Addr addr, void *dst, std::uint64_t bytes) const
    {
        checkRange(addr, bytes);
        if (bytes != 0)
            std::memcpy(dst, data_ + addr, bytes);
    }

    std::uint64_t size() const { return size_; }
    std::uint64_t allocated() const { return brk_; }

  private:
    void
    checkRange(Addr addr, std::uint64_t bytes) const
    {
        if (outOfRange(addr, bytes, size_))
            fatal("device memory access out of range: [", addr, ", ",
                  addr + bytes, ") of ", size_);
    }

    std::uint8_t *data_ = nullptr;
    std::uint64_t size_;
    Addr brk_ = 0;
};

} // namespace gpulat

#endif // GPULAT_MEM_DEVICE_MEMORY_HH
