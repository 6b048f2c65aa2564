#include "mem/device_memory.hh"

#include <cerrno>
#include <system_error>

#include <sys/mman.h>

namespace gpulat {

DeviceMemory::DeviceMemory(std::uint64_t bytes) : size_(bytes)
{
    if (bytes == 0)
        return;
    // MAP_NORESERVE: a config may name far more device memory than
    // its workload touches, and untouched pages cost nothing.
    void *p = mmap(nullptr, bytes, PROT_READ | PROT_WRITE,
                   MAP_PRIVATE | MAP_ANONYMOUS | MAP_NORESERVE, -1, 0);
    if (p == MAP_FAILED)
        fatal("cannot map deviceMemBytes=", bytes, ": ",
              std::generic_category().message(errno));
    data_ = static_cast<std::uint8_t *>(p);
}

DeviceMemory::~DeviceMemory()
{
    if (data_ != nullptr)
        munmap(data_, size_);
}

} // namespace gpulat
