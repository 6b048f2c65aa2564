/**
 * @file
 * A fixed piece of host work that the cell runner times between
 * cells, to measure how fast the shared host runs at that moment.
 *
 * The benchmark runs on a few cores of a host whose neighbours'
 * load slows every thread by up to ~1.7x for minutes at a time.
 * analysis.py divides each cell's times by the probe times just
 * before and just after it (README.md, "Host-speed normalization"),
 * so the end-to-end metrics follow the simulator and not the
 * neighbours. The probe is the benchmark's own code and never calls
 * the simulator, so a change to the simulator cannot move it.
 *
 * Its work resembles what a cell asks of the host, because a
 * contended core slows different code by different amounts: tag
 * lookups in a set-associative LRU array (branchy, L1/L2-resident,
 * like the simulator's cache and table models), sorting, and
 * zero-filling fresh pages, as Gpu::Gpu does for device memory.
 */

#ifndef PERFBENCH_HOST_PROBE_HH
#define PERFBENCH_HOST_PROBE_HH

#include <cstdint>
#include <vector>

namespace perfbench {

class HostProbe
{
  public:
    /** Allocates the probe's arrays and runs one untimed pass, so
     *  the timed passes find them resident. */
    HostProbe();

    /** One pass of the fixed work, 0.15-0.25 s on the 4-core guest
     *  the benchmark was written on. Returns a checksum of the work,
     *  which is the same on every pass. */
    std::uint64_t run();

  private:
    std::vector<std::uint64_t> tags_;
    std::vector<std::uint8_t> ages_;
    std::vector<std::uint32_t> keys_;
};

} // namespace perfbench

#endif // PERFBENCH_HOST_PROBE_HH
