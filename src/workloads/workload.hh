/**
 * @file
 * Common workload interface: every workload prepares device data,
 * launches its kernel(s) on a caller-provided Gpu and verifies the
 * result against a CPU reference.
 */

#ifndef GPULAT_WORKLOADS_WORKLOAD_HH
#define GPULAT_WORKLOADS_WORKLOAD_HH

#include <map>
#include <string>

#include "common/log.hh"
#include "gpu/gpu.hh"

namespace gpulat {

/**
 * fatal() unless @p ok: a bad workload parameter is a named user
 * error ("gemm: parameter 'n' must be ..."), never a signal or an
 * assertion deep in the simulator.
 */
template <typename... Why>
void
checkParam(bool ok, const std::string &workload, const char *param,
           const Why &...why)
{
    if (!ok)
        fatal(workload, ": parameter '", param, "' ", why...);
}

/**
 * Outcome of one workload run. The device totals (cycles,
 * instructions, launches) are the Gpu's: see Gpu::now().
 */
struct WorkloadResult
{
    bool correct = false;   ///< matched the CPU reference

    /**
     * Workload-specific headline numbers (e.g. the pointer chase's
     * "pchase_cycles_per_access"), merged verbatim into
     * ExperimentRecord::metrics by collectRecord(). Names must not
     * collide with the standard derived-metric set documented on
     * ExperimentRecord, and must be stable per workload so sweep
     * columns never appear or vanish between cells.
     */
    std::map<std::string, double> metrics;
};

class Workload
{
  public:
    virtual ~Workload() = default;

    /** Short identifier ("bfs", "vecadd", ...). */
    virtual std::string name() const = 0;

    /** Run to completion on @p gpu and verify. */
    virtual WorkloadResult run(Gpu &gpu) = 0;
};

} // namespace gpulat

#endif // GPULAT_WORKLOADS_WORKLOAD_HH
