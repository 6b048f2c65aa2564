/**
 * @file
 * The serving session and its registry workloads: a multi-tenant
 * "inference serving" scenario driving one Gpu with an arrival
 * stream of kernel launches. Each tenant owns a private input
 * buffer and a small rotation of output buffers; its launches are
 * compute-stream-style FMA kernels (affine addressing, so the
 * launch-time safety analysis can prove concurrent launches with
 * disjoint footprints SM-parallel). The ServingSession wires a
 * LaunchQueueScheduler into the Gpu's core clock domain, runs the
 * engine until every arrival is served and the device drains, and
 * verifies every touched output buffer against a CPU reference.
 *
 * Registry workloads (`serve.*`):
 *  - serve.mixed:   heterogeneous tenants (small/medium/heavy
 *                   launch classes), Poisson arrivals;
 *  - serve.uniform: homogeneous tenants, fixed-rate arrivals;
 *  - serve.closed:  homogeneous tenants, closed loop with think
 *                   time (one outstanding launch per tenant).
 */

#ifndef GPULAT_SERVING_SERVING_HH
#define GPULAT_SERVING_SERVING_HH

#include <memory>
#include <vector>

#include "serving/scheduler.hh"
#include "workloads/workload.hh"

namespace gpulat {

class ServingSession
{
  public:
    /** One tenant: kernel shape, buffer rotation, traffic. */
    struct TenantSpec
    {
        std::uint64_t n = 4096;       ///< elements per buffer
        unsigned fmaDepth = 16;       ///< dependent FMA chain length
        unsigned threadsPerBlock = 128;
        unsigned buffers = 3;         ///< rotating output buffers
        double weight = 1.0;          ///< fair-share weight
        TenantTraffic traffic;
    };

    /**
     * Builds kernels and buffers (input data drawn from gpu.rng(),
     * i.e. the `seed` override key), constructs the per-tenant
     * arrival streams, and registers the scheduler on the engine's
     * core domain with wake edges to and from every SM. One
     * session per Gpu: the scheduler stays registered for the
     * Gpu's lifetime.
     */
    ServingSession(Gpu &gpu, std::vector<TenantSpec> specs);

    /** Serve every arrival to completion, then verify. */
    WorkloadResult run();

    const ServingMetrics &metrics() const { return metrics_; }
    LaunchQueueScheduler &scheduler() { return *sched_; }

  private:
    bool verify() const;

    Gpu &gpu_;
    std::vector<TenantSpec> specs_;
    /** unique_ptr: LaunchShape holds raw Kernel pointers. */
    std::vector<std::unique_ptr<Kernel>> kernels_;
    std::vector<Addr> deviceX_;
    std::vector<std::vector<Addr>> deviceY_;
    std::vector<std::vector<double>> hostX_;
    ServingMetrics metrics_;
    std::unique_ptr<LaunchQueueScheduler> sched_;
};

/** Registry workload wrapper around ServingSession. */
class ServingWorkload : public Workload
{
  public:
    enum class Profile
    {
        Mixed,
        Uniform,
        Closed,
    };

    struct Options
    {
        Profile profile = Profile::Mixed;
        unsigned tenants = 3;
        unsigned launches = 12;  ///< per tenant
        double load = 1.0;       ///< arrival-rate multiplier
        double thinkCycles = 2000.0;  ///< closed loop only
        unsigned buffers = 3;
    };

    explicit ServingWorkload(Options opts) : opts_(opts) {}

    std::string name() const override;
    WorkloadResult run(Gpu &gpu) override;

  private:
    Options opts_;
};

} // namespace gpulat

#endif // GPULAT_SERVING_SERVING_HH
