/**
 * @file
 * Compute-augmented streaming workload: y[i] = iterate_K(x[i]) with
 * a K-deep dependent FMA chain per element. The arithmetic gives
 * each warp work that other warps' loads can hide behind — the
 * cleanest demonstration of GPU latency hiding (and of its absence
 * at low occupancy).
 */

#ifndef GPULAT_WORKLOADS_COMPUTE_STREAM_HH
#define GPULAT_WORKLOADS_COMPUTE_STREAM_HH

#include "workloads/workload.hh"

namespace gpulat {

class ComputeStream : public Workload
{
  public:
    struct Options
    {
        std::uint64_t n = 1 << 15;
        unsigned fmaDepth = 32; ///< dependent FMAs per element
        unsigned threadsPerBlock = 256;
        std::uint64_t seed = 8;
    };

    explicit ComputeStream(Options opts) : opts_(opts) {}

    std::string name() const override { return "compute_stream"; }
    WorkloadResult run(Gpu &gpu) override;

    /** The chain's coefficient c, passed as param2. */
    static constexpr double kCoef = 0.5;

    /**
     * y[i] = chain(x[i]) over a grid of n threads; params: x, y,
     * c's bits, n. Affine addressing end to end, so the footprint
     * analysis proves it SM-parallel.
     */
    static Kernel buildKernel(unsigned fma_depth);

    /** What the kernel writes for input @p x: v = v * c + c,
     *  @p fma_depth times. */
    static double expected(double x, unsigned fma_depth);

  private:
    Options opts_;
};

} // namespace gpulat

#endif // GPULAT_WORKLOADS_COMPUTE_STREAM_HH
