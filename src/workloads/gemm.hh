/**
 * @file
 * Tiled double-precision GEMM (C = A*B) through shared memory:
 * 16x16 tiles, 256-thread blocks, double-buffered barriers. The
 * compute-dense regular workload — the opposite end of the spectrum
 * from BFS — whose latency the SM hides almost completely.
 */

#ifndef GPULAT_WORKLOADS_GEMM_HH
#define GPULAT_WORKLOADS_GEMM_HH

#include "workloads/workload.hh"

namespace gpulat {

class Gemm : public Workload
{
  public:
    struct Options
    {
        /** Matrix dimension; power of two, multiple of 16. */
        unsigned n = 128;
        std::uint64_t seed = 10;
    };

    explicit Gemm(Options opts) : opts_(opts) {}

    std::string name() const override { return "gemm"; }
    WorkloadResult run(Gpu &gpu) override;

    static Kernel buildKernel();

  private:
    Options opts_;
};

} // namespace gpulat

#endif // GPULAT_WORKLOADS_GEMM_HH
