/**
 * @file
 * Matrix transpose in two flavours: naive (uncoalesced writes, one
 * transaction per lane) and tiled through shared memory with a
 * padded tile (fully coalesced, conflict-free). The pair is the
 * classic coalescing ablation.
 */

#ifndef GPULAT_WORKLOADS_TRANSPOSE_HH
#define GPULAT_WORKLOADS_TRANSPOSE_HH

#include "workloads/workload.hh"

namespace gpulat {

class Transpose : public Workload
{
  public:
    struct Options
    {
        /** Matrix is n x n; n must be a power of two, multiple of
         *  32, and <= 1024 (naive kernel uses one row per block). */
        unsigned n = 256;
        bool tiled = false;
        std::uint64_t seed = 6;
    };

    explicit Transpose(Options opts) : opts_(opts) {}

    std::string
    name() const override
    {
        return opts_.tiled ? "transpose_tiled" : "transpose_naive";
    }

    WorkloadResult run(Gpu &gpu) override;

    static Kernel buildNaiveKernel();
    static Kernel buildTiledKernel();

  private:
    Options opts_;
};

} // namespace gpulat

#endif // GPULAT_WORKLOADS_TRANSPOSE_HH
