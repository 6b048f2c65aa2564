/**
 * @file
 * Pointer-chase microbenchmark as a registry workload ("pchase"):
 * one idle-latency measurement (the paper's §II / Table I
 * methodology) addressable from the experiment API and the `gpulat`
 * CLI, so latency ladders are sweep specs like everything else:
 *
 *   gpulat sweep --gpu gf106 --workload pchase \
 *       footprintBytes=16384,65536,262144,4194304 --jobs 0
 */

#ifndef GPULAT_WORKLOADS_PCHASE_HH
#define GPULAT_WORKLOADS_PCHASE_HH

#include "microbench/pchase.hh"
#include "workloads/workload.hh"

namespace gpulat {

class PChase : public Workload
{
  public:
    using Options = PChaseConfig;

    explicit PChase(Options opts) : opts_(opts) {}

    std::string name() const override { return "pchase"; }

    /**
     * Runs one measurement; correct == the final chase pointer
     * landed exactly where the circular chain predicts. Reports
     * "pchase_cycles_per_access", "pchase_timed_cycles" and
     * "pchase_timed_accesses" as workload metrics.
     */
    WorkloadResult run(Gpu &gpu) override;

  private:
    Options opts_;
};

} // namespace gpulat

#endif // GPULAT_WORKLOADS_PCHASE_HH
