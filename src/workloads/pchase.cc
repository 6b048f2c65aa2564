#include "workloads/pchase.hh"

namespace gpulat {

WorkloadResult
PChase::run(Gpu &gpu)
{
    checkParam(opts_.strideBytes >= 8 && opts_.strideBytes % 8 == 0,
               name(), "strideBytes",
               "must be a positive multiple of 8 (got ",
               opts_.strideBytes, ")");
    checkParam(opts_.footprintBytes >= opts_.strideBytes, name(),
               "footprintBytes", "must be at least strideBytes (got ",
               opts_.footprintBytes, " < ", opts_.strideBytes, ")");
    checkParam(opts_.timedAccesses > 0, name(), "timedAccesses",
               "must be > 0");
    const PChaseResult r = runPointerChase(gpu, opts_);

    WorkloadResult result;
    result.correct = r.chainOk;
    result.metrics["pchase_cycles_per_access"] = r.cyclesPerAccess;
    result.metrics["pchase_timed_cycles"] =
        static_cast<double>(r.timedCycles);
    result.metrics["pchase_timed_accesses"] =
        static_cast<double>(r.timedAccesses);
    return result;
}

} // namespace gpulat
