/**
 * @file
 * Table-I harness: per GPU generation, decide which memory space
 * reveals which hierarchy level (e.g. Kepler's L1 is local-only),
 * run the sweeps, detect plateaus and assemble the paper's table.
 */

#ifndef GPULAT_MICROBENCH_TABLE1_HH
#define GPULAT_MICROBENCH_TABLE1_HH

#include <optional>
#include <ostream>
#include <string>
#include <vector>

#include "gpu/gpu_config.hh"
#include "microbench/sweep.hh"

namespace gpulat {

/** One measured column of Table I. */
struct Table1Column
{
    std::string gpu;                 ///< e.g. "GF106"
    std::optional<double> l1;        ///< nullopt renders as "x"
    std::optional<double> l2;
    std::optional<double> dram;
};

/**
 * Measure one generation. The probe plan is derived from the
 * config: if the L1 caches global accesses, a global sweep exposes
 * all three levels; if it only caches local (Kepler), the L1 row
 * comes from a local-space sweep; with no L1 (Tesla/Maxwell) the L1
 * row is absent; with no L2 (Tesla) only DRAM remains.
 */
Table1Column measureGeneration(const GpuConfig &cfg);

/** Measure all four generations of the paper. */
std::vector<Table1Column> measureTable1();

/** Render the table exactly like the paper (rows L1/L2/DRAM). */
void printTable1(std::ostream &os,
                 const std::vector<Table1Column> &columns);

} // namespace gpulat

#endif // GPULAT_MICROBENCH_TABLE1_HH
