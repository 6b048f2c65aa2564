/**
 * @file
 * The one seam between the cell runner (cells.cc) and the two builds
 * of it: tracer_off.cc makes every hook a no-op (perfbench_cells),
 * tracer_on.cc times the engine-reached entry points through linker
 * wraps (perfbench_traced).
 */

#ifndef PERFBENCH_TRACER_HH
#define PERFBENCH_TRACER_HH

#include <string>

#include "span_log.hh"

namespace perfbench {

/** True in the link-wrapped build. */
bool traceEnabled();

/**
 * Measure what one timed call costs the timer itself, so the
 * analysis can subtract it from self times. Returns a JSON object
 * ("" in the untraced build).
 */
std::string traceCalibrate();

/**
 * Arm the wraps for one cell: components registered from now on get
 * timing proxies, and Gpu::launch / analyzeSmParallelSafety open
 * spans in @p log. Call before the cell's Gpu is constructed.
 */
void traceBeginCell(SpanLog &log);

/**
 * Disarm, free the proxies and return the cell's aggregates as a
 * JSON object ("" in the untraced build). Call after the cell's Gpu
 * is destroyed, so no engine thread still runs.
 */
std::string traceEndCell();

} // namespace perfbench

#endif // PERFBENCH_TRACER_HH
