/**
 * @file
 * Coarse host-time spans of one benchmark process, kept in memory and
 * written once when the run ends: cell -> phase -> launch -> analyze.
 * Spans nest on the main thread, so the innermost open span is the
 * parent of the next one opened. Per-tick work is far too frequent to
 * record this way; the traced build aggregates it instead (tracer.hh)
 * and attaches the totals to the enclosing launch span as attributes.
 */

#ifndef PERFBENCH_SPAN_LOG_HH
#define PERFBENCH_SPAN_LOG_HH

#include <cstdint>
#include <map>
#include <ostream>
#include <string>
#include <vector>

namespace perfbench {

/** Steady-clock nanoseconds since the first call in this process. */
std::int64_t steadyNs();

class SpanLog
{
  public:
    struct Span
    {
        std::uint64_t id = 0;     ///< 1-based
        std::uint64_t parent = 0; ///< 0 = top level
        std::uint64_t cell = 0;
        std::string name;
        std::int64_t startNs = 0;
        std::int64_t endNs = 0;
        /** Integer aggregates (ns, call counts) the tracer attaches. */
        std::map<std::string, std::int64_t> attrs;
    };

    /** Cell id stamped on every span opened from now on. */
    void setCell(std::uint64_t cell) { cell_ = cell; }

    /** Open a child of the innermost open span; returns its id. */
    std::uint64_t open(std::string name);
    /** Close @p id, which must be the innermost open span. */
    void close(std::uint64_t id);

    /** Valid until the next open(). */
    Span &span(std::uint64_t id) { return spans_.at(id - 1); }

    /** One JSON line: {"kind": "spans", "spans": [...]}. */
    void write(std::ostream &os) const;

  private:
    std::vector<Span> spans_;
    std::vector<std::uint64_t> open_;
    std::uint64_t cell_ = 0;
};

/** Opens a span for the lifetime of the object. */
class SpanScope
{
  public:
    SpanScope(SpanLog &log, std::string name)
        : log_(log), id_(log.open(std::move(name)))
    {
    }
    ~SpanScope() { log_.close(id_); }
    SpanScope(const SpanScope &) = delete;
    SpanScope &operator=(const SpanScope &) = delete;

  private:
    SpanLog &log_;
    std::uint64_t id_;
};

} // namespace perfbench

#endif // PERFBENCH_SPAN_LOG_HH
