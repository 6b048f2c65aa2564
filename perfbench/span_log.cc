#include "span_log.hh"

#include <chrono>
#include <stdexcept>

#include "api/stat_sink.hh"

namespace perfbench {

std::int64_t
steadyNs()
{
    static const auto origin = std::chrono::steady_clock::now();
    return std::chrono::duration_cast<std::chrono::nanoseconds>(
               std::chrono::steady_clock::now() - origin)
        .count();
}

std::uint64_t
SpanLog::open(std::string name)
{
    Span span;
    span.id = spans_.size() + 1;
    span.parent = open_.empty() ? 0 : open_.back();
    span.cell = cell_;
    span.name = std::move(name);
    span.startNs = steadyNs();
    spans_.push_back(std::move(span));
    open_.push_back(spans_.back().id);
    return spans_.back().id;
}

void
SpanLog::close(std::uint64_t id)
{
    if (open_.empty() || open_.back() != id)
        throw std::logic_error("span closed out of order");
    open_.pop_back();
    span(id).endNs = steadyNs();
}

void
SpanLog::write(std::ostream &os) const
{
    os << "{\"kind\": \"spans\", \"spans\": [";
    for (std::size_t i = 0; i < spans_.size(); ++i) {
        const Span &s = spans_[i];
        os << (i ? ", " : "") << "{\"id\": " << s.id
           << ", \"parent\": " << s.parent << ", \"cell\": " << s.cell
           << ", \"name\": " << gpulat::jsonQuote(s.name)
           << ", \"start_ns\": " << s.startNs
           << ", \"end_ns\": " << s.endNs << ", \"attrs\": {";
        bool first = true;
        for (const auto &[key, value] : s.attrs) {
            os << (first ? "" : ", ") << gpulat::jsonQuote(key) << ": "
               << value;
            first = false;
        }
        os << "}}";
    }
    os << "]}\n";
}

} // namespace perfbench
