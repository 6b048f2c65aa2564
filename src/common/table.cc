#include "common/table.hh"

#include <algorithm>
#include <iomanip>
#include <numeric>
#include <sstream>

#include "common/log.hh"

namespace gpulat {

std::string
formatDouble(double v, int precision)
{
    std::ostringstream oss;
    oss << std::fixed << std::setprecision(precision) << v;
    return oss.str();
}

std::string
csvField(const std::string &s)
{
    if (s.find_first_of(",\"\n\r") == std::string::npos)
        return s;
    std::string out = "\"";
    for (const char c : s) {
        if (c == '"')
            out += '"';
        out += c;
    }
    out += '"';
    return out;
}

TextTable::TextTable(std::vector<std::string> header)
    : header_(std::move(header))
{
    GPULAT_ASSERT(!header_.empty(), "table needs at least one column");
}

void
TextTable::addRow(std::vector<std::string> row)
{
    GPULAT_ASSERT(row.size() == header_.size(),
                  "row arity ", row.size(), " != header arity ",
                  header_.size());
    rows_.push_back(std::move(row));
}

void
TextTable::print(std::ostream &os) const
{
    std::vector<std::size_t> widths(header_.size());
    for (std::size_t c = 0; c < header_.size(); ++c)
        widths[c] = header_[c].size();
    for (const auto &row : rows_)
        for (std::size_t c = 0; c < row.size(); ++c)
            widths[c] = std::max(widths[c], row[c].size());

    auto emit_row = [&](const std::vector<std::string> &row) {
        for (std::size_t c = 0; c < row.size(); ++c) {
            os << std::left
               << std::setw(static_cast<int>(widths[c]) + 2) << row[c];
        }
        os << "\n";
    };

    emit_row(header_);
    std::size_t total = 0;
    for (auto w : widths)
        total += w + 2;
    os << std::string(total, '-') << "\n";
    for (const auto &row : rows_)
        emit_row(row);
}

StackedBarChart::StackedBarChart(std::vector<std::string> series_names,
                                 std::size_t width)
    : seriesNames_(std::move(series_names)), width_(width)
{
    GPULAT_ASSERT(!seriesNames_.empty(), "chart needs >= 1 series");
}

void
StackedBarChart::addBar(const std::string &label,
                        std::vector<double> parts,
                        const std::string &annotation)
{
    GPULAT_ASSERT(parts.size() == seriesNames_.size(),
                  "bar arity mismatch");
    bars_.push_back(Bar{label, std::move(parts), annotation});
}

char
StackedBarChart::glyphFor(std::size_t series)
{
    // Distinct single-char glyphs; wraps for >16 series. Returned
    // by value: charts from concurrent experiment jobs must not
    // share a scratch buffer.
    static constexpr char glyphs[] = "#@=+*o.:%&xsdqwz";
    return glyphs[series % 16];
}

void
StackedBarChart::print(std::ostream &os) const
{
    std::size_t label_w = 0;
    for (const auto &bar : bars_)
        label_w = std::max(label_w, bar.label.size());

    for (const auto &bar : bars_) {
        const double total = std::accumulate(
            bar.parts.begin(), bar.parts.end(), 0.0);
        os << std::left << std::setw(static_cast<int>(label_w) + 1)
           << bar.label << "|";
        std::size_t used = 0;
        if (total > 0) {
            for (std::size_t s = 0; s < bar.parts.size(); ++s) {
                auto glyphs = static_cast<std::size_t>(
                    bar.parts[s] / total * width_ + 0.5);
                glyphs = std::min(glyphs, width_ - used);
                for (std::size_t g = 0; g < glyphs; ++g)
                    os << glyphFor(s);
                used += glyphs;
            }
        }
        for (; used < width_; ++used)
            os << " ";
        os << "|";
        if (!bar.annotation.empty())
            os << " " << bar.annotation;
        os << "\n";
    }

    os << "legend:";
    for (std::size_t s = 0; s < seriesNames_.size(); ++s)
        os << "  " << glyphFor(s) << "=" << seriesNames_[s];
    os << "\n";
}

} // namespace gpulat
