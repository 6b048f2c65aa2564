/**
 * @file
 * Text rendering helpers for reports and examples: aligned tables
 * (Table I style) and horizontal stacked-bar charts (Figure 1/2
 * style), plus RFC-4180 field quoting for the CSV record sink.
 */

#ifndef GPULAT_COMMON_TABLE_HH
#define GPULAT_COMMON_TABLE_HH

#include <ostream>
#include <string>
#include <vector>

namespace gpulat {

/** Column-aligned text table with a header row. */
class TextTable
{
  public:
    explicit TextTable(std::vector<std::string> header);

    /** Append one row; must have the same arity as the header. */
    void addRow(std::vector<std::string> row);

    /** Render with padded columns and a rule under the header. */
    void print(std::ostream &os) const;

    std::size_t rows() const { return rows_.size(); }

  private:
    std::vector<std::string> header_;
    std::vector<std::vector<std::string>> rows_;
};

/**
 * Horizontal stacked percentage bars: one row per bucket, one glyph
 * run per series — the terminal version of the paper's Figures 1/2.
 */
class StackedBarChart
{
  public:
    /**
     * @param series_names legend entries, in stacking order.
     * @param width total glyph width of a 100% bar.
     */
    StackedBarChart(std::vector<std::string> series_names,
                    std::size_t width = 60);

    /**
     * Append one bar.
     * @param label row label (e.g. "153-190").
     * @param parts one value per series; rendered as % of their sum.
     * @param annotation free text appended after the bar.
     */
    void addBar(const std::string &label, std::vector<double> parts,
                const std::string &annotation = "");

    /** Render bars plus a legend mapping glyphs to series names. */
    void print(std::ostream &os) const;

  private:
    std::vector<std::string> seriesNames_;
    std::size_t width_;

    struct Bar
    {
        std::string label;
        std::vector<double> parts;
        std::string annotation;
    };
    std::vector<Bar> bars_;

    static char glyphFor(std::size_t series);
};

/** Format a double with fixed precision into a string. */
std::string formatDouble(double v, int precision = 1);

/**
 * RFC-4180 CSV field: returned verbatim unless it contains the
 * delimiter, a double quote or a line break, in which case it is
 * wrapped in double quotes with embedded quotes doubled — so a
 * param value like `label=a,"b"` can no longer shear a row apart
 * (and silently break byte-diff gates on the emitted files).
 */
std::string csvField(const std::string &s);

} // namespace gpulat

#endif // GPULAT_COMMON_TABLE_HH
