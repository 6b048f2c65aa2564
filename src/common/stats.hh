/**
 * @file
 * Lightweight statistics package: named counters and scalar
 * averages, grouped per hardware unit and dumpable as text. Modeled
 * loosely on gem5's Stats but kept dependency-free.
 */

#ifndef GPULAT_COMMON_STATS_HH
#define GPULAT_COMMON_STATS_HH

#include <cstdint>
#include <map>
#include <ostream>
#include <string>

namespace gpulat {

/** Monotonic event counter. */
class Counter
{
  public:
    void inc(std::uint64_t n = 1) { value_ += n; }
    std::uint64_t value() const { return value_; }

  private:
    std::uint64_t value_ = 0;
};

/** Running scalar statistic: count / sum / min / max / mean. */
class ScalarStat
{
  public:
    void
    sample(double v)
    {
        if (count_ == 0) {
            min_ = max_ = v;
        } else {
            if (v < min_) min_ = v;
            if (v > max_) max_ = v;
        }
        sum_ += v;
        ++count_;
    }

    std::uint64_t count() const { return count_; }
    double sum() const { return sum_; }
    double min() const { return count_ ? min_ : 0.0; }
    double max() const { return count_ ? max_ : 0.0; }
    double mean() const { return count_ ? sum_ / count_ : 0.0; }

  private:
    std::uint64_t count_ = 0;
    double sum_ = 0.0;
    double min_ = 0.0;
    double max_ = 0.0;
};

/**
 * Hierarchical registry of named statistics for one simulation.
 *
 * Units register counters/scalars under dotted names
 * (e.g. "sm0.l1.hits"); dump() renders them sorted.
 */
class StatRegistry
{
  public:
    /** Create-or-get a counter by dotted name. */
    Counter &counter(const std::string &name) { return counters_[name]; }

    /** Create-or-get a scalar statistic by dotted name. */
    ScalarStat &scalar(const std::string &name) { return scalars_[name]; }

    /** All counters (sorted by name, map order). */
    const std::map<std::string, Counter> &counters() const
    {
        return counters_;
    }

    const std::map<std::string, ScalarStat> &scalars() const
    {
        return scalars_;
    }

    /** Value of a counter, 0 if absent. */
    std::uint64_t counterValue(const std::string &name) const;

    /** Render all statistics as aligned text. */
    void dump(std::ostream &os) const;

  private:
    std::map<std::string, Counter> counters_;
    std::map<std::string, ScalarStat> scalars_;
};

} // namespace gpulat

#endif // GPULAT_COMMON_STATS_HH
