/**
 * @file
 * Typed key=value parameter maps for the experiment API. Workload
 * factories and the CLI parse user-supplied `key=value` strings
 * into a ParamMap and read them back through typed getters; keys
 * nobody consumed are reported so a typo ("ndoes=4096") is a fatal
 * error instead of a silently ignored knob.
 */

#ifndef GPULAT_API_PARAM_MAP_HH
#define GPULAT_API_PARAM_MAP_HH

#include <cstdint>
#include <map>
#include <optional>
#include <set>
#include <string>
#include <vector>

namespace gpulat {

/**
 * @name The number parsers of user text
 * Every integer or real a user types (override values, workload
 * parameters, CLI flags) goes through one of these two.
 * @{
 */

/** Decimal digits only, at most @p max: no sign, no base prefix,
 *  no spaces. nullopt on anything else. */
std::optional<std::uint64_t> parseDecimal(const std::string &text,
                                          std::uint64_t max);

/** A finite real ("0.5", "2e3", "-1"); nullopt on anything else,
 *  nan and inf included. */
std::optional<double> parseFinite(const std::string &text);

/** @} */

class ParamMap
{
  public:
    ParamMap() = default;

    /** Parse `key=value` assignments; fatal() on a missing '='. */
    static ParamMap parse(const std::vector<std::string> &assignments);

    /** Split one `key=value` string; fatal() on a missing '='. */
    static std::pair<std::string, std::string>
    splitAssignment(const std::string &assignment);

    void set(const std::string &key, const std::string &value);
    bool has(const std::string &key) const;

    /** @name Typed getters (mark the key consumed; fatal on a
     *  malformed value) @{ */
    std::string getString(const std::string &key,
                          const std::string &def) const;
    std::uint64_t getU64(const std::string &key,
                         std::uint64_t def) const;
    unsigned getUnsigned(const std::string &key, unsigned def) const;
    double getDouble(const std::string &key, double def) const;
    bool getBool(const std::string &key, bool def) const;
    /** @} */

    /** All entries, sorted by key. */
    const std::map<std::string, std::string> &entries() const
    {
        return entries_;
    }

    bool empty() const { return entries_.empty(); }

    /** Keys never read through a getter (likely typos). */
    std::vector<std::string> unconsumedKeys() const;

  private:
    std::uint64_t getInteger(const std::string &key, std::uint64_t def,
                             std::uint64_t max) const;

    std::map<std::string, std::string> entries_;
    /** Consumption is bookkeeping, not logical state. */
    mutable std::set<std::string> consumed_;
};

} // namespace gpulat

#endif // GPULAT_API_PARAM_MAP_HH
