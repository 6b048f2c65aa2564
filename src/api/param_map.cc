#include "api/param_map.hh"

#include <charconv>
#include <cmath>
#include <limits>

#include "common/log.hh"

namespace gpulat {

std::optional<std::uint64_t>
parseDecimal(const std::string &text, std::uint64_t max)
{
    std::uint64_t value = 0;
    const char *const end = text.data() + text.size();
    const auto [stop, error] = std::from_chars(text.data(), end, value);
    if (error != std::errc{} || stop != end || value > max)
        return std::nullopt;
    return value;
}

std::optional<double>
parseFinite(const std::string &text)
{
    double value = 0.0;
    const char *const end = text.data() + text.size();
    const auto [stop, error] = std::from_chars(text.data(), end, value);
    if (error != std::errc{} || stop != end || !std::isfinite(value))
        return std::nullopt;
    return value;
}

std::pair<std::string, std::string>
ParamMap::splitAssignment(const std::string &assignment)
{
    const auto eq = assignment.find('=');
    if (eq == std::string::npos || eq == 0) {
        fatal("expected key=value, got '", assignment, "'");
    }
    return {assignment.substr(0, eq), assignment.substr(eq + 1)};
}

ParamMap
ParamMap::parse(const std::vector<std::string> &assignments)
{
    ParamMap map;
    for (const std::string &a : assignments) {
        auto [key, value] = splitAssignment(a);
        map.set(key, value);
    }
    return map;
}

void
ParamMap::set(const std::string &key, const std::string &value)
{
    entries_[key] = value;
}

bool
ParamMap::has(const std::string &key) const
{
    return entries_.count(key) != 0;
}

std::string
ParamMap::getString(const std::string &key,
                    const std::string &def) const
{
    auto it = entries_.find(key);
    if (it == entries_.end())
        return def;
    consumed_.insert(key);
    return it->second;
}

std::uint64_t
ParamMap::getInteger(const std::string &key, std::uint64_t def,
                     std::uint64_t max) const
{
    auto it = entries_.find(key);
    if (it == entries_.end())
        return def;
    consumed_.insert(key);
    const auto value = parseDecimal(it->second, max);
    if (!value) {
        fatal("parameter '", key, "': '", it->second,
              "' is not a decimal integer in [0, ", max, "]");
    }
    return *value;
}

std::uint64_t
ParamMap::getU64(const std::string &key, std::uint64_t def) const
{
    return getInteger(key, def,
                      std::numeric_limits<std::uint64_t>::max());
}

unsigned
ParamMap::getUnsigned(const std::string &key, unsigned def) const
{
    return static_cast<unsigned>(
        getInteger(key, def, std::numeric_limits<unsigned>::max()));
}

double
ParamMap::getDouble(const std::string &key, double def) const
{
    auto it = entries_.find(key);
    if (it == entries_.end())
        return def;
    consumed_.insert(key);
    const auto value = parseFinite(it->second);
    if (!value) {
        fatal("parameter '", key, "': '", it->second,
              "' is not a finite number");
    }
    return *value;
}

bool
ParamMap::getBool(const std::string &key, bool def) const
{
    auto it = entries_.find(key);
    if (it == entries_.end())
        return def;
    consumed_.insert(key);
    const std::string &s = it->second;
    if (s == "1" || s == "true" || s == "on" || s == "yes")
        return true;
    if (s == "0" || s == "false" || s == "off" || s == "no")
        return false;
    fatal("parameter '", key, "': '", s, "' is not a boolean");
}

std::vector<std::string>
ParamMap::unconsumedKeys() const
{
    std::vector<std::string> keys;
    for (const auto &[key, value] : entries_) {
        if (!consumed_.count(key))
            keys.push_back(key);
    }
    return keys;
}

} // namespace gpulat
