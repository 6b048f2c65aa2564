#include "api/param_map.hh"

#include "common/log.hh"

namespace gpulat {

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

} // namespace gpulat
