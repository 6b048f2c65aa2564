/**
 * @file
 * `key=value` assignment maps for the experiment API: the CLI's
 * positional workload parameters and the registry's scaled defaults
 * travel as a ParamMap of unparsed strings. The registry parses each
 * value through the workload's key for it (api/key.hh).
 */

#ifndef GPULAT_API_PARAM_MAP_HH
#define GPULAT_API_PARAM_MAP_HH

#include <map>
#include <string>
#include <vector>

namespace gpulat {

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

    /** All entries, sorted by key. */
    const std::map<std::string, std::string> &entries() const
    {
        return entries_;
    }

  private:
    std::map<std::string, std::string> entries_;
};

} // namespace gpulat

#endif // GPULAT_API_PARAM_MAP_HH
