/**
 * @file
 * String-named workloads whose parameters are keys: how the `gpulat`
 * CLI, perfbench and sweeps construct every workload. A workload is
 * addressed as `name` + `key=value` parameters ("bfs", nodes=4096);
 * each parameter is declared once, as a key over the workload's
 * Options struct (api/key.hh), so it parses, lists and fails like a
 * `--set` key.
 */

#ifndef GPULAT_API_WORKLOAD_REGISTRY_HH
#define GPULAT_API_WORKLOAD_REGISTRY_HH

#include <functional>
#include <memory>
#include <string>
#include <vector>

#include "api/param_map.hh"
#include "workloads/workload.hh"

namespace gpulat {

/** One parameter of a registered workload, as `gpulat list` shows
 *  it. */
struct WorkloadParamSpec
{
    std::string name;
    std::string help;
};

/** One registered workload. */
struct WorkloadEntry
{
    std::string name;
    std::string description;
    /** Every parameter the workload declares, in listing order. */
    std::vector<WorkloadParamSpec> params;

    /**
     * Build an instance: each assignment goes through its key onto
     * the default Options. fatal() on a key the workload does not
     * declare or a malformed value.
     */
    std::function<std::unique_ptr<Workload>(const ParamMap &)> make;

    /** The Options make() would build from the assignments, every
     *  key formatted the way it parses. */
    std::function<ParamMap(const ParamMap &)> format;

    /**
     * Fill @p map with the bench-sized values shrunk by @p scale in
     * [0, 1] (`gpulat run --scale`, quick test runs). Keys it does
     * not set keep their Options default.
     */
    std::function<void(ParamMap &map, double scale)> scaleDefaults;
};

class WorkloadRegistry
{
  public:
    /** The process-wide registry, populated with the built-in
     *  workloads on first use. */
    static const WorkloadRegistry &instance();

    /** Registered names, in registration order. */
    std::vector<std::string> names() const;

    /** Entry by name; nullptr if unknown. */
    const WorkloadEntry *find(const std::string &name) const;

    /**
     * Construct workload @p name from @p params. fatal() on an
     * unknown name, an unknown parameter key, or a malformed value.
     */
    std::unique_ptr<Workload> create(const std::string &name,
                                     const ParamMap &params) const;

    /** create() with parameters parsed from `key=value` strings. */
    std::unique_ptr<Workload>
    create(const std::string &name,
           const std::vector<std::string> &assignments) const;

    /** The defaults for @p name at @p scale, as a parameter map. */
    ParamMap scaledParams(const std::string &name, double scale) const;

    /**
     * The default `gpulat list` prints for each parameter of
     * @p name: the value scaleDefaults sets at scale 1, or else the
     * formatted Options default.
     */
    ParamMap listedDefaults(const std::string &name) const;

    void add(WorkloadEntry entry);

  private:
    /** Entry by name; fatal() naming the known ones if unknown. */
    const WorkloadEntry &entry(const std::string &name) const;

    std::vector<WorkloadEntry> entries_;
};

} // namespace gpulat

#endif // GPULAT_API_WORKLOAD_REGISTRY_HH
