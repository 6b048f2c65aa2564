/**
 * @file
 * String-named workload factories with typed parameter maps: the
 * front door every experiment driver (the `gpulat` CLI, perfbench,
 * sweeps) uses to construct workloads. A workload is addressed as
 * `name` + `key=value` parameters ("bfs", nodes=4096) instead of a
 * per-class Options struct, so new experiment matrix cells are data,
 * not code.
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

/** One documented parameter of a registered workload. */
struct WorkloadParamSpec
{
    std::string name;
    std::string defaultValue; ///< at bench scale (1.0)
    std::string help;
};

/** One registered workload factory. */
struct WorkloadEntry
{
    std::string name;
    std::string description;
    std::vector<WorkloadParamSpec> params;

    /** Build an instance from user parameters (defaults filled by
     *  the factory; unknown keys are rejected by create()). */
    std::function<std::unique_ptr<Workload>(const ParamMap &)> make;

    /**
     * Fill @p map with the bench-sized defaults shrunk by @p scale
     * in [0, 1] (`gpulat run --scale`, quick test runs). Only sets
     * keys that differ from the factory defaults.
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

    void add(WorkloadEntry entry);

  private:
    std::vector<WorkloadEntry> entries_;
};

} // namespace gpulat

#endif // GPULAT_API_WORKLOAD_REGISTRY_HH
