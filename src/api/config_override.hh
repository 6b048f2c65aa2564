/**
 * @file
 * Dotted-path configuration overrides: apply `sm.warpSlots=16` /
 * `dramClock=1/2` style assignments on top of a named GpuConfig
 * preset, so any ablation point is expressible as preset +
 * overrides without a hand-written bench. Every overridable key is
 * also readable, which gives tests a parse/format round trip and
 * the CLI a self-describing `gpulat list keys`.
 */

#ifndef GPULAT_API_CONFIG_OVERRIDE_HH
#define GPULAT_API_CONFIG_OVERRIDE_HH

#include <string>
#include <vector>

#include "api/key.hh"
#include "gpu/gpu_config.hh"

namespace gpulat {

/** One overridable dotted-path key of GpuConfig. */
using ConfigKey = Key<GpuConfig>;

/** All overridable keys, sorted by path. */
const std::vector<ConfigKey> &configKeys();

/** Apply one `path=value` assignment; fatal() on an unknown path
 *  or malformed value. */
void applyOverride(GpuConfig &cfg, const std::string &assignment);

/** Apply a list of `path=value` assignments in order. */
void applyOverrides(GpuConfig &cfg,
                    const std::vector<std::string> &assignments);

/** Current value of @p path formatted the way applyOverride parses
 *  it; fatal() on an unknown path. */
std::string readOverride(const GpuConfig &cfg,
                         const std::string &path);

} // namespace gpulat

#endif // GPULAT_API_CONFIG_OVERRIDE_HH
