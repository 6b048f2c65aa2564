#include "api/experiment.hh"

#include <cctype>

#include "api/config_override.hh"
#include "api/workload_registry.hh"
#include "common/log.hh"
#include "latency/breakdown.hh"
#include "latency/exposure.hh"

namespace gpulat {

/** "DRAM(QtoSch)" -> "dram_qtosch": stable metric-key slug. */
std::string
stageMetricSlug(Stage stage)
{
    const std::string name = toString(stage);
    std::string slug;
    for (const char c : name) {
        if (std::isalnum(static_cast<unsigned char>(c))) {
            slug += static_cast<char>(
                std::tolower(static_cast<unsigned char>(c)));
        } else if (!slug.empty() && slug.back() != '_') {
            slug += '_';
        }
    }
    while (!slug.empty() && slug.back() == '_')
        slug.pop_back();
    return slug;
}

namespace {

/** Merged effective workload parameters: scaled bench defaults
 *  under the user's explicit assignments. */
ParamMap
effectiveParams(const ExperimentSpec &spec)
{
    const WorkloadRegistry &reg = WorkloadRegistry::instance();
    ParamMap params = reg.scaledParams(spec.workload, spec.scale);
    for (const std::string &a : spec.params) {
        auto [key, value] = ParamMap::splitAssignment(a);
        params.set(key, value);
    }
    return params;
}

} // namespace

GpuConfig
buildConfig(const ExperimentSpec &spec)
{
    GpuConfig cfg = makeConfig(spec.gpu);
    applyOverrides(cfg, spec.overrides);
    return cfg;
}

ExperimentRecord
collectRecord(Gpu &gpu, const ExperimentSpec &spec,
              const WorkloadResult &result)
{
    ExperimentRecord rec;
    rec.gpu = gpu.config().name;
    rec.workload = spec.workload;
    for (const std::string &a : spec.params) {
        auto [key, value] = ParamMap::splitAssignment(a);
        rec.params[key] = value;
    }
    for (const std::string &a : spec.overrides) {
        auto [key, value] = ParamMap::splitAssignment(a);
        // engine.tickJobs is a wall-clock execution knob, like the
        // runner's --jobs: it never changes simulated results, so
        // it must not make otherwise-identical records differ (the
        // CI determinism gate byte-diffs output across its
        // values). It is surfaced as rec.tickJobs instead.
        if (key == "engine.tickJobs")
            continue;
        rec.overrides[key] = value;
    }
    rec.tickJobs = gpu.engine().tickJobs();

    rec.correct = result.correct;
    rec.cycles = result.cycles;
    rec.instructions = result.instructions;
    rec.launches = result.launches;

    // Workload-specific headline metrics ride along verbatim (the
    // workload owns their naming; see WorkloadResult::metrics).
    for (const auto &[name, value] : result.metrics)
        rec.metrics[name] = value;

    rec.metrics["ipc"] = result.cycles
        ? static_cast<double>(result.instructions) /
              static_cast<double>(result.cycles)
        : 0.0;

    // SM-parallel safety verdict (kernel_analysis.hh): computed for
    // every launch in every engine mode, invariant across tick-jobs
    // and SM groupings.
    rec.metrics["analysis.sm_parallel"] =
        gpu.lastVerdict().safe ? 1.0 : 0.0;
    rec.analysisReason = gpu.lastVerdict().reason;

    const auto &traces = gpu.latencies().traces();
    rec.metrics["requests"] =
        static_cast<double>(gpu.latencies().count());
    double lat_sum = 0.0;
    for (const auto &t : traces)
        lat_sum += static_cast<double>(t.total());
    rec.metrics["mean_load_latency"] = traces.empty()
        ? 0.0
        : lat_sum / static_cast<double>(traces.size());

    rec.metrics["exposed_pct"] =
        computeExposure(gpu.exposure().records(), 48)
            .overallExposedPct();

    const Breakdown bd = computeBreakdown(traces, 48);
    std::uint64_t stage_total = 0;
    for (const auto v : bd.totalByStage)
        stage_total += v;
    for (std::size_t s = 0; s < kNumStages; ++s) {
        rec.metrics["stage_pct." +
                    stageMetricSlug(static_cast<Stage>(s))] =
            stage_total
            ? 100.0 * static_cast<double>(bd.totalByStage[s]) /
                  static_cast<double>(stage_total)
            : 0.0;
    }

    // Aggregate unit counters across SMs/partitions under their
    // unit-relative names ("sm3.l1.hits" counts toward "l1.hits").
    const StatRegistry &stats = gpu.stats();
    auto unitRelative = [](const std::string &name) {
        for (const char *prefix : {"sm", "part"}) {
            const std::size_t plen = std::string(prefix).size();
            if (name.rfind(prefix, 0) != 0)
                continue;
            std::size_t i = plen;
            while (i < name.size() &&
                   std::isdigit(static_cast<unsigned char>(name[i])))
                ++i;
            if (i > plen && i < name.size() && name[i] == '.')
                return name.substr(i + 1);
        }
        return name;
    };
    for (const auto &[name, counter] : stats.counters())
        rec.counters[unitRelative(name)] += counter.value();

    const std::uint64_t l1_hits = rec.counters.count("l1.hits")
        ? rec.counters.at("l1.hits") : 0;
    const std::uint64_t l1_misses = rec.counters.count("l1.misses")
        ? rec.counters.at("l1.misses") : 0;
    rec.metrics["l1_hit_pct"] = l1_hits + l1_misses
        ? 100.0 * static_cast<double>(l1_hits) /
              static_cast<double>(l1_hits + l1_misses)
        : 0.0;

    const std::uint64_t row_hits = rec.counters.count("dram.row_hits")
        ? rec.counters.at("dram.row_hits") : 0;
    std::uint64_t dram_total = row_hits;
    for (const char *k : {"dram.row_misses", "dram.row_closed"})
        dram_total += rec.counters.count(k) ? rec.counters.at(k) : 0;
    rec.metrics["dram_row_hit_pct"] = dram_total
        ? 100.0 * static_cast<double>(row_hits) /
              static_cast<double>(dram_total)
        : 0.0;

    // Memory-fidelity metrics (always present so the record schema
    // is stable across models; they are simply 0 on `simple` runs
    // or when the counters never fired).
    const auto counter_or_zero = [&rec](const char *k) {
        const auto it = rec.counters.find(k);
        return it == rec.counters.end()
            ? std::uint64_t{0} : it->second;
    };
    auto dir_hit_pct = [&](const char *prefix) {
        const std::uint64_t hits =
            counter_or_zero((std::string("dram.") + prefix +
                             "_row_hits").c_str());
        std::uint64_t total = hits;
        for (const char *k : {"_row_misses", "_row_closed"}) {
            total += counter_or_zero(
                (std::string("dram.") + prefix + k).c_str());
        }
        return total ? 100.0 * static_cast<double>(hits) /
                           static_cast<double>(total)
                     : 0.0;
    };
    rec.metrics["dram_rd_row_hit_pct"] = dir_hit_pct("rd");
    rec.metrics["dram_wr_row_hit_pct"] = dir_hit_pct("wr");
    const std::uint64_t row_conflicts =
        counter_or_zero("dram.row_misses");
    rec.metrics["dram_row_conflict_pct"] = dram_total
        ? 100.0 * static_cast<double>(row_conflicts) /
              static_cast<double>(dram_total)
        : 0.0;
    rec.metrics["dram_refresh_stall_cycles"] = static_cast<double>(
        counter_or_zero("dram.refresh_stall_cycles"));
    rec.metrics["mshr_bank_conflicts"] = static_cast<double>(
        counter_or_zero("l2_mshr_bank_conflicts"));

    double wait_sum = 0.0;
    std::uint64_t wait_count = 0;
    for (const auto &[name, scalar] : stats.scalars()) {
        if (name.find(".dram_queue_wait") == std::string::npos)
            continue;
        wait_sum += scalar.sum();
        wait_count += scalar.count();
    }
    rec.metrics["mean_dram_queue_wait"] = wait_count
        ? wait_sum / static_cast<double>(wait_count)
        : 0.0;

    // Fast-forward effectiveness: the share of each clock domain's
    // scheduled component ticks the engine provably skipped (0 with
    // idleFastForward=off). The raw totals ride along in
    // rec.counters as engine.<domain>.ticks_run/_skipped via the
    // generic counter loop above.
    for (const auto &domain : gpu.engine().domains()) {
        const std::string prefix = "engine." + domain->name();
        auto counter = [&](const char *suffix) -> std::uint64_t {
            const auto it = rec.counters.find(prefix + suffix);
            return it == rec.counters.end() ? 0 : it->second;
        };
        const std::uint64_t run = counter(".ticks_run");
        const std::uint64_t skipped = counter(".ticks_skipped");
        rec.metrics["ff_skip_pct." + domain->name()] = run + skipped
            ? 100.0 * static_cast<double>(skipped) /
                  static_cast<double>(run + skipped)
            : 0.0;
    }

    return rec;
}

ExperimentRecord
runExperiment(
    const ExperimentSpec &spec,
    const std::function<void(Gpu &, const ExperimentRecord &)>
        &inspect)
{
    if (spec.workload.empty())
        fatal("experiment needs a workload (see `gpulat list`)");

    const ParamMap params = effectiveParams(spec);
    auto workload = WorkloadRegistry::instance().create(spec.workload,
                                                        params);

    Gpu gpu(buildConfig(spec));
    const WorkloadResult result = workload->run(gpu);

    ExperimentRecord rec = collectRecord(gpu, spec, result);
    // Report the *effective* parameters (scaled defaults merged
    // with the user's), so a record is re-runnable verbatim.
    rec.params = params.entries();

    if (inspect)
        inspect(gpu, rec);
    return rec;
}

std::vector<ExperimentSpec>
expandSweep(const ExperimentSpec &spec)
{
    // Collect the sweep axes: every params/overrides value with a
    // comma-list, in listing order (params first).
    struct Axis
    {
        bool isOverride;
        std::size_t index; ///< into spec.params / spec.overrides
        std::string key;
        std::vector<std::string> values;
    };
    std::vector<Axis> axes;

    auto scan = [&](const std::vector<std::string> &list,
                    bool is_override) {
        for (std::size_t i = 0; i < list.size(); ++i) {
            auto [key, value] = ParamMap::splitAssignment(list[i]);
            Axis axis{is_override, i, key, {}};
            std::size_t pos = 0;
            while (true) {
                const auto comma = value.find(',', pos);
                axis.values.push_back(
                    value.substr(pos, comma - pos));
                if (comma == std::string::npos)
                    break;
                pos = comma + 1;
            }
            if (axis.values.size() > 1)
                axes.push_back(std::move(axis));
        }
    };
    scan(spec.params, false);
    scan(spec.overrides, true);

    if (axes.empty())
        return {spec};

    std::vector<ExperimentSpec> out;
    std::vector<std::size_t> idx(axes.size(), 0);
    while (true) {
        ExperimentSpec one = spec;
        for (std::size_t a = 0; a < axes.size(); ++a) {
            auto &list = axes[a].isOverride ? one.overrides
                                           : one.params;
            list[axes[a].index] =
                axes[a].key + '=' + axes[a].values[idx[a]];
        }
        out.push_back(std::move(one));

        // Odometer: last axis varies fastest.
        std::size_t a = axes.size();
        while (a > 0) {
            --a;
            if (++idx[a] < axes[a].values.size())
                break;
            idx[a] = 0;
            if (a == 0)
                return out;
        }
    }
}

} // namespace gpulat
