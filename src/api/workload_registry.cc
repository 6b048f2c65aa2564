#include "api/workload_registry.hh"

#include <algorithm>

#include "api/key.hh"
#include "common/log.hh"
#include "serving/serving.hh"
#include "workloads/bfs.hh"
#include "workloads/pchase.hh"
#include "workloads/compute_stream.hh"
#include "workloads/gemm.hh"
#include "workloads/histogram.hh"
#include "workloads/reduction.hh"
#include "workloads/scan.hh"
#include "workloads/spmv.hh"
#include "workloads/stencil.hh"
#include "workloads/transpose.hh"
#include "workloads/vecadd.hh"

namespace gpulat {

namespace {

/** Shrink a bench-sized default by the registry scale. */
std::uint64_t
scaledSize(std::uint64_t full, std::uint64_t min, double scale)
{
    return std::max<std::uint64_t>(
        min,
        static_cast<std::uint64_t>(static_cast<double>(full) * scale));
}

/** Workload parameter @p name: a key over @p member of the Options. */
template <typename Options, typename T>
Key<Options>
param(std::string name, T Options::*member, std::string help)
{
    Key<Options> key = makeKey<Options>(std::move(name), "", member);
    key.help = std::move(help);
    return key;
}

/** An enum parameter; its help ends with the spellings. */
template <typename Options, typename E, std::size_t N>
Key<Options>
param(std::string name, E Options::*member,
      const Spelling<E> (&table)[N], const std::string &what)
{
    Key<Options> key = makeKey<Options>(std::move(name), table, member);
    key.help = what + ": " + key.type;
    return key;
}

/**
 * The entry of workload W, whose parameters are @p keys over
 * W::Options. Assignments apply in sorted key order on top of
 * @p start(assignments), the Options before any key applies
 * (default-constructed when unset).
 */
template <typename W>
WorkloadEntry
workloadEntry(
    std::string name, std::string description,
    std::vector<Key<typename W::Options>> keys,
    std::function<void(ParamMap &, double)> scale_defaults,
    std::function<typename W::Options(const ParamMap &)> start = {})
{
    using Options = typename W::Options;
    const auto table =
        std::make_shared<const std::vector<Key<Options>>>(
            std::move(keys));
    auto resolve = [table, start, name](const ParamMap &params) {
        Options opts = start ? start(params) : Options{};
        for (const auto &[path, value] : params.entries()) {
            const auto key = std::find_if(
                table->begin(), table->end(),
                [&](const Key<Options> &k) { return k.path == path; });
            if (key == table->end()) {
                fatal("workload '", name, "' has no parameter '", path,
                      "' (see `gpulat list workloads`)");
            }
            key->set(opts, value);
        }
        return opts;
    };

    WorkloadEntry e{std::move(name), std::move(description), {}, {},
                    {}, std::move(scale_defaults)};
    for (const Key<Options> &key : *table)
        e.params.push_back({key.path, key.help});
    e.make = [resolve](const ParamMap &params)
        -> std::unique_ptr<Workload> {
        return std::make_unique<W>(resolve(params));
    };
    e.format = [resolve, table](const ParamMap &params) {
        const Options opts = resolve(params);
        ParamMap formatted;
        for (const Key<Options> &key : *table)
            formatted.set(key.path, key.get(opts));
        return formatted;
    };
    return e;
}

/**
 * Register the built-in workloads. Registration is centralized
 * here (rather than self-registration statics in each workload's
 * .cc) so linking the static library can never drop an entry.
 * Registration order is the order `gpulat list` prints.
 */
WorkloadRegistry
buildRegistry()
{
    WorkloadRegistry reg;

    using BfsOpts = Bfs::Options;
    reg.add(workloadEntry<Bfs>(
        "bfs", "level-synchronized BFS; scattered data-dependent loads",
        {param("kind", &BfsOpts::kind, Bfs::kGraphKindSpellings,
               "graph kind"),
         param("nodes", &BfsOpts::nodes,
               "node count (uniform; implies kind=uniform unless kind "
               "given)"),
         param("scale", &BfsOpts::scale, "RMAT graphs have 2^scale nodes"),
         param("degree", &BfsOpts::degree,
               "uniform degree / RMAT edge factor"),
         param("seed", &BfsOpts::seed, "graph RNG seed"),
         param("source", &BfsOpts::source, "BFS source node"),
         param("threadsPerBlock", &BfsOpts::threadsPerBlock,
               "block size")},
        // No kind= here: it would defeat the `nodes=N implies
        // uniform` shorthand when user params are merged over these
        // defaults.
        [](ParamMap &m, double scale) {
            m.set("scale", scale >= 0.99 ? "14" : "11");
            m.set("degree", "8");
        },
        // `nodes` only applies to uniform graphs, so setting it
        // without an explicit kind implies uniform (the common CLI
        // shorthand `--workload bfs nodes=4096`).
        [](const ParamMap &p) {
            BfsOpts opts;
            if (p.has("nodes"))
                opts.kind = Bfs::GraphKind::Uniform;
            return opts;
        }));

    using StreamOpts = ComputeStream::Options;
    reg.add(workloadEntry<ComputeStream>(
        "compute_stream",
        "dependent-FMA stream; compute-bound latency hider",
        {param("n", &StreamOpts::n, "elements"),
         param("fmaDepth", &StreamOpts::fmaDepth,
               "dependent FMAs per element"),
         param("threadsPerBlock", &StreamOpts::threadsPerBlock,
               "block size"),
         param("seed", &StreamOpts::seed, "input RNG seed")},
        [](ParamMap &m, double scale) {
            m.set("n",
                  std::to_string(scaledSize(1 << 15, 1 << 12, scale)));
            m.set("fmaDepth", "32");
        }));

    using VecAddOpts = VecAdd::Options;
    reg.add(workloadEntry<VecAdd>(
        "vecadd", "streaming c = a + b; perfectly coalesced bandwidth bound",
        {param("n", &VecAddOpts::n, "elements"),
         param("threadsPerBlock", &VecAddOpts::threadsPerBlock,
               "block size"),
         param("seed", &VecAddOpts::seed, "input RNG seed")},
        [](ParamMap &m, double scale) {
            m.set("n",
                  std::to_string(scaledSize(1 << 16, 1 << 12, scale)));
        }));

    using ReductionOpts = Reduction::Options;
    reg.add(workloadEntry<Reduction>(
        "reduction", "tree reduction with shared memory and barriers",
        {param("n", &ReductionOpts::n, "elements (power of two)"),
         param("threadsPerBlock", &ReductionOpts::threadsPerBlock,
               "block size (power of two)"),
         param("seed", &ReductionOpts::seed, "input RNG seed")},
        [](ParamMap &m, double scale) {
            m.set("n",
                  std::to_string(scaledSize(1 << 16, 1 << 12, scale)));
        }));

    using StencilOpts = Stencil2D::Options;
    reg.add(workloadEntry<Stencil2D>(
        "stencil2d", "iterated 5-point stencil; neighbor reuse through caches",
        {param("width", &StencilOpts::width,
               "row length == threads per block"),
         param("height", &StencilOpts::height, "rows == blocks"),
         param("iterations", &StencilOpts::iterations, "sweeps"),
         param("seed", &StencilOpts::seed, "input RNG seed")},
        [](ParamMap &m, double scale) {
            m.set("width", "256");
            m.set("height",
                  std::to_string(scaledSize(256, 32, scale)));
            m.set("iterations", "2");
        }));

    using SpMVOpts = SpMV::Options;
    reg.add(workloadEntry<SpMV>(
        "spmv", "CSR sparse matrix-vector product; irregular gathers",
        {param("rows", &SpMVOpts::rows, "matrix rows"),
         param("nnzPerRow", &SpMVOpts::nnzPerRow, "nonzeros per row"),
         param("threadsPerBlock", &SpMVOpts::threadsPerBlock,
               "block size"),
         param("seed", &SpMVOpts::seed, "matrix RNG seed")},
        [](ParamMap &m, double scale) {
            m.set("rows",
                  std::to_string(scaledSize(1 << 13, 1 << 10, scale)));
            m.set("nnzPerRow", "16");
        }));

    using TransposeOpts = Transpose::Options;
    const auto transpose_keys = [] {
        return std::vector<Key<TransposeOpts>>{
            param("n", &TransposeOpts::n,
                  "matrix dimension (power of two, multiple of 32, "
                  "<= 1024)"),
            param("seed", &TransposeOpts::seed, "input RNG seed")};
    };
    const auto transpose_scale = [](ParamMap &m, double scale) {
        m.set("n", scale >= 0.99 ? "256" : "128");
    };
    reg.add(workloadEntry<Transpose>(
        "transpose_naive",
        "row-major matrix transpose; uncoalesced column writes",
        transpose_keys(), transpose_scale));
    reg.add(workloadEntry<Transpose>(
        "transpose_tiled",
        "shared-memory tiled transpose; coalesced contrast case",
        transpose_keys(), transpose_scale, [](const ParamMap &) {
            TransposeOpts opts;
            opts.tiled = true;
            return opts;
        }));

    using HistogramOpts = AtomicHistogram::Options;
    reg.add(workloadEntry<AtomicHistogram>(
        "histogram", "global-atomic histogram; contention scales with 1/bins",
        {param("n", &HistogramOpts::n, "input elements"),
         param("bins", &HistogramOpts::bins, "bins (power of two)"),
         param("threadsPerBlock", &HistogramOpts::threadsPerBlock,
               "block size"),
         param("seed", &HistogramOpts::seed, "input RNG seed")},
        [](ParamMap &m, double scale) {
            m.set("n",
                  std::to_string(scaledSize(1 << 14, 1 << 11, scale)));
            m.set("bins", "256");
        }));

    using ScanOpts = Scan::Options;
    reg.add(workloadEntry<Scan>(
        "scan", "two-kernel exclusive prefix scan (block scan + offsets)",
        {param("n", &ScanOpts::n, "elements"),
         param("blockElems", &ScanOpts::blockElems,
               "elements per block == block size (power of two)"),
         param("seed", &ScanOpts::seed, "input RNG seed")},
        [](ParamMap &m, double scale) {
            m.set("n",
                  std::to_string(scaledSize(1 << 14, 1 << 11, scale)));
        }));

    using GemmOpts = Gemm::Options;
    reg.add(workloadEntry<Gemm>(
        "gemm", "tiled shared-memory GEMM; dense compute, hidden latency",
        {param("n", &GemmOpts::n,
               "matrix dimension (power of two, multiple of 16)"),
         param("seed", &GemmOpts::seed, "input RNG seed")},
        [](ParamMap &m, double scale) {
            m.set("n", scale >= 0.99 ? "128" : "64");
        }));

    using ChaseOpts = PChase::Options;
    reg.add(workloadEntry<PChase>(
        "pchase", "single-thread pointer chase; idle-latency probe (Table I)",
        {param("space", &ChaseOpts::space, kChaseSpaceSpellings,
               "memory space"),
         param("footprintBytes", &ChaseOpts::footprintBytes,
               "chain footprint in bytes"),
         param("strideBytes", &ChaseOpts::strideBytes,
               "chain stride (multiple of 8)"),
         param("timedAccesses", &ChaseOpts::timedAccesses,
               "dependent loads in the timed window"),
         param("warmup", &ChaseOpts::warmup,
               "traverse the chain once before timing")},
        [](ParamMap &m, double scale) {
            m.set("timedAccesses", scale >= 0.99 ? "2048" : "256");
        }));

    // Multi-tenant serving scenarios (src/serving). Arrival streams
    // and input data derive from the `seed` config override, not a
    // workload parameter. Only the closed loop thinks.
    using ServeOpts = ServingWorkload::Options;
    const auto serve = [&reg](const char *name, const char *description,
                              ServingWorkload::Profile profile) {
        std::vector<Key<ServeOpts>> keys = {
            param("tenants", &ServeOpts::tenants, "number of tenants"),
            param("launches", &ServeOpts::launches,
                  "launches per tenant"),
            param("load", &ServeOpts::load,
                  "arrival-rate multiplier (scales gaps down)"),
            param("buffers", &ServeOpts::buffers,
                  "rotating output buffers per tenant")};
        if (profile == ServingWorkload::Profile::Closed) {
            keys.push_back(param("think", &ServeOpts::thinkCycles,
                                 "completion-to-next-arrival think "
                                 "time (cycles)"));
        }
        reg.add(workloadEntry<ServingWorkload>(
            name, description, std::move(keys),
            [](ParamMap &m, double scale) {
                m.set("launches", scale >= 0.99 ? "12" : "3");
            },
            [profile](const ParamMap &) {
                ServeOpts opts;
                opts.profile = profile;
                return opts;
            }));
    };
    serve("serve.mixed",
          "multi-tenant serving; small/medium/heavy tenants, Poisson "
          "arrivals",
          ServingWorkload::Profile::Mixed);
    serve("serve.uniform",
          "multi-tenant serving; homogeneous tenants, fixed-rate "
          "arrivals",
          ServingWorkload::Profile::Uniform);
    serve("serve.closed",
          "multi-tenant serving; closed loop, one outstanding launch "
          "per tenant",
          ServingWorkload::Profile::Closed);

    return reg;
}

} // namespace

const WorkloadRegistry &
WorkloadRegistry::instance()
{
    static const WorkloadRegistry registry = buildRegistry();
    return registry;
}

void
WorkloadRegistry::add(WorkloadEntry entry)
{
    GPULAT_ASSERT(!find(entry.name),
                  "duplicate workload '", entry.name, "'");
    entries_.push_back(std::move(entry));
}

std::vector<std::string>
WorkloadRegistry::names() const
{
    std::vector<std::string> names;
    names.reserve(entries_.size());
    for (const auto &e : entries_)
        names.push_back(e.name);
    return names;
}

const WorkloadEntry *
WorkloadRegistry::find(const std::string &name) const
{
    for (const auto &e : entries_) {
        if (e.name == name)
            return &e;
    }
    return nullptr;
}

const WorkloadEntry &
WorkloadRegistry::entry(const std::string &name) const
{
    if (const WorkloadEntry *e = find(name))
        return *e;
    std::string known;
    for (const auto &n : names())
        known += (known.empty() ? "" : ", ") + n;
    fatal("unknown workload '", name, "' (known: ", known, ")");
}

std::unique_ptr<Workload>
WorkloadRegistry::create(const std::string &name,
                         const ParamMap &params) const
{
    return entry(name).make(params);
}

std::unique_ptr<Workload>
WorkloadRegistry::create(
    const std::string &name,
    const std::vector<std::string> &assignments) const
{
    return create(name, ParamMap::parse(assignments));
}

ParamMap
WorkloadRegistry::scaledParams(const std::string &name,
                               double scale) const
{
    ParamMap map;
    entry(name).scaleDefaults(map, std::clamp(scale, 0.01, 1.0));
    return map;
}

ParamMap
WorkloadRegistry::listedDefaults(const std::string &name) const
{
    ParamMap listed = entry(name).format(ParamMap{});
    const ParamMap bench = scaledParams(name, 1.0);
    for (const auto &[key, value] : bench.entries())
        listed.set(key, value);
    return listed;
}

} // namespace gpulat
