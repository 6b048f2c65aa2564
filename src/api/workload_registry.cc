#include "api/workload_registry.hh"

#include <algorithm>

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

std::unique_ptr<Workload>
makeBfs(const ParamMap &p)
{
    Bfs::Options opts;
    // `nodes` only applies to uniform graphs, so setting it without
    // an explicit kind implies uniform (the common CLI shorthand
    // `--workload bfs nodes=4096`).
    const std::string kind =
        p.getString("kind", p.has("nodes") ? "uniform" : "rmat");
    if (kind == "rmat") {
        opts.kind = Bfs::GraphKind::Rmat;
    } else if (kind == "uniform") {
        opts.kind = Bfs::GraphKind::Uniform;
    } else {
        fatal("bfs: kind must be rmat|uniform, got '", kind, "'");
    }
    opts.nodes = p.getU64("nodes", opts.nodes);
    opts.scale = p.getUnsigned("scale", opts.scale);
    opts.degree = p.getUnsigned("degree", opts.degree);
    opts.seed = p.getU64("seed", opts.seed);
    opts.source = p.getU64("source", opts.source);
    opts.threadsPerBlock =
        p.getUnsigned("threadsPerBlock", opts.threadsPerBlock);
    return std::make_unique<Bfs>(opts);
}

std::unique_ptr<Workload>
makeComputeStream(const ParamMap &p)
{
    ComputeStream::Options opts;
    opts.n = p.getU64("n", opts.n);
    opts.fmaDepth = p.getUnsigned("fmaDepth", opts.fmaDepth);
    opts.threadsPerBlock =
        p.getUnsigned("threadsPerBlock", opts.threadsPerBlock);
    opts.seed = p.getU64("seed", opts.seed);
    return std::make_unique<ComputeStream>(opts);
}

std::unique_ptr<Workload>
makeVecAdd(const ParamMap &p)
{
    VecAdd::Options opts;
    opts.n = p.getU64("n", opts.n);
    opts.threadsPerBlock =
        p.getUnsigned("threadsPerBlock", opts.threadsPerBlock);
    opts.seed = p.getU64("seed", opts.seed);
    return std::make_unique<VecAdd>(opts);
}

std::unique_ptr<Workload>
makeReduction(const ParamMap &p)
{
    Reduction::Options opts;
    opts.n = p.getU64("n", opts.n);
    opts.threadsPerBlock =
        p.getUnsigned("threadsPerBlock", opts.threadsPerBlock);
    opts.seed = p.getU64("seed", opts.seed);
    return std::make_unique<Reduction>(opts);
}

std::unique_ptr<Workload>
makeStencil(const ParamMap &p)
{
    Stencil2D::Options opts;
    opts.width = p.getUnsigned("width", opts.width);
    opts.height = p.getUnsigned("height", opts.height);
    opts.iterations = p.getUnsigned("iterations", opts.iterations);
    opts.seed = p.getU64("seed", opts.seed);
    return std::make_unique<Stencil2D>(opts);
}

std::unique_ptr<Workload>
makeSpMV(const ParamMap &p)
{
    SpMV::Options opts;
    opts.rows = p.getU64("rows", opts.rows);
    opts.nnzPerRow = p.getUnsigned("nnzPerRow", opts.nnzPerRow);
    opts.threadsPerBlock =
        p.getUnsigned("threadsPerBlock", opts.threadsPerBlock);
    opts.seed = p.getU64("seed", opts.seed);
    return std::make_unique<SpMV>(opts);
}

std::unique_ptr<Workload>
makeTranspose(const ParamMap &p, bool tiled)
{
    Transpose::Options opts;
    opts.n = p.getUnsigned("n", opts.n);
    opts.tiled = tiled;
    opts.seed = p.getU64("seed", opts.seed);
    return std::make_unique<Transpose>(opts);
}

std::unique_ptr<Workload>
makeHistogram(const ParamMap &p)
{
    AtomicHistogram::Options opts;
    opts.n = p.getU64("n", opts.n);
    opts.bins = p.getU64("bins", opts.bins);
    opts.threadsPerBlock =
        p.getUnsigned("threadsPerBlock", opts.threadsPerBlock);
    opts.seed = p.getU64("seed", opts.seed);
    return std::make_unique<AtomicHistogram>(opts);
}

std::unique_ptr<Workload>
makeScan(const ParamMap &p)
{
    Scan::Options opts;
    opts.n = p.getU64("n", opts.n);
    opts.blockElems = p.getUnsigned("blockElems", opts.blockElems);
    opts.seed = p.getU64("seed", opts.seed);
    return std::make_unique<Scan>(opts);
}

std::unique_ptr<Workload>
makePChase(const ParamMap &p)
{
    PChase::Options opts;
    const std::string space = p.getString("space", "global");
    if (space == "global") {
        opts.space = MemSpace::Global;
    } else if (space == "local") {
        opts.space = MemSpace::Local;
    } else {
        fatal("pchase: space must be global|local, got '", space,
              "'");
    }
    opts.footprintBytes =
        p.getU64("footprintBytes", opts.footprintBytes);
    opts.strideBytes = p.getU64("strideBytes", opts.strideBytes);
    opts.timedAccesses =
        p.getU64("timedAccesses", opts.timedAccesses);
    opts.warmup = p.getBool("warmup", opts.warmup);
    return std::make_unique<PChase>(opts);
}

std::unique_ptr<Workload>
makeServe(ServingWorkload::Profile profile, const ParamMap &p)
{
    ServingWorkload::Options opts;
    opts.profile = profile;
    opts.tenants = p.getUnsigned("tenants", opts.tenants);
    opts.launches = p.getUnsigned("launches", opts.launches);
    opts.load = p.getDouble("load", opts.load);
    opts.buffers = p.getUnsigned("buffers", opts.buffers);
    opts.thinkCycles = p.getDouble("think", opts.thinkCycles);
    return std::make_unique<ServingWorkload>(opts);
}

std::unique_ptr<Workload>
makeGemm(const ParamMap &p)
{
    Gemm::Options opts;
    opts.n = p.getUnsigned("n", opts.n);
    opts.seed = p.getU64("seed", opts.seed);
    return std::make_unique<Gemm>(opts);
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

    reg.add({
        "bfs",
        "level-synchronized BFS; scattered data-dependent loads",
        {{"kind", "rmat", "graph kind: rmat|uniform"},
         {"nodes", "16384", "node count (uniform; implies "
                            "kind=uniform unless kind given)"},
         {"scale", "14", "RMAT graphs have 2^scale nodes"},
         {"degree", "8", "uniform degree / RMAT edge factor"},
         {"seed", "1", "graph RNG seed"},
         {"source", "0", "BFS source node"},
         {"threadsPerBlock", "128", "block size"}},
        makeBfs,
        // No kind= here: the factory defaults to rmat, and setting
        // it would defeat the `nodes=N implies uniform` shorthand
        // when user params are merged over these defaults.
        [](ParamMap &m, double scale) {
            m.set("scale", scale >= 0.99 ? "14" : "11");
            m.set("degree", "8");
        },
    });

    reg.add({
        "compute_stream",
        "dependent-FMA stream; compute-bound latency hider",
        {{"n", "32768", "elements"},
         {"fmaDepth", "32", "dependent FMAs per element"},
         {"threadsPerBlock", "256", "block size"},
         {"seed", "8", "input RNG seed"}},
        makeComputeStream,
        [](ParamMap &m, double scale) {
            m.set("n",
                  std::to_string(scaledSize(1 << 15, 1 << 12, scale)));
            m.set("fmaDepth", "32");
        },
    });

    reg.add({
        "vecadd",
        "streaming c = a + b; perfectly coalesced bandwidth bound",
        {{"n", "65536", "elements"},
         {"threadsPerBlock", "256", "block size"},
         {"seed", "2", "input RNG seed"}},
        makeVecAdd,
        [](ParamMap &m, double scale) {
            m.set("n",
                  std::to_string(scaledSize(1 << 16, 1 << 12, scale)));
        },
    });

    reg.add({
        "reduction",
        "tree reduction with shared memory and barriers",
        {{"n", "65536", "elements (power of two)"},
         {"threadsPerBlock", "256", "block size (power of two)"},
         {"seed", "3", "input RNG seed"}},
        makeReduction,
        [](ParamMap &m, double scale) {
            m.set("n",
                  std::to_string(scaledSize(1 << 16, 1 << 12, scale)));
        },
    });

    reg.add({
        "stencil2d",
        "iterated 5-point stencil; neighbor reuse through caches",
        {{"width", "256", "row length == threads per block"},
         {"height", "256", "rows == blocks"},
         {"iterations", "2", "sweeps"},
         {"seed", "4", "input RNG seed"}},
        makeStencil,
        [](ParamMap &m, double scale) {
            m.set("width", "256");
            m.set("height",
                  std::to_string(scaledSize(256, 32, scale)));
            m.set("iterations", "2");
        },
    });

    reg.add({
        "spmv",
        "CSR sparse matrix-vector product; irregular gathers",
        {{"rows", "8192", "matrix rows"},
         {"nnzPerRow", "16", "nonzeros per row"},
         {"threadsPerBlock", "128", "block size"},
         {"seed", "5", "matrix RNG seed"}},
        makeSpMV,
        [](ParamMap &m, double scale) {
            m.set("rows",
                  std::to_string(scaledSize(1 << 13, 1 << 10, scale)));
            m.set("nnzPerRow", "16");
        },
    });

    reg.add({
        "transpose_naive",
        "row-major matrix transpose; uncoalesced column writes",
        {{"n", "256", "matrix dimension (power of two, multiple "
                      "of 32, <= 1024)"},
         {"seed", "6", "input RNG seed"}},
        [](const ParamMap &p) { return makeTranspose(p, false); },
        [](ParamMap &m, double scale) {
            m.set("n", scale >= 0.99 ? "256" : "128");
        },
    });

    reg.add({
        "transpose_tiled",
        "shared-memory tiled transpose; coalesced contrast case",
        {{"n", "256", "matrix dimension (power of two, multiple "
                      "of 32, <= 1024)"},
         {"seed", "6", "input RNG seed"}},
        [](const ParamMap &p) { return makeTranspose(p, true); },
        [](ParamMap &m, double scale) {
            m.set("n", scale >= 0.99 ? "256" : "128");
        },
    });

    reg.add({
        "histogram",
        "global-atomic histogram; contention scales with 1/bins",
        {{"n", "16384", "input elements"},
         {"bins", "256", "bins (power of two)"},
         {"threadsPerBlock", "128", "block size"},
         {"seed", "9", "input RNG seed"}},
        makeHistogram,
        [](ParamMap &m, double scale) {
            m.set("n",
                  std::to_string(scaledSize(1 << 14, 1 << 11, scale)));
            m.set("bins", "256");
        },
    });

    reg.add({
        "scan",
        "two-kernel exclusive prefix scan (block scan + offsets)",
        {{"n", "16384", "elements"},
         {"blockElems", "256", "elements per block == block size "
                               "(power of two)"},
         {"seed", "11", "input RNG seed"}},
        makeScan,
        [](ParamMap &m, double scale) {
            m.set("n",
                  std::to_string(scaledSize(1 << 14, 1 << 11, scale)));
        },
    });

    reg.add({
        "gemm",
        "tiled shared-memory GEMM; dense compute, hidden latency",
        {{"n", "128", "matrix dimension (power of two, multiple "
                      "of 16)"},
         {"seed", "10", "input RNG seed"}},
        makeGemm,
        [](ParamMap &m, double scale) {
            m.set("n", scale >= 0.99 ? "128" : "64");
        },
    });

    reg.add({
        "pchase",
        "single-thread pointer chase; idle-latency probe (Table I)",
        {{"space", "global", "memory space: global|local"},
         {"footprintBytes", "65536", "chain footprint in bytes"},
         {"strideBytes", "128", "chain stride (multiple of 8)"},
         {"timedAccesses", "2048", "dependent loads in the timed "
                                   "window"},
         {"warmup", "true", "traverse the chain once before "
                            "timing"}},
        makePChase,
        [](ParamMap &m, double scale) {
            m.set("timedAccesses", scale >= 0.99 ? "2048" : "256");
        },
    });

    // Multi-tenant serving scenarios (src/serving). Arrival streams
    // and input data derive from the `seed` config override, not a
    // workload parameter.
    const std::vector<WorkloadParamSpec> serve_params = {
        {"tenants", "3", "number of tenants"},
        {"launches", "12", "launches per tenant"},
        {"load", "1.0", "arrival-rate multiplier (scales gaps "
                        "down)"},
        {"buffers", "3", "rotating output buffers per tenant"},
    };
    auto serve_scale = [](ParamMap &m, double scale) {
        m.set("launches", scale >= 0.99 ? "12" : "3");
    };
    reg.add({
        "serve.mixed",
        "multi-tenant serving; small/medium/heavy tenants, "
        "Poisson arrivals",
        serve_params,
        [](const ParamMap &p) {
            return makeServe(ServingWorkload::Profile::Mixed, p);
        },
        serve_scale,
    });
    reg.add({
        "serve.uniform",
        "multi-tenant serving; homogeneous tenants, fixed-rate "
        "arrivals",
        serve_params,
        [](const ParamMap &p) {
            return makeServe(ServingWorkload::Profile::Uniform, p);
        },
        serve_scale,
    });
    {
        auto closed_params = serve_params;
        closed_params.push_back(
            {"think", "2000", "completion-to-next-arrival think "
                              "time (cycles)"});
        reg.add({
            "serve.closed",
            "multi-tenant serving; closed loop, one outstanding "
            "launch per tenant",
            closed_params,
            [](const ParamMap &p) {
                return makeServe(ServingWorkload::Profile::Closed, p);
            },
            serve_scale,
        });
    }

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

std::unique_ptr<Workload>
WorkloadRegistry::create(const std::string &name,
                         const ParamMap &params) const
{
    const WorkloadEntry *entry = find(name);
    if (!entry) {
        std::string known;
        for (const auto &n : names())
            known += (known.empty() ? "" : ", ") + n;
        fatal("unknown workload '", name, "' (known: ", known, ")");
    }
    auto workload = entry->make(params);
    const auto unknown = params.unconsumedKeys();
    if (!unknown.empty()) {
        std::string list;
        for (const auto &k : unknown)
            list += (list.empty() ? "" : ", ") + k;
        fatal("workload '", name, "': unknown parameter(s): ", list);
    }
    return workload;
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
    const WorkloadEntry *entry = find(name);
    if (!entry)
        fatal("unknown workload '", name, "'");
    scale = std::clamp(scale, 0.01, 1.0);
    ParamMap map;
    if (entry->scaleDefaults)
        entry->scaleDefaults(map, scale);
    return map;
}

} // namespace gpulat
