/**
 * @file
 * Frontier-based level-synchronized BFS — the paper's exemplary
 * dynamic-latency workload. One kernel launch per BFS level; every
 * thread owns a node, threads on the current frontier walk their
 * neighbor lists and relax unvisited nodes (benign same-value
 * races, Rodinia style). The data-dependent column/level gathers
 * produce the scattered long-latency loads of Figures 1 and 2.
 */

#ifndef GPULAT_WORKLOADS_BFS_HH
#define GPULAT_WORKLOADS_BFS_HH

#include "common/spelling.hh"
#include "workloads/graph.hh"
#include "workloads/workload.hh"

namespace gpulat {

class Bfs : public Workload
{
  public:
    enum class GraphKind { Uniform, Rmat };

    /** `kind` spellings. */
    static constexpr Spelling<GraphKind> kGraphKindSpellings[] = {
        {"rmat", GraphKind::Rmat},
        {"uniform", GraphKind::Uniform},
    };

    struct Options
    {
        GraphKind kind = GraphKind::Rmat;
        /** Uniform: node count; RMAT: 2^scale nodes. */
        std::uint64_t nodes = 1 << 14;
        unsigned scale = 14;
        unsigned degree = 8; ///< uniform degree / RMAT edge factor
        std::uint64_t seed = 1;
        std::uint64_t source = 0;
        unsigned threadsPerBlock = 128;
    };

    explicit Bfs(Options opts);

    std::string name() const override { return "bfs"; }
    WorkloadResult run(Gpu &gpu) override;

    /** The per-level kernel (exposed for tests). */
    static Kernel buildKernel();

    const CsrGraph &graph() const { return graph_; }

  private:
    Options opts_;
    CsrGraph graph_;
};

} // namespace gpulat

#endif // GPULAT_WORKLOADS_BFS_HH
