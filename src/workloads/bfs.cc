#include "workloads/bfs.hh"

#include "common/log.hh"
#include "isa/assembler.hh"

namespace gpulat {

namespace {

const char *kBfsKernel = R"(
.kernel bfs_level
; params: 0=rowOff 1=cols 2=levels 3=curLevel 4=changedFlag 5=numNodes
    s2r   r0, tid
    s2r   r1, ctaid
    s2r   r2, ntid
    imad  r0, r1, r2, r0        ; v = global thread id
    mov   r3, param5
    setp.ge p0, r0, r3
    @p0 bra done                ; out-of-range threads
    mov   r4, param2            ; levels base
    shl   r5, r0, 3
    iadd  r6, r4, r5
    ld.global r7, [r6]          ; level[v]
    mov   r8, param3            ; current level
    setp.ne p1, r7, r8
    @p1 bra done                ; not on the frontier
    mov   r9, param0
    iadd  r10, r9, r5
    ld.global r11, [r10]        ; edge range begin
    ld.global r12, [r10+8]      ; edge range end
    mov   r13, param1           ; columns base
loop:
    setp.ge p2, r11, r12
    @p2 bra done
    shl   r14, r11, 3
    iadd  r15, r13, r14
    ld.global r16, [r15]        ; u = columns[e]
    shl   r17, r16, 3
    iadd  r18, r4, r17
    ld.global r19, [r18]        ; level[u]
    setp.ne p3, r19, -1
    @p3 bra skip                ; already visited
    iadd  r20, r8, 1
    st.global [r18], r20        ; level[u] = cur + 1
    mov   r21, param4
    mov   r22, 1
    st.global [r21], r22        ; changed = 1
skip:
    iadd  r11, r11, 1
    bra   loop
done:
    exit
)";

} // namespace

Bfs::Bfs(Options opts) : opts_(opts)
{
    if (opts_.kind == GraphKind::Rmat) {
        checkParam(opts_.scale >= 2 && opts_.scale < 30, name(),
                   "scale", "must be in [2, 30) (got ", opts_.scale,
                   ")");
        graph_ = makeRmatGraph(opts_.scale, opts_.degree, opts_.seed);
    } else {
        checkParam(opts_.nodes > 1, name(), "nodes",
                   "must be at least 2 (got ", opts_.nodes, ")");
        graph_ = makeUniformGraph(opts_.nodes, opts_.degree, opts_.seed);
    }
    checkParam(opts_.source < graph_.numNodes, name(), "source",
               "must name one of the graph's ", graph_.numNodes,
               " nodes (got ", opts_.source, ")");
}

Kernel
Bfs::buildKernel()
{
    return assemble(kBfsKernel);
}

WorkloadResult
Bfs::run(Gpu &gpu)
{
    const Kernel kernel = buildKernel();
    const std::uint64_t n = graph_.numNodes;

    const Addr d_row = gpu.alloc((n + 1) * 8);
    const Addr d_col = gpu.alloc(std::max<std::uint64_t>(
        graph_.numEdges(), 1) * 8);
    const Addr d_lvl = gpu.alloc(n * 8);
    const Addr d_chg = gpu.alloc(8);

    gpu.copyToDevice(d_row, graph_.rowOffsets.data(), (n + 1) * 8);
    if (graph_.numEdges() > 0) {
        gpu.copyToDevice(d_col, graph_.columns.data(),
                         graph_.numEdges() * 8);
    }
    std::vector<std::int64_t> levels(n, -1);
    levels[opts_.source] = 0;
    gpu.copyToDevice(d_lvl, levels.data(), n * 8);

    const unsigned tpb = opts_.threadsPerBlock;
    checkParam(tpb > 0, name(), "threadsPerBlock", "must be > 0");
    const auto blocks =
        static_cast<unsigned>((n + tpb - 1) / tpb);

    std::int64_t cur = 0;
    while (true) {
        const std::uint64_t zero = 0;
        gpu.copyToDevice(d_chg, &zero, 8);
        gpu.launch(kernel, blocks, tpb,
                   {d_row, d_col, d_lvl, static_cast<RegValue>(cur),
                    d_chg, n});

        std::uint64_t changed = 0;
        gpu.copyFromDevice(&changed, d_chg, 8);
        if (!changed)
            break;
        ++cur;
        if (cur > static_cast<std::int64_t>(n))
            panic("BFS failed to converge");
    }

    gpu.copyFromDevice(levels.data(), d_lvl, n * 8);
    const auto reference = cpuBfs(graph_, opts_.source);
    WorkloadResult result;
    result.correct = true;
    for (std::uint64_t v = 0; v < n; ++v) {
        if (levels[v] != reference[v]) {
            result.correct = false;
            break;
        }
    }
    return result;
}

} // namespace gpulat
