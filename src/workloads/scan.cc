#include "workloads/scan.hh"

#include <bit>
#include <vector>

#include "common/log.hh"
#include "common/random.hh"
#include "isa/assembler.hh"

namespace gpulat {

namespace {

// Hillis-Steele inclusive scan in shared memory, converted to
// exclusive on output; the last thread emits the block total.
const char *kScanKernel = R"(
.kernel scan_block
.shared 8192
; params: 0=in 1=out 2=blockSums 3=n
    s2r   r0, tid
    s2r   r1, ctaid
    s2r   r2, ntid
    imad  r3, r1, r2, r0
    mov   r4, param3
    mov   r5, 0
    setp.lt p0, r3, r4
    @p0 shl r6, r3, 3
    @p0 mov r7, param0
    @p0 iadd r7, r7, r6
    @p0 ld.global r5, [r7]
    shl   r8, r0, 3
    st.shared [r8], r5
    bar
    mov   r9, 1
sloop:
    setp.ge p1, r9, r2
    @p1 bra sdone
    mov   r10, 0
    setp.ge p2, r0, r9
    @p2 isub r11, r0, r9
    @p2 shl r12, r11, 3
    @p2 ld.shared r10, [r12]
    bar
    @p2 ld.shared r13, [r8]
    @p2 iadd r13, r13, r10
    @p2 st.shared [r8], r13
    bar
    shl   r9, r9, 1
    bra   sloop
sdone:
    mov   r14, 0
    setp.ne p3, r0, 0
    @p3 isub r15, r0, 1
    @p3 shl r16, r15, 3
    @p3 ld.shared r14, [r16]
    setp.lt p4, r3, r4
    @p4 mov r17, param1
    @p4 shl r18, r3, 3
    @p4 iadd r17, r17, r18
    @p4 st.global [r17], r14
    isub  r19, r2, 1
    setp.ne p5, r0, r19
    @p5 bra fin
    shl   r20, r19, 3
    ld.shared r21, [r20]
    mov   r22, param2
    shl   r23, r1, 3
    iadd  r24, r22, r23
    st.global [r24], r21
fin:
    exit
)";

const char *kAddOffsetsKernel = R"(
.kernel scan_add_offsets
; params: 0=out 1=scannedBlockSums 2=n
    s2r   r0, tid
    s2r   r1, ctaid
    s2r   r2, ntid
    imad  r3, r1, r2, r0
    mov   r4, param2
    setp.ge p0, r3, r4
    @p0 bra done
    mov   r5, param1
    shl   r6, r1, 3
    iadd  r5, r5, r6
    ld.global r7, [r5]
    mov   r8, param0
    shl   r9, r3, 3
    iadd  r8, r8, r9
    ld.global r10, [r8]
    iadd  r10, r10, r7
    st.global [r8], r10
done:
    exit
)";

} // namespace

Kernel
Scan::buildScanKernel()
{
    return assemble(kScanKernel);
}

Kernel
Scan::buildAddOffsetsKernel()
{
    return assemble(kAddOffsetsKernel);
}

WorkloadResult
Scan::run(Gpu &gpu)
{
    checkParam(std::has_single_bit(opts_.blockElems), name(),
               "blockElems", "must be a power of two (got ",
               opts_.blockElems, ")");
    const std::uint64_t n = opts_.n;
    const unsigned tpb = opts_.blockElems;
    const auto blocks = static_cast<unsigned>((n + tpb - 1) / tpb);

    Rng rng(opts_.seed);
    std::vector<std::uint64_t> in(n);
    for (auto &v : in)
        v = rng.below(1000);

    const Addr d_in = gpu.alloc(n * 8);
    const Addr d_out = gpu.alloc(n * 8);
    const Addr d_sums = gpu.alloc(blocks * 8);
    gpu.copyToDevice(d_in, in.data(), n * 8);

    Kernel scan_kernel = buildScanKernel();
    scan_kernel.sharedBytes = tpb * 8;

    gpu.launch(scan_kernel, blocks, tpb, {d_in, d_out, d_sums, n});

    // Host-side second level: exclusive-scan the block totals (a
    // single small vector; a recursive device pass would add nothing
    // to the latency behaviour under study).
    std::vector<std::uint64_t> sums(blocks);
    gpu.copyFromDevice(sums.data(), d_sums, blocks * 8);
    std::uint64_t running = 0;
    for (auto &v : sums) {
        const std::uint64_t next = running + v;
        v = running;
        running = next;
    }
    gpu.copyToDevice(d_sums, sums.data(), blocks * 8);

    gpu.launch(buildAddOffsetsKernel(), blocks, tpb, {d_out, d_sums, n});

    std::vector<std::uint64_t> out(n);
    gpu.copyFromDevice(out.data(), d_out, n * 8);

    std::uint64_t acc = 0;
    WorkloadResult result;
    result.correct = true;
    for (std::uint64_t i = 0; i < n; ++i) {
        if (out[i] != acc) {
            result.correct = false;
            break;
        }
        acc += in[i];
    }
    return result;
}

} // namespace gpulat
