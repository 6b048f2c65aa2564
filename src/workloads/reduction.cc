#include "workloads/reduction.hh"

#include <bit>
#include <cmath>
#include <vector>

#include "common/log.hh"
#include "common/random.hh"
#include "isa/assembler.hh"

namespace gpulat {

namespace {

const char *kReduceKernel = R"(
.kernel reduce_block
; params: 0=in 1=partials 2=n
; shared size patched by buildKernel (.shared directive below)
.shared 8192
    s2r   r0, tid
    s2r   r1, ctaid
    s2r   r2, ntid
    imad  r3, r1, r2, r0        ; gid
    mov   r4, param2
    mov   r6, 0                 ; value defaults to +0.0
    setp.lt p0, r3, r4
    @p0 shl r5, r3, 3
    @p0 mov r7, param0
    @p0 iadd r7, r7, r5
    @p0 ld.global r6, [r7]
    shl   r8, r0, 3
    st.shared [r8], r6
    bar
    shr   r9, r2, 1             ; s = ntid / 2
red_loop:
    setp.eq p1, r9, 0
    @p1 bra red_done
    setp.lt p2, r0, r9
    @!p2 bra red_skip
    ld.shared r11, [r8]
    iadd  r12, r0, r9
    shl   r13, r12, 3
    ld.shared r14, [r13]
    fadd  r15, r11, r14
    st.shared [r8], r15
red_skip:
    bar
    shr   r9, r9, 1
    bra   red_loop
red_done:
    setp.ne p3, r0, 0
    @p3 bra done
    ld.shared r16, [r8]
    mov   r17, param1
    shl   r18, r1, 3
    iadd  r19, r17, r18
    st.global [r19], r16
done:
    exit
)";

} // namespace

Kernel
Reduction::buildKernel(unsigned threads_per_block)
{
    checkParam(std::has_single_bit(threads_per_block), "reduction",
               "threadsPerBlock", "must be a power of two (got ",
               threads_per_block, ")");
    Kernel k = assemble(kReduceKernel);
    k.sharedBytes = threads_per_block * 8;
    return k;
}

WorkloadResult
Reduction::run(Gpu &gpu)
{
    const std::uint64_t n = opts_.n;
    const unsigned tpb = opts_.threadsPerBlock;
    const Kernel kernel = buildKernel(tpb);
    const auto blocks = static_cast<unsigned>((n + tpb - 1) / tpb);

    Rng rng(opts_.seed);
    std::vector<double> in(n);
    // Small integers so the float sum is exact and order-independent.
    for (auto &v : in)
        v = static_cast<double>(rng.below(1024));

    const Addr d_in = gpu.alloc(n * 8);
    const Addr d_part = gpu.alloc(blocks * 8);
    gpu.copyToDevice(d_in, in.data(), n * 8);

    gpu.launch(kernel, blocks, tpb, {d_in, d_part, n});

    std::vector<double> partials(blocks);
    gpu.copyFromDevice(partials.data(), d_part, blocks * 8);
    double sum = 0.0;
    for (double p : partials)
        sum += p;

    double reference = 0.0;
    for (double v : in)
        reference += v;

    WorkloadResult result;
    result.correct = sum == reference;
    return result;
}

} // namespace gpulat
