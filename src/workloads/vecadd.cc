#include "workloads/vecadd.hh"

#include <cmath>
#include <vector>

#include "common/random.hh"
#include "isa/assembler.hh"

namespace gpulat {

namespace {

const char *kVecAddKernel = R"(
.kernel vecadd
; params: 0=a 1=b 2=c 3=n
    s2r   r0, tid
    s2r   r1, ctaid
    s2r   r2, ntid
    imad  r0, r1, r2, r0
    mov   r3, param3
    setp.ge p0, r0, r3
    @p0 bra done
    shl   r4, r0, 3
    mov   r5, param0
    iadd  r5, r5, r4
    ld.global r6, [r5]
    mov   r7, param1
    iadd  r7, r7, r4
    ld.global r8, [r7]
    fadd  r9, r6, r8
    mov   r10, param2
    iadd  r10, r10, r4
    st.global [r10], r9
done:
    exit
)";

} // namespace

Kernel
VecAdd::buildKernel()
{
    return assemble(kVecAddKernel);
}

WorkloadResult
VecAdd::run(Gpu &gpu)
{
    const std::uint64_t n = opts_.n;
    Rng rng(opts_.seed);
    std::vector<double> a(n);
    std::vector<double> b(n);
    for (std::uint64_t i = 0; i < n; ++i) {
        a[i] = rng.uniform();
        b[i] = rng.uniform();
    }

    const Addr d_a = gpu.alloc(n * 8);
    const Addr d_b = gpu.alloc(n * 8);
    const Addr d_c = gpu.alloc(n * 8);
    gpu.copyToDevice(d_a, a.data(), n * 8);
    gpu.copyToDevice(d_b, b.data(), n * 8);

    const unsigned tpb = opts_.threadsPerBlock;
    checkParam(tpb > 0, name(), "threadsPerBlock", "must be > 0");
    const auto blocks = static_cast<unsigned>((n + tpb - 1) / tpb);
    gpu.launch(buildKernel(), blocks, tpb, {d_a, d_b, d_c, n});

    std::vector<double> c(n);
    gpu.copyFromDevice(c.data(), d_c, n * 8);

    WorkloadResult result;
    result.correct = true;
    for (std::uint64_t i = 0; i < n; ++i) {
        if (c[i] != a[i] + b[i]) {
            result.correct = false;
            break;
        }
    }
    return result;
}

} // namespace gpulat
