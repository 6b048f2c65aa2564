#include "workloads/stencil.hh"

#include <bit>
#include <vector>

#include "common/random.hh"
#include "isa/assembler.hh"

namespace gpulat {

namespace {

const char *kStencilKernel = R"(
.kernel stencil5
; params: 0=in 1=out 2=quarter(double bits)
; x = tid, y = ctaid, W = ntid, H = nctaid
    s2r   r0, tid
    s2r   r1, ctaid
    s2r   r2, ntid
    s2r   r3, nctaid
    mov   r4, param0
    mov   r5, param1
    imad  r6, r1, r2, r0        ; idx = y*W + x
    shl   r7, r6, 3
    iadd  r8, r4, r7
    ld.global r9, [r8]          ; center (kept verbatim on borders)
    setp.eq p0, r0, 0
    @p0 bra border
    setp.eq p1, r1, 0
    @p1 bra border
    isub  r10, r2, 1
    setp.eq p2, r0, r10
    @p2 bra border
    isub  r11, r3, 1
    setp.eq p3, r1, r11
    @p3 bra border
    ld.global r12, [r8+8]       ; east
    ld.global r13, [r8-8]       ; west
    shl   r14, r2, 3
    iadd  r15, r8, r14
    ld.global r16, [r15]        ; south
    isub  r17, r8, r14
    ld.global r18, [r17]        ; north
    fadd  r19, r12, r13
    fadd  r20, r16, r18
    fadd  r21, r19, r20
    mov   r22, param2
    fmul  r9, r21, r22
border:
    iadd  r23, r5, r7
    st.global [r23], r9
    exit
)";

} // namespace

Kernel
Stencil2D::buildKernel()
{
    return assemble(kStencilKernel);
}

WorkloadResult
Stencil2D::run(Gpu &gpu)
{
    const std::uint64_t w = opts_.width;
    const std::uint64_t h = opts_.height;
    const std::uint64_t n = w * h;

    Rng rng(opts_.seed);
    std::vector<double> grid(n);
    for (auto &v : grid)
        v = static_cast<double>(rng.below(256));

    Addr d_a = gpu.alloc(n * 8);
    Addr d_b = gpu.alloc(n * 8);
    gpu.copyToDevice(d_a, grid.data(), n * 8);

    const RegValue quarter = std::bit_cast<RegValue>(0.25);
    const Kernel kernel = buildKernel();

    for (unsigned it = 0; it < opts_.iterations; ++it) {
        gpu.launch(kernel, static_cast<unsigned>(h),
                   static_cast<unsigned>(w), {d_a, d_b, quarter});
        std::swap(d_a, d_b);
    }

    std::vector<double> out(n);
    gpu.copyFromDevice(out.data(), d_a, n * 8);

    // CPU reference.
    std::vector<double> ref = grid;
    std::vector<double> next(n);
    for (unsigned it = 0; it < opts_.iterations; ++it) {
        for (std::uint64_t y = 0; y < h; ++y) {
            for (std::uint64_t x = 0; x < w; ++x) {
                const std::uint64_t i = y * w + x;
                if (x == 0 || y == 0 || x == w - 1 || y == h - 1) {
                    next[i] = ref[i];
                } else {
                    next[i] = 0.25 * (ref[i - 1] + ref[i + 1] +
                                      ref[i - w] + ref[i + w]);
                }
            }
        }
        std::swap(ref, next);
    }

    WorkloadResult result;
    result.correct = out == ref;
    return result;
}

} // namespace gpulat
