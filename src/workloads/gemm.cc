#include "workloads/gemm.hh"

#include <bit>
#include <vector>

#include "common/log.hh"
#include "common/random.hh"
#include "isa/assembler.hh"

namespace gpulat {

namespace {

// One 16x16 tile of C per 256-thread block. shA at shared offset 0,
// shB at 2048. lx = tid & 15, ly = tid >> 4.
const char *kGemmKernel = R"(
.kernel gemm_tiled
.shared 4096
; params: 0=A 1=B 2=C 3=N 4=log2(N/16)
    s2r   r0, tid
    and   r1, r0, 15            ; lx
    shr   r2, r0, 4             ; ly
    s2r   r3, ctaid
    mov   r4, param3            ; N
    shr   r5, r4, 4             ; tiles per row
    isub  r6, r5, 1
    and   r7, r3, r6            ; tile x
    mov   r8, param4
    shr   r9, r3, r8            ; tile y
    shl   r10, r9, 4
    iadd  r10, r10, r2          ; row = ty*16 + ly
    shl   r11, r7, 4
    iadd  r11, r11, r1          ; col = tx*16 + lx
    mov   r12, 0                ; acc = +0.0
    mov   r13, 0                ; k-tile index
kloop:
    setp.ge p0, r13, r5
    @p0 bra kdone
    ; shA[ly][lx] = A[row][k0*16 + lx]
    shl   r14, r13, 4
    iadd  r15, r14, r1
    imul  r16, r10, r4
    iadd  r16, r16, r15
    shl   r17, r16, 3
    mov   r18, param0
    iadd  r18, r18, r17
    ld.global r19, [r18]
    shl   r20, r0, 3
    st.shared [r20], r19
    ; shB[ly][lx] = B[k0*16 + ly][col]
    iadd  r21, r14, r2
    imul  r22, r21, r4
    iadd  r22, r22, r11
    shl   r23, r22, 3
    mov   r24, param1
    iadd  r24, r24, r23
    ld.global r25, [r24]
    iadd  r26, r20, 2048
    st.shared [r26], r25
    bar
    ; acc += shA[ly][kk] * shB[kk][lx], kk = 0..15
    mov   r27, 0
inner:
    setp.ge p1, r27, 16
    @p1 bra inner_done
    shl   r28, r2, 4
    iadd  r28, r28, r27
    shl   r28, r28, 3
    ld.shared r29, [r28]
    shl   r30, r27, 4
    iadd  r30, r30, r1
    shl   r31, r30, 3
    ld.shared r32, [r31+2048]
    ffma  r12, r29, r32, r12
    iadd  r27, r27, 1
    bra   inner
inner_done:
    bar
    iadd  r13, r13, 1
    bra   kloop
kdone:
    imul  r33, r10, r4
    iadd  r33, r33, r11
    shl   r34, r33, 3
    mov   r35, param2
    iadd  r35, r35, r34
    st.global [r35], r12
    exit
)";

} // namespace

Kernel
Gemm::buildKernel()
{
    return assemble(kGemmKernel);
}

WorkloadResult
Gemm::run(Gpu &gpu)
{
    const unsigned n = opts_.n;
    checkParam(n >= 16 && std::has_single_bit(n), name(), "n",
               "must be a power of two >= 16 (got ", n, ")");
    const std::uint64_t elems = static_cast<std::uint64_t>(n) * n;

    Rng rng(opts_.seed);
    std::vector<double> a(elems);
    std::vector<double> b(elems);
    // Small integral values keep double sums exact for comparison.
    for (auto &v : a)
        v = static_cast<double>(rng.below(8));
    for (auto &v : b)
        v = static_cast<double>(rng.below(8));

    const Addr d_a = gpu.alloc(elems * 8);
    const Addr d_b = gpu.alloc(elems * 8);
    const Addr d_c = gpu.alloc(elems * 8);
    gpu.copyToDevice(d_a, a.data(), elems * 8);
    gpu.copyToDevice(d_b, b.data(), elems * 8);

    const unsigned tiles = n / 16;
    const unsigned shift =
        static_cast<unsigned>(std::countr_zero(tiles));
    gpu.launch(buildKernel(), tiles * tiles, 256,
               {d_a, d_b, d_c, n, shift});

    std::vector<double> c(elems);
    gpu.copyFromDevice(c.data(), d_c, elems * 8);

    WorkloadResult result;
    result.correct = true;
    for (unsigned row = 0; row < n && result.correct; ++row) {
        for (unsigned col = 0; col < n; ++col) {
            double acc = 0.0;
            // Same FMA order as the kernel (k ascending).
            for (unsigned k = 0; k < n; ++k)
                acc = a[row * n + k] * b[k * n + col] + acc;
            if (c[row * n + col] != acc) {
                result.correct = false;
                break;
            }
        }
    }
    return result;
}

} // namespace gpulat
