#include "workloads/transpose.hh"

#include <bit>
#include <vector>

#include "common/log.hh"
#include "common/random.hh"
#include "isa/assembler.hh"

namespace gpulat {

namespace {

const char *kNaiveKernel = R"(
.kernel transpose_naive
; params: 0=in 1=out ; x=tid y=ctaid N=ntid
    s2r   r0, tid
    s2r   r1, ctaid
    s2r   r2, ntid
    imad  r3, r1, r2, r0        ; y*N + x  (coalesced read)
    shl   r4, r3, 3
    mov   r5, param0
    iadd  r6, r5, r4
    ld.global r7, [r6]
    imad  r8, r0, r2, r1        ; x*N + y  (strided write)
    shl   r9, r8, 3
    mov   r10, param1
    iadd  r11, r10, r9
    st.global [r11], r7
    exit
)";

// One warp per 32x32 tile; the tile is padded to 33 words so the
// shared-memory reads along the transposed axis are conflict-free.
const char *kTiledKernel = R"(
.kernel transpose_tiled
.shared 8448
; params: 0=in 1=out 2=N 3=log2(N/32)
    s2r   r0, tid               ; lane 0..31
    s2r   r1, ctaid
    mov   r2, param3
    shr   r3, r1, r2            ; tile row index
    mov   r4, param2            ; N
    shr   r5, r4, 5             ; tiles per row (power of two)
    isub  r6, r5, 1
    and   r7, r1, r6            ; tile column index
    shl   r8, r3, 5             ; ty0
    shl   r9, r7, 5             ; tx0
    mov   r10, param0
    mov   r11, param1
    mov   r12, 0
tload:
    setp.ge p0, r12, 32
    @p0 bra tbar
    iadd  r13, r8, r12          ; ty0 + i
    imul  r14, r13, r4
    iadd  r15, r14, r9
    iadd  r15, r15, r0          ; + lane
    shl   r16, r15, 3
    iadd  r17, r10, r16
    ld.global r18, [r17]        ; coalesced row read
    imul  r19, r12, 33
    iadd  r20, r19, r0
    shl   r21, r20, 3
    st.shared [r21], r18
    iadd  r12, r12, 1
    bra   tload
tbar:
    bar
    mov   r12, 0
tstore:
    setp.ge p1, r12, 32
    @p1 bra tdone
    imul  r22, r0, 33
    iadd  r23, r22, r12
    shl   r24, r23, 3
    ld.shared r25, [r24]        ; transposed, conflict-free
    iadd  r26, r9, r12          ; tx0 + i
    imul  r27, r26, r4
    iadd  r28, r27, r8
    iadd  r28, r28, r0
    shl   r29, r28, 3
    iadd  r30, r11, r29
    st.global [r30], r25        ; coalesced row write
    iadd  r12, r12, 1
    bra   tstore
tdone:
    exit
)";

} // namespace

Kernel
Transpose::buildNaiveKernel()
{
    return assemble(kNaiveKernel);
}

Kernel
Transpose::buildTiledKernel()
{
    return assemble(kTiledKernel);
}

WorkloadResult
Transpose::run(Gpu &gpu)
{
    const unsigned n = opts_.n;
    checkParam(n >= 32 && n <= 1024 && std::has_single_bit(n), name(),
               "n", "must be a power of two in [32, 1024] (got ", n,
               ")");
    const std::uint64_t elems =
        static_cast<std::uint64_t>(n) * n;

    Rng rng(opts_.seed);
    std::vector<std::uint64_t> in(elems);
    for (auto &v : in)
        v = rng.next();

    const Addr d_in = gpu.alloc(elems * 8);
    const Addr d_out = gpu.alloc(elems * 8);
    gpu.copyToDevice(d_in, in.data(), elems * 8);

    if (opts_.tiled) {
        const unsigned tiles_per_row = n / 32;
        const unsigned shift = static_cast<unsigned>(
            std::countr_zero(tiles_per_row));
        gpu.launch(buildTiledKernel(), tiles_per_row * tiles_per_row,
                   32, {d_in, d_out, n, shift});
    } else {
        gpu.launch(buildNaiveKernel(), n, n, {d_in, d_out});
    }

    std::vector<std::uint64_t> out(elems);
    gpu.copyFromDevice(out.data(), d_out, elems * 8);

    WorkloadResult result;
    result.correct = true;
    for (unsigned y = 0; y < n && result.correct; ++y) {
        for (unsigned x = 0; x < n; ++x) {
            if (out[static_cast<std::uint64_t>(x) * n + y] !=
                in[static_cast<std::uint64_t>(y) * n + x]) {
                result.correct = false;
                break;
            }
        }
    }
    return result;
}

} // namespace gpulat
