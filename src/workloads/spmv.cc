#include "workloads/spmv.hh"

#include <vector>

#include "common/random.hh"
#include "isa/assembler.hh"

namespace gpulat {

namespace {

const char *kSpmvKernel = R"(
.kernel spmv_csr_scalar
; params: 0=rowOff 1=cols 2=vals 3=x 4=y 5=numRows
    s2r   r0, tid
    s2r   r1, ctaid
    s2r   r2, ntid
    imad  r0, r1, r2, r0        ; row
    mov   r3, param5
    setp.ge p0, r0, r3
    @p0 bra done
    mov   r4, param0
    shl   r5, r0, 3
    iadd  r6, r4, r5
    ld.global r7, [r6]          ; begin
    ld.global r8, [r6+8]        ; end
    mov   r9, param1            ; cols
    mov   r10, param2           ; vals
    mov   r11, param3           ; x
    mov   r12, 0                ; acc = +0.0
loop:
    setp.ge p1, r7, r8
    @p1 bra store
    shl   r13, r7, 3
    iadd  r14, r9, r13
    ld.global r15, [r14]        ; col
    iadd  r16, r10, r13
    ld.global r17, [r16]        ; val
    shl   r18, r15, 3
    iadd  r19, r11, r18
    ld.global r20, [r19]        ; x[col]  (irregular gather)
    ffma  r12, r17, r20, r12
    iadd  r7, r7, 1
    bra   loop
store:
    mov   r21, param4
    iadd  r22, r21, r5
    st.global [r22], r12
done:
    exit
)";

} // namespace

Kernel
SpMV::buildKernel()
{
    return assemble(kSpmvKernel);
}

WorkloadResult
SpMV::run(Gpu &gpu)
{
    const std::uint64_t rows = opts_.rows;
    const std::uint64_t nnz =
        rows * opts_.nnzPerRow;
    Rng rng(opts_.seed);

    std::vector<std::uint64_t> row_off(rows + 1);
    std::vector<std::uint64_t> cols(nnz);
    std::vector<double> vals(nnz);
    std::vector<double> x(rows);
    for (std::uint64_t r = 0; r <= rows; ++r)
        row_off[r] = r * opts_.nnzPerRow;
    for (std::uint64_t e = 0; e < nnz; ++e) {
        cols[e] = rng.below(rows);
        vals[e] = static_cast<double>(rng.below(16));
    }
    for (auto &v : x)
        v = static_cast<double>(rng.below(16));

    const Addr d_row = gpu.alloc((rows + 1) * 8);
    const Addr d_col = gpu.alloc(nnz * 8);
    const Addr d_val = gpu.alloc(nnz * 8);
    const Addr d_x = gpu.alloc(rows * 8);
    const Addr d_y = gpu.alloc(rows * 8);
    gpu.copyToDevice(d_row, row_off.data(), (rows + 1) * 8);
    gpu.copyToDevice(d_col, cols.data(), nnz * 8);
    gpu.copyToDevice(d_val, vals.data(), nnz * 8);
    gpu.copyToDevice(d_x, x.data(), rows * 8);

    const unsigned tpb = opts_.threadsPerBlock;
    checkParam(tpb > 0, name(), "threadsPerBlock", "must be > 0");
    const auto blocks =
        static_cast<unsigned>((rows + tpb - 1) / tpb);
    gpu.launch(buildKernel(), blocks, tpb,
               {d_row, d_col, d_val, d_x, d_y, rows});

    std::vector<double> y(rows);
    gpu.copyFromDevice(y.data(), d_y, rows * 8);

    WorkloadResult result;
    result.correct = true;
    for (std::uint64_t r = 0; r < rows; ++r) {
        double acc = 0.0;
        for (std::uint64_t e = row_off[r]; e < row_off[r + 1]; ++e)
            acc = vals[e] * x[cols[e]] + acc;
        if (y[r] != acc) {
            result.correct = false;
            break;
        }
    }
    return result;
}

} // namespace gpulat
