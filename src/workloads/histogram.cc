#include "workloads/histogram.hh"

#include <bit>
#include <vector>

#include "common/log.hh"
#include "common/random.hh"
#include "isa/assembler.hh"

namespace gpulat {

namespace {

const char *kHistogramKernel = R"(
.kernel histogram
; params: 0=data 1=hist 2=n 3=binMask
    s2r   r0, tid
    s2r   r1, ctaid
    s2r   r2, ntid
    imad  r0, r1, r2, r0
    mov   r3, param2
    setp.ge p0, r0, r3
    @p0 bra done
    shl   r4, r0, 3
    mov   r5, param0
    iadd  r5, r5, r4
    ld.global r6, [r5]
    mov   r7, param3
    and   r8, r6, r7            ; bin = value & mask
    shl   r9, r8, 3
    mov   r10, param1
    iadd  r10, r10, r9
    mov   r11, 1
    atom.add r12, [r10], r11
done:
    exit
)";

} // namespace

Kernel
AtomicHistogram::buildKernel()
{
    return assemble(kHistogramKernel);
}

WorkloadResult
AtomicHistogram::run(Gpu &gpu)
{
    checkParam(std::has_single_bit(opts_.bins), name(), "bins",
               "must be a power of two (got ", opts_.bins, ")");
    const std::uint64_t n = opts_.n;
    Rng rng(opts_.seed);
    std::vector<std::uint64_t> data(n);
    for (auto &v : data)
        v = rng.next();

    const Addr d_data = gpu.alloc(n * 8);
    const Addr d_hist = gpu.alloc(opts_.bins * 8);
    gpu.copyToDevice(d_data, data.data(), n * 8);
    const std::vector<std::uint64_t> zeros(opts_.bins, 0);
    gpu.copyToDevice(d_hist, zeros.data(), opts_.bins * 8);

    const unsigned tpb = opts_.threadsPerBlock;
    checkParam(tpb > 0, name(), "threadsPerBlock", "must be > 0");
    const auto blocks = static_cast<unsigned>((n + tpb - 1) / tpb);
    gpu.launch(buildKernel(), blocks, tpb,
               {d_data, d_hist, n, opts_.bins - 1});

    std::vector<std::uint64_t> hist(opts_.bins);
    gpu.copyFromDevice(hist.data(), d_hist, opts_.bins * 8);

    std::vector<std::uint64_t> reference(opts_.bins, 0);
    for (const auto v : data)
        ++reference[v & (opts_.bins - 1)];

    WorkloadResult result;
    result.correct = hist == reference;
    return result;
}

} // namespace gpulat
