#include "workloads/compute_stream.hh"

#include <bit>
#include <vector>

#include "common/random.hh"
#include "isa/kernel.hh"

namespace gpulat {

Kernel
ComputeStream::buildKernel(unsigned fma_depth)
{
    // Built programmatically: the FMA chain length is a parameter.
    KernelBuilder b("compute_stream");
    b.s2r(0, SpecialReg::Tid);
    b.s2r(1, SpecialReg::Ctaid);
    b.s2r(2, SpecialReg::Ntid);
    b.imad(0, 1, 2, 0);          // gid
    b.movParam(3, 3);            // n
    b.setp(CmpOp::GE, 0, 0, 3);
    b.pred(0).bra("done");
    b.aluImm(Opcode::SHL, 4, 0, 3);
    b.movParam(5, 0);            // x
    b.alu(Opcode::IADD, 5, 5, 4);
    b.ld(MemSpace::Global, 6, 5);
    b.movParam(7, 2);            // coefficient (double bits)
    for (unsigned i = 0; i < fma_depth; ++i)
        b.ffma(6, 6, 7, 7);      // v = v * c + c (dependent chain)
    b.movParam(8, 1);            // y
    b.alu(Opcode::IADD, 8, 8, 4);
    b.st(MemSpace::Global, 8, 6);
    b.label("done");
    b.exit();
    return b.finalize();
}

double
ComputeStream::expected(double x, unsigned fma_depth)
{
    double v = x;
    for (unsigned k = 0; k < fma_depth; ++k)
        v = v * kCoef + kCoef;
    return v;
}

WorkloadResult
ComputeStream::run(Gpu &gpu)
{
    const std::uint64_t n = opts_.n;
    Rng rng(opts_.seed);
    std::vector<double> x(n);
    for (auto &v : x)
        v = rng.uniform();

    const Addr d_x = gpu.alloc(n * 8);
    const Addr d_y = gpu.alloc(n * 8);
    gpu.copyToDevice(d_x, x.data(), n * 8);

    const unsigned tpb = opts_.threadsPerBlock;
    checkParam(tpb > 0, name(), "threadsPerBlock", "must be > 0");
    const auto blocks = static_cast<unsigned>((n + tpb - 1) / tpb);
    gpu.launch(buildKernel(opts_.fmaDepth), blocks, tpb,
               {d_x, d_y, std::bit_cast<RegValue>(kCoef), n});

    std::vector<double> y(n);
    gpu.copyFromDevice(y.data(), d_y, n * 8);

    WorkloadResult result;
    result.correct = true;
    for (std::uint64_t i = 0; i < n; ++i) {
        if (y[i] != expected(x[i], opts_.fmaDepth)) {
            result.correct = false;
            break;
        }
    }
    return result;
}

} // namespace gpulat
