/**
 * @file
 * Verdict goldens for the loop-aware SM-parallel footprint
 * analysis: every registry workload (including the serving
 * streams) pins its expected verdict and reason, and the abstract
 * domain's edge cases — negative strides, zero-trip loops, the
 * widening convergence bound, stride-interval join soundness and
 * the checked max-grid footprint math — are exercised directly.
 */

#include <array>
#include <string>
#include <vector>

#include <gtest/gtest.h>

#include "api/experiment.hh"
#include "gpu/gpu.hh"
#include "gpu/kernel_analysis.hh"
#include "isa/kernel.hh"

namespace gpulat {
namespace {

std::array<RegValue, kMaxParams>
makeParams(std::initializer_list<RegValue> vals)
{
    std::array<RegValue, kMaxParams> params{};
    std::size_t i = 0;
    for (RegValue v : vals)
        params[i++] = v;
    return params;
}

// ---------------------------------------------- registry goldens

struct VerdictGolden
{
    const char *workload;
    std::vector<std::string> params;
    double scale;
    bool safe;
    /** Substring of SmParallelVerdict::reason (stable vocabulary). */
    const char *reason;
};

/** Run the workload and capture the final launch's verdict. */
SmParallelVerdict
verdictOf(const VerdictGolden &g)
{
    ExperimentSpec spec;
    spec.gpu = "gf106";
    spec.workload = g.workload;
    spec.params = g.params;
    spec.scale = g.scale;
    SmParallelVerdict verdict;
    runExperiment(spec, [&](Gpu &gpu, const ExperimentRecord &) {
        verdict = gpu.lastVerdict();
    });
    return verdict;
}

class RegistryVerdicts
    : public ::testing::TestWithParam<VerdictGolden>
{
};

TEST_P(RegistryVerdicts, MatchesGolden)
{
    const VerdictGolden &g = GetParam();
    const SmParallelVerdict v = verdictOf(g);
    EXPECT_EQ(v.safe, g.safe)
        << g.workload << ": " << v.reason;
    EXPECT_NE(v.reason.find(g.reason), std::string::npos)
        << g.workload << ": " << v.reason;
    // Every verdict must rest on a converged fixpoint (or never
    // reach one because an earlier structural answer decided it) —
    // a diverged chain would make the reason untrustworthy.
    for (const std::string &step : v.reasonChain)
        EXPECT_EQ(step.find("DIVERGED"), std::string::npos) << step;
}

INSTANTIATE_TEST_SUITE_P(
    AllWorkloads, RegistryVerdicts,
    ::testing::Values(
        // The flagship loop kernels the abstract interpreter
        // newly proves safe: reduction's guarded tree, gemm's
        // tiled inner product, scan's two-phase prefix.
        VerdictGolden{"reduction", {"n=16384"}, 1.0, true,
                      "affine cross-block-disjoint"},
        VerdictGolden{"gemm", {"n=64"}, 1.0, true,
                      "affine cross-block-disjoint"},
        VerdictGolden{"scan", {"n=4096"}, 1.0, true,
                      "affine cross-block-disjoint"},
        // Forwarded atomics: histogram's RMW sites are excluded
        // from the footprint, the remaining accesses are loads.
        VerdictGolden{"histogram", {"n=4096"}, 1.0, true,
                      "store-free"},
        // Straight-line affine kernels stay safe.
        VerdictGolden{"vecadd", {"n=4096"}, 1.0, true,
                      "affine cross-block-disjoint"},
        VerdictGolden{"compute_stream", {"n=4096"}, 1.0, true,
                      "affine cross-block-disjoint"},
        VerdictGolden{"transpose_naive", {"n=64"}, 1.0, true,
                      "affine cross-block-disjoint"},
        VerdictGolden{"transpose_tiled", {"n=64"}, 1.0, true,
                      "affine cross-block-disjoint"},
        // Single-thread probe: one block, trivially safe.
        VerdictGolden{"pchase", {"footprintBytes=16384"}, 1.0, true,
                      "single block"},
        // Genuinely data-dependent addressing must keep failing.
        VerdictGolden{"bfs", {"nodes=1024"}, 1.0, false,
                      "non-affine"},
        VerdictGolden{"spmv", {"rows=512"}, 1.0, false,
                      "non-affine"},
        // The stencil's halo reads genuinely overlap neighbour
        // blocks' stores — correctly serialized, not a precision
        // gap.
        VerdictGolden{"stencil2d",
                      {"width=64", "height=64", "iterations=1"},
                      1.0, false, "cross-block overlap"},
        // Serving streams: every tenant kernel is an affine
        // streaming shape, so the concurrent launches compose.
        VerdictGolden{"serve.mixed", {}, 0.05, true,
                      "affine cross-block-disjoint"},
        VerdictGolden{"serve.uniform", {}, 0.05, true,
                      "affine cross-block-disjoint"},
        VerdictGolden{"serve.closed", {}, 0.05, true,
                      "affine cross-block-disjoint"}),
    [](const ::testing::TestParamInfo<VerdictGolden> &info) {
        std::string name = info.param.workload;
        for (char &c : name)
            if (c == '.')
                c = '_';
        return name;
    });

// ------------------------------------------------- domain edge cases

TEST(AnalysisDomain, NegativeStrideStoresAreDisjoint)
{
    // out[ntid-1-tid + ntid*ctaid]: the tid coefficient is -8 after
    // the subtraction, so the digit argument must reason with
    // magnitudes. Still injective, still cross-block disjoint.
    KernelBuilder b("revstore");
    b.s2r(0, SpecialReg::Tid)
        .s2r(1, SpecialReg::Ctaid)
        .s2r(2, SpecialReg::Ntid)
        .aluImm(Opcode::ISUB, 3, 2, 1) // ntid-1
        .alu(Opcode::ISUB, 3, 3, 0)    // ntid-1-tid
        .imad(4, 1, 2, 3)              // ctaid*ntid + (ntid-1-tid)
        .aluImm(Opcode::SHL, 4, 4, 3)  // *8 bytes
        .movParam(5, 0)
        .alu(Opcode::IADD, 5, 5, 4)
        .movImm(6, 7)
        .st(MemSpace::Global, 5, 6)
        .exit();
    const SmParallelVerdict v = analyzeSmParallelSafety(
        b.finalize(), 16, 64, makeParams({0x10000}));
    EXPECT_TRUE(v.safe) << v.reason;
    EXPECT_TRUE(v.footprintKnown);
}

TEST(AnalysisDomain, ZeroTripLoopBodyStoreIsDead)
{
    // for (i = 0; i < 0; ++i) st ... — edge refinement proves the
    // body unreachable, so its (otherwise non-affine) store cannot
    // block the verdict.
    KernelBuilder b("zerotrip");
    b.movImm(1, 0)          // i = 0
        .movParam(0, 0)
        .label("head")
        .setpImm(CmpOp::GE, 0, 1, 0) // i >= 0: exit loop
        .pred(0)
        .bra("done")
        .ld(MemSpace::Global, 0, 0)  // loop-carried pointer
        .st(MemSpace::Global, 0, 1)
        .aluImm(Opcode::IADD, 1, 1, 1)
        .bra("head")
        .label("done")
        .exit();
    const SmParallelVerdict v = analyzeSmParallelSafety(
        b.finalize(), 8, 32, makeParams({0x1000}));
    EXPECT_TRUE(v.safe) << v.reason;
    EXPECT_FALSE(v.hasStore);
}

TEST(AnalysisDomain, WideningConvergesWithinBound)
{
    // A loop whose trip count comes from a parameter the domain
    // cannot see through: the induction variable must widen to the
    // unbounded interval in a handful of passes, not iterate until
    // the transfer cap trips.
    KernelBuilder b("widen");
    b.movImm(1, 0)
        .movParam(2, 0)
        .movParam(3, 1)
        .label("head")
        .ld(MemSpace::Global, 4, 2)
        .aluImm(Opcode::IADD, 1, 1, 3)  // i += 3
        .aluImm(Opcode::IADD, 2, 2, 8)  // p += 8
        .setp(CmpOp::LT, 0, 1, 3)
        .pred(0)
        .bra("head")
        .exit();
    const Kernel k = b.finalize();
    const SmParallelVerdict v = analyzeSmParallelSafety(
        k, 8, 32, makeParams({0x1000, 999999}));
    EXPECT_TRUE(v.safe) << v.reason; // store-free
    // The fixpoint bound is 1000 + 50 * cfgBlocks; convergence must
    // land far below it or widening is not doing its job.
    EXPECT_LT(v.fixpointIterations, 100u);
    bool converged = false;
    for (const std::string &step : v.reasonChain)
        converged |= step.find("converged") != std::string::npos;
    EXPECT_TRUE(converged);
}

TEST(AnalysisDomain, StrideIntervalJoinIsSound)
{
    // join must produce a superset of both inputs, with the stride
    // the gcd of both strides and the anchor distance.
    const StrideInterval a{0, 16, 8};
    const StrideInterval b{4, 20, 8};
    const StrideInterval j = StrideInterval::join(a, b);
    EXPECT_EQ(j.lo, 0);
    EXPECT_EQ(j.hi, 20);
    EXPECT_EQ(j.stride, 4u);

    // Singletons join onto the distance grid.
    const StrideInterval s = StrideInterval::join(
        StrideInterval::constant(8), StrideInterval::constant(32));
    EXPECT_EQ(s.lo, 8);
    EXPECT_EQ(s.hi, 32);
    EXPECT_EQ(s.stride, 24u);

    // Joining with the unbounded interval stays unbounded.
    const StrideInterval t =
        StrideInterval::join(a, StrideInterval::full());
    EXPECT_EQ(t.lo, kNegInf);
    EXPECT_EQ(t.hi, kPosInf);
}

TEST(AnalysisDomain, SaturatingHelpersPinSentinels)
{
    EXPECT_EQ(satAdd(kPosInf, -5), kPosInf);  // sentinel propagates
    EXPECT_EQ(satAdd(kNegInf, 100), kNegInf);
    EXPECT_EQ(satAdd(INT64_MAX - 1, 10), kPosInf); // fresh overflow
    EXPECT_EQ(satSub(INT64_MIN + 1, 10), kNegInf);
    EXPECT_EQ(satMul(INT64_MAX / 2, 4), kPosInf);
    EXPECT_EQ(satMul(kNegInf, 1), kNegInf);
    EXPECT_EQ(satAdd(40, 2), 42); // finite math is exact
    EXPECT_EQ(satMul(-6, 7), -42);
}

TEST(AnalysisDomain, MaxGridFootprintMathDoesNotWrap)
{
    // The max-grid regression: a store whose per-block stride times
    // the grid size overflows int64. The checked math must degrade
    // the footprint to unbounded — refusing to "prove" disjointness
    // by wrapping — instead of crashing or corrupting the verdict.
    KernelBuilder b("huge");
    b.s2r(0, SpecialReg::Tid)
        .s2r(1, SpecialReg::Ctaid)
        .movImm(2, std::int64_t{1} << 42)
        .alu(Opcode::IMUL, 1, 1, 2)    // ctaid << 42
        .aluImm(Opcode::SHL, 0, 0, 3)  // tid * 8
        .alu(Opcode::IADD, 0, 0, 1)
        .movParam(3, 0)
        .alu(Opcode::IADD, 3, 3, 0)
        .movImm(4, 1)
        .st(MemSpace::Global, 3, 4)
        .exit();
    const SmParallelVerdict v = analyzeSmParallelSafety(
        b.finalize(), 0x7fffffffu, 1024,
        makeParams({std::uint64_t{1} << 62}));
    // Whatever the verdict, it must be reached without UB and with
    // a converged fixpoint; the footprint cannot claim tight
    // bounds that only wrapping could produce.
    for (const std::string &step : v.reasonChain)
        EXPECT_EQ(step.find("DIVERGED"), std::string::npos) << step;
    if (v.footprintKnown) {
        for (const FootprintRange &r : v.footprint)
            EXPECT_LE(r.lo, r.hi);
    }
}

TEST(AnalysisDomain, GridStrideLoopStoresAreSafe)
{
    // The canonical grid-stride loop:
    //   for (i = gtid; i < n; i += ntid * nctaid) out[i] = 7;
    // Injective across the whole grid; the loop-carried induction
    // variable must stay affine through the widen/join cycle.
    KernelBuilder b("gridstride");
    b.s2r(0, SpecialReg::Tid)
        .s2r(1, SpecialReg::Ctaid)
        .s2r(2, SpecialReg::Ntid)
        .s2r(3, SpecialReg::Nctaid)
        .imad(4, 1, 2, 0)   // gtid = ctaid*ntid + tid
        .alu(Opcode::IMUL, 5, 2, 3) // grid step
        .movParam(6, 0)
        .movParam(7, 1)     // n
        .movImm(8, 7)
        .label("head")
        .setp(CmpOp::GE, 0, 4, 7)
        .pred(0)
        .bra("done")
        .aluImm(Opcode::SHL, 9, 4, 3)
        .alu(Opcode::IADD, 9, 9, 6)
        .st(MemSpace::Global, 9, 8)
        .alu(Opcode::IADD, 4, 4, 5)
        .bra("head")
        .label("done")
        .exit();
    const SmParallelVerdict v = analyzeSmParallelSafety(
        b.finalize(), 8, 64, makeParams({0x20000, 4096}));
    EXPECT_TRUE(v.safe) << v.reason;
    EXPECT_GE(v.loopHeads, 1u);
}

} // namespace
} // namespace gpulat
