/**
 * @file
 * Property tests over random programs.
 *
 * 1. RandomPrograms: random straight-line ALU programs executed on
 *    the simulated GPU must match an independent host-side
 *    interpreter. This cross-checks the functional semantics of
 *    every ALU opcode, operand form and predicate interaction
 *    against a second implementation.
 *
 * 2. VerdictSoundness: random multi-block programs (random ALU
 *    body, optional backward-branch loop, randomly chosen global
 *    store/atomic pattern) are analyzed by the SM-parallel
 *    footprint pass and then executed under `engine.tickJobs = 1`
 *    and `8` with per-SM tick groups. Output memory must be
 *    byte-identical — for kernels the analysis proves safe this is
 *    exactly the soundness claim (SM-parallel ticking cannot
 *    change results); for serialized kernels it checks the
 *    fallback. The safe/serialized split is reported after the
 *    suite so a precision regression is visible in the log.
 */

#include <atomic>
#include <bit>
#include <cstring>
#include <iostream>
#include <vector>

#include <gtest/gtest.h>

#include "common/random.hh"
#include "gpu/gpu.hh"
#include "gpu/kernel_analysis.hh"
#include "isa/kernel.hh"

namespace gpulat {
namespace {

/** Host-side reference state for one thread. */
struct RefThread
{
    std::array<RegValue, kNumRegs> regs{};
    std::array<bool, kNumPreds> preds{};
};

/** Independent interpreter for the ALU subset. */
void
interpret(const Instruction &inst, RefThread &t)
{
    if (inst.pred != kNoReg &&
        t.preds[static_cast<std::size_t>(inst.pred)] == inst.predNeg)
        return; // guarded off

    auto b = [&]() -> RegValue {
        return inst.useImm ? static_cast<RegValue>(inst.imm)
                           : t.regs[static_cast<std::size_t>(
                                 inst.srcB)];
    };
    auto a = [&]() -> RegValue {
        return t.regs[static_cast<std::size_t>(inst.srcA)];
    };
    auto set = [&](RegValue v) {
        t.regs[static_cast<std::size_t>(inst.dst)] = v;
    };
    auto sa = [&] { return static_cast<std::int64_t>(a()); };
    auto sb = [&] { return static_cast<std::int64_t>(b()); };

    switch (inst.op) {
      case Opcode::MOV: set(b()); break;
      case Opcode::IADD: set(a() + b()); break;
      case Opcode::ISUB: set(a() - b()); break;
      case Opcode::IMUL: set(a() * b()); break;
      case Opcode::IMAD:
        set(a() * t.regs[static_cast<std::size_t>(inst.srcB)] +
            t.regs[static_cast<std::size_t>(inst.srcC)]);
        break;
      case Opcode::SHL: set(a() << (b() & 63)); break;
      case Opcode::SHR: set(a() >> (b() & 63)); break;
      case Opcode::AND: set(a() & b()); break;
      case Opcode::OR: set(a() | b()); break;
      case Opcode::XOR: set(a() ^ b()); break;
      case Opcode::IMIN:
        set(static_cast<RegValue>(std::min(sa(), sb())));
        break;
      case Opcode::IMAX:
        set(static_cast<RegValue>(std::max(sa(), sb())));
        break;
      case Opcode::FADD:
        set(std::bit_cast<RegValue>(std::bit_cast<double>(a()) +
                                    std::bit_cast<double>(b())));
        break;
      case Opcode::FMUL:
        set(std::bit_cast<RegValue>(std::bit_cast<double>(a()) *
                                    std::bit_cast<double>(b())));
        break;
      case Opcode::FFMA:
        set(std::bit_cast<RegValue>(
            std::bit_cast<double>(a()) *
                std::bit_cast<double>(t.regs[static_cast<std::size_t>(
                    inst.srcB)]) +
            std::bit_cast<double>(t.regs[static_cast<std::size_t>(
                inst.srcC)])));
        break;
      case Opcode::I2F:
        set(std::bit_cast<RegValue>(static_cast<double>(sa())));
        break;
      case Opcode::F2I:
        set(static_cast<RegValue>(static_cast<std::int64_t>(
            std::bit_cast<double>(a()))));
        break;
      case Opcode::SETP: {
        const std::int64_t x = sa();
        const std::int64_t y = sb();
        bool v = false;
        switch (inst.cmp) {
          case CmpOp::EQ: v = x == y; break;
          case CmpOp::NE: v = x != y; break;
          case CmpOp::LT: v = x < y; break;
          case CmpOp::LE: v = x <= y; break;
          case CmpOp::GT: v = x > y; break;
          case CmpOp::GE: v = x >= y; break;
        }
        t.preds[static_cast<std::size_t>(inst.predDst)] = v;
        break;
      }
      default:
        FAIL() << "unexpected opcode in random program";
    }
}

/** Emit one random ALU instruction into the builder and the
 *  reference program. Registers r0..r7, preds p0..p3. */
Instruction
randomInstruction(Rng &rng, KernelBuilder &builder)
{
    constexpr int kRegs = 8;
    const auto reg = [&] { return static_cast<int>(rng.below(kRegs)); };

    // Occasionally guard the instruction.
    const bool guarded = rng.below(4) == 0;
    const int guard_pred = static_cast<int>(rng.below(4));
    const bool guard_neg = rng.below(2) == 0;
    if (guarded)
        builder.pred(guard_pred, guard_neg);

    static const Opcode kAluOps[] = {
        Opcode::MOV, Opcode::IADD, Opcode::ISUB, Opcode::IMUL,
        Opcode::SHL, Opcode::SHR, Opcode::AND, Opcode::OR,
        Opcode::XOR, Opcode::IMIN, Opcode::IMAX, Opcode::FADD,
        Opcode::FMUL,
    };

    Instruction inst;
    inst.pred = guarded ? guard_pred : kNoReg;
    inst.predNeg = guarded && guard_neg;

    switch (rng.below(5)) {
      case 0: { // setp
        const int pd = static_cast<int>(rng.below(4));
        const auto cmp = static_cast<CmpOp>(rng.below(6));
        const int ra = reg();
        if (rng.below(2)) {
            const auto imm = static_cast<std::int64_t>(
                rng.below(1000)) - 500;
            builder.setpImm(cmp, pd, ra, imm);
            inst.op = Opcode::SETP;
            inst.cmp = cmp;
            inst.predDst = pd;
            inst.srcA = ra;
            inst.imm = imm;
            inst.useImm = true;
        } else {
            const int rb = reg();
            builder.setp(cmp, pd, ra, rb);
            inst.op = Opcode::SETP;
            inst.cmp = cmp;
            inst.predDst = pd;
            inst.srcA = ra;
            inst.srcB = rb;
        }
        break;
      }
      case 1: { // imad / ffma
        const int rd = reg();
        const int ra = reg();
        const int rb = reg();
        const int rc = reg();
        if (rng.below(2)) {
            builder.imad(rd, ra, rb, rc);
            inst.op = Opcode::IMAD;
        } else {
            builder.ffma(rd, ra, rb, rc);
            inst.op = Opcode::FFMA;
        }
        inst.dst = rd;
        inst.srcA = ra;
        inst.srcB = rb;
        inst.srcC = rc;
        break;
      }
      case 2: { // cvt
        const int rd = reg();
        const int ra = reg();
        const Opcode op =
            rng.below(2) ? Opcode::I2F : Opcode::F2I;
        builder.cvt(op, rd, ra);
        inst.op = op;
        inst.dst = rd;
        inst.srcA = ra;
        break;
      }
      default: { // two-operand ALU
        const Opcode op = kAluOps[rng.below(std::size(kAluOps))];
        const int rd = reg();
        if (op == Opcode::MOV) {
            inst.op = Opcode::MOV;
            inst.dst = rd;
            if (rng.below(2)) {
                const int rs = reg();
                builder.movReg(rd, rs);
                inst.srcB = rs;
                break;
            }
            const auto imm = static_cast<std::int64_t>(rng.next() &
                                                       0xffffff);
            builder.movImm(rd, imm);
            inst.imm = imm;
            inst.useImm = true;
            break;
        }
        const int ra = reg();
        if (rng.below(2)) {
            const auto imm = static_cast<std::int64_t>(
                rng.below(1 << 20));
            builder.aluImm(op, rd, ra, imm);
            inst.op = op;
            inst.dst = rd;
            inst.srcA = ra;
            inst.imm = imm;
            inst.useImm = true;
        } else {
            const int rb = reg();
            builder.alu(op, rd, ra, rb);
            inst.op = op;
            inst.dst = rd;
            inst.srcA = ra;
            inst.srcB = rb;
        }
        break;
      }
    }
    return inst;
}

class RandomPrograms : public ::testing::TestWithParam<std::uint64_t>
{
};

TEST_P(RandomPrograms, GpuMatchesReferenceInterpreter)
{
    Rng rng(GetParam());
    const unsigned length = 30 + static_cast<unsigned>(rng.below(40));

    KernelBuilder builder("random");
    std::vector<Instruction> reference_program;

    // Seed registers with lane-dependent values.
    builder.s2r(0, SpecialReg::Tid);
    for (int r = 1; r < 8; ++r)
        builder.aluImm(Opcode::IMUL, r, 0,
                       static_cast<std::int64_t>(r * 1234567 + 1));

    for (unsigned i = 0; i < length; ++i)
        reference_program.push_back(randomInstruction(rng, builder));

    // Store all 8 registers to out[tid*8 + r].
    builder.s2r(8, SpecialReg::Tid);
    builder.aluImm(Opcode::SHL, 9, 8, 6); // tid * 64 bytes
    builder.movParam(10, 0);
    builder.alu(Opcode::IADD, 10, 10, 9);
    for (int r = 0; r < 8; ++r)
        builder.st(MemSpace::Global, 10, r,
                   static_cast<std::int64_t>(r * 8));
    builder.exit();

    GpuConfig cfg = makeGF106();
    cfg.numSms = 1;
    cfg.numPartitions = 1;
    cfg.deviceMemBytes = 4 * 1024 * 1024;
    Gpu gpu(cfg);
    const Addr out = gpu.alloc(32 * 64);
    gpu.launch(builder.finalize(), 1, 32, {out});

    for (unsigned lane = 0; lane < 32; ++lane) {
        RefThread t;
        t.regs[0] = lane;
        for (int r = 1; r < 8; ++r)
            t.regs[static_cast<std::size_t>(r)] =
                lane * static_cast<RegValue>(r * 1234567 + 1);
        for (const auto &inst : reference_program)
            interpret(inst, t);

        for (int r = 0; r < 8; ++r) {
            std::uint64_t gpu_value = 0;
            gpu.copyFromDevice(&gpu_value, out + lane * 64 +
                               static_cast<Addr>(r) * 8, 8);
            ASSERT_EQ(gpu_value, t.regs[static_cast<std::size_t>(r)])
                << "seed " << GetParam() << " lane " << lane
                << " r" << r;
        }
    }
}

INSTANTIATE_TEST_SUITE_P(Seeds, RandomPrograms,
                         ::testing::Range<std::uint64_t>(1, 21));

// ------------------------------------------ verdict soundness

/** Safe/serialized tally, reported once after the suite. */
struct SoundnessTally
{
    std::atomic<int> safe{0};
    std::atomic<int> serialized{0};
};

SoundnessTally &
tally()
{
    static SoundnessTally t;
    return t;
}

class SoundnessReport : public ::testing::Environment
{
    void TearDown() override
    {
        const int s = tally().safe.load();
        const int z = tally().serialized.load();
        if (s + z > 0)
            std::cout << "[ verdicts ] VerdictSoundness split: "
                      << s << " safe / " << z << " serialized ("
                      << s + z << " programs)\n";
    }
};

const auto *const kSoundnessReport =
    ::testing::AddGlobalTestEnvironment(new SoundnessReport);

constexpr unsigned kSoundBlocks = 4;
constexpr unsigned kSoundThreads = 32;
constexpr std::size_t kSoundOutBytes =
    kSoundBlocks * kSoundThreads * 8;

/**
 * Build a random multi-block program: random ALU body (optionally
 * wrapped in a short counted loop on p7/r12, which the body never
 * touches), then one of five global access patterns addressed by
 * gtid. Returns the finished kernel.
 */
Kernel
buildRandomMultiBlockKernel(Rng &rng)
{
    KernelBuilder builder("soundness");

    // Lane-and-block-dependent register seed.
    builder.s2r(0, SpecialReg::Tid);
    builder.s2r(1, SpecialReg::Ctaid);
    builder.s2r(2, SpecialReg::Ntid);
    builder.imad(0, 1, 2, 0); // gtid
    for (int r = 1; r < 8; ++r)
        builder.aluImm(Opcode::IMUL, r, 0,
                       static_cast<std::int64_t>(r * 987654 + 3));

    // Random ALU body, optionally looped. The loop uses r12/p7,
    // outside the body's r0..r7 / p0..p3 universe, so a random
    // setp can never clobber the trip count.
    const unsigned length = 8 + static_cast<unsigned>(rng.below(16));
    const bool looped = rng.below(2) == 0;
    if (looped) {
        const auto trips =
            static_cast<std::int64_t>(1 + rng.below(4));
        builder.movImm(12, trips);
        builder.label("body");
    }
    for (unsigned i = 0; i < length; ++i)
        randomInstruction(rng, builder);
    if (looped) {
        builder.aluImm(Opcode::ISUB, 12, 12, 1);
        builder.setpImm(CmpOp::GT, 7, 12, 0);
        builder.pred(7).bra("body");
    }

    // Address registers, rebuilt after the body clobbered r0..r7.
    builder.s2r(8, SpecialReg::Tid);
    builder.s2r(9, SpecialReg::Ctaid);
    builder.s2r(10, SpecialReg::Ntid);
    builder.imad(8, 9, 10, 8);            // gtid
    builder.movParam(10, 0);              // out base

    switch (rng.below(5)) {
      case 0: // injective store: out[gtid] — provably disjoint
        builder.aluImm(Opcode::SHL, 9, 8, 3);
        builder.alu(Opcode::IADD, 10, 10, 9);
        builder.st(MemSpace::Global, 10, 0);
        break;
      case 1: // aliasing store: out[gtid & 3] — blocks collide
        builder.aluImm(Opcode::AND, 9, 8, 3);
        builder.aluImm(Opcode::SHL, 9, 9, 3);
        builder.alu(Opcode::IADD, 10, 10, 9);
        builder.st(MemSpace::Global, 10, 8);
        break;
      case 2: // forwarded atomic onto shared slots
        builder.aluImm(Opcode::AND, 9, 8, 7);
        builder.aluImm(Opcode::SHL, 9, 9, 3);
        builder.alu(Opcode::IADD, 10, 10, 9);
        builder.movImm(11, 1);
        builder.atom(AtomOp::Add, 13, 10, 11);
        break;
      case 3: // guarded injective store: first half of the grid
        builder.setpImm(CmpOp::LT, 6, 8,
                        kSoundBlocks * kSoundThreads / 2);
        builder.aluImm(Opcode::SHL, 9, 8, 3);
        builder.alu(Opcode::IADD, 10, 10, 9);
        builder.pred(6).st(MemSpace::Global, 10, 8);
        break;
      default: // predicated exit, then the aliasing store: the first
               // half of the grid runs on into out[gtid & 3]
        builder.setpImm(CmpOp::GE, 6, 8,
                        kSoundBlocks * kSoundThreads / 2);
        builder.pred(6).exit();
        builder.aluImm(Opcode::AND, 9, 8, 3);
        builder.aluImm(Opcode::SHL, 9, 9, 3);
        builder.alu(Opcode::IADD, 10, 10, 9);
        builder.st(MemSpace::Global, 10, 8);
        break;
    }
    builder.exit();
    return builder.finalize();
}

/** Run the kernel and return (verdict, output image). */
std::pair<SmParallelVerdict, std::vector<std::uint8_t>>
runSound(const Kernel &kernel, std::size_t tick_jobs)
{
    GpuConfig cfg = makeGF106();
    cfg.numSms = 4;
    cfg.numPartitions = 2;
    cfg.deviceMemBytes = 4 * 1024 * 1024;
    cfg.engine.tickJobs = tick_jobs;
    Gpu gpu(cfg);

    const Addr out = gpu.alloc(kSoundOutBytes);
    const std::vector<std::uint8_t> zero(kSoundOutBytes, 0);
    gpu.copyToDevice(out, zero.data(), kSoundOutBytes);
    gpu.launch(kernel, kSoundBlocks, kSoundThreads, {out});

    std::vector<std::uint8_t> image(kSoundOutBytes);
    gpu.copyFromDevice(image.data(), out, kSoundOutBytes);
    return {gpu.lastVerdict(), image};
}

class VerdictSoundness
    : public ::testing::TestWithParam<std::uint64_t>
{
};

TEST_P(VerdictSoundness, TickJobsCannotChangeResults)
{
    Rng rng(GetParam() * 2654435761u + 17);
    const Kernel kernel = buildRandomMultiBlockKernel(rng);

    const auto [verdict_serial, image_serial] = runSound(kernel, 1);
    const auto [verdict_parallel, image_parallel] =
        runSound(kernel, 8);

    // The verdict itself must be schedule-invariant...
    EXPECT_EQ(verdict_serial.safe, verdict_parallel.safe);
    EXPECT_EQ(verdict_serial.reason, verdict_parallel.reason);

    // ...and so must every byte the program wrote. For safe
    // kernels this is the soundness claim; for serialized kernels
    // it checks the coordinator fallback.
    ASSERT_EQ(image_serial.size(), image_parallel.size());
    EXPECT_EQ(0, std::memcmp(image_serial.data(),
                             image_parallel.data(),
                             image_serial.size()))
        << "seed " << GetParam() << " (" << verdict_serial.reason
        << ") diverged across tickJobs";

    (verdict_serial.safe ? tally().safe : tally().serialized)
        .fetch_add(1);
}

INSTANTIATE_TEST_SUITE_P(Seeds, VerdictSoundness,
                         ::testing::Range<std::uint64_t>(1, 25));

} // namespace
} // namespace gpulat
