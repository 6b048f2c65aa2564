#include "microbench/pchase.hh"

#include <vector>

#include "common/log.hh"

namespace gpulat {

namespace {

// Register conventions for the generated kernels.
constexpr int kRegStart = 1; ///< chase start (address or offset)
constexpr int kRegChase = 4; ///< chase pointer
constexpr int kRegT0 = 8;
constexpr int kRegT1 = 9;
constexpr int kRegDelta = 10;
constexpr int kRegOut = 11;

} // namespace

Kernel
buildChaseKernel(MemSpace space, std::uint64_t warmup_accesses,
                 std::uint64_t timed_accesses)
{
    GPULAT_ASSERT(space == MemSpace::Global || space == MemSpace::Local,
                  "chase runs in global or local space");
    GPULAT_ASSERT(timed_accesses > 0, "nothing to time");

    KernelBuilder b("pchase");
    if (space == MemSpace::Global)
        b.movParam(kRegStart, 0);
    else
        b.movImm(kRegStart, 0);
    b.movReg(kRegChase, kRegStart);

    for (std::uint64_t i = 0; i < warmup_accesses; ++i)
        b.ld(space, kRegChase, kRegChase);

    b.clock(kRegT0, kRegChase);
    for (std::uint64_t i = 0; i < timed_accesses; ++i)
        b.ld(space, kRegChase, kRegChase);
    b.clock(kRegT1, kRegChase);
    // One more (untimed) load so the stored pointer sits at chain
    // position warmup+timed+1: when warmup+timed is a multiple of
    // the chain length the final pointer would equal the start and
    // a chase that executed zero loads would verify vacuously.
    b.ld(space, kRegChase, kRegChase);

    b.alu(Opcode::ISUB, kRegDelta, kRegT1, kRegT0);
    b.movParam(kRegOut, 1);
    b.st(MemSpace::Global, kRegOut, kRegDelta);
    // Also store the final chase pointer so the chain provably ran.
    b.st(MemSpace::Global, kRegOut, kRegChase, 8);
    b.exit();
    return b.finalize();
}

Kernel
buildLocalChainInitKernel(std::uint64_t elems, std::uint64_t stride)
{
    KernelBuilder b("pchase_local_init");
    for (std::uint64_t i = 0; i < elems; ++i) {
        const std::uint64_t next = (i + 1) % elems * stride;
        b.movImm(2, static_cast<std::int64_t>(next));
        b.movImm(3, static_cast<std::int64_t>(i * stride));
        b.st(MemSpace::Local, 3, 2);
    }
    b.exit();
    return b.finalize();
}

PChaseResult
runPointerChase(Gpu &gpu, const PChaseConfig &cfg)
{
    GPULAT_ASSERT(cfg.strideBytes >= 8 && cfg.strideBytes % 8 == 0,
                  "stride must be a multiple of 8 bytes");
    GPULAT_ASSERT(cfg.footprintBytes >= cfg.strideBytes,
                  "footprint smaller than stride");
    const std::uint64_t elems = cfg.footprintBytes / cfg.strideBytes;
    const std::uint64_t warmup =
        cfg.warmup ? std::min(elems, cfg.maxWarmupAccesses) : 0;

    const Addr out = gpu.alloc(16);

    std::vector<RegValue> params{0, out};
    Addr buf = kNoAddr;
    if (cfg.space == MemSpace::Global) {
        buf = gpu.alloc(cfg.footprintBytes, cfg.strideBytes);
        std::vector<std::uint64_t> chain(elems);
        for (std::uint64_t i = 0; i < elems; ++i)
            chain[i] = buf + (i + 1) % elems * cfg.strideBytes;
        // Scatter the next-pointers at stride spacing.
        for (std::uint64_t i = 0; i < elems; ++i) {
            gpu.copyToDevice(buf + i * cfg.strideBytes, &chain[i], 8);
        }
        params[0] = buf;
    } else {
        if (gpu.config().localBytesPerThread < cfg.footprintBytes)
            fatal("localBytesPerThread (",
                  gpu.config().localBytesPerThread,
                  ") smaller than chase footprint (",
                  cfg.footprintBytes, ")");
        const Kernel init =
            buildLocalChainInitKernel(elems, cfg.strideBytes);
        gpu.launch(init, 1, 1, {});
    }

    // Don't let the (uninteresting) warm-up and chain-init traffic
    // pollute the dynamic-latency collectors.
    gpu.latencies().setEnabled(false);
    const Kernel chase =
        buildChaseKernel(cfg.space, warmup, cfg.timedAccesses);
    gpu.launch(chase, 1, 1, params);
    gpu.latencies().setEnabled(true);

    std::uint64_t delta = 0;
    gpu.copyFromDevice(&delta, out, 8);

    // The chase kernel stores its final pointer next to the delta;
    // check it landed exactly where the circular chain predicts
    // (the +1 is the kernel's trailing untimed load).
    std::uint64_t final_ptr = 0;
    gpu.copyFromDevice(&final_ptr, out + 8, 8);
    const std::uint64_t steps =
        (warmup + cfg.timedAccesses + 1) % elems;
    const std::uint64_t expected = cfg.space == MemSpace::Global
        ? buf + steps * cfg.strideBytes
        : steps * cfg.strideBytes;
    PChaseResult result;
    result.chainOk = final_ptr == expected && delta > 0;

    result.timedAccesses = cfg.timedAccesses;
    result.timedCycles = delta;
    result.cyclesPerAccess = static_cast<double>(delta) /
                             static_cast<double>(cfg.timedAccesses);
    return result;
}

} // namespace gpulat
