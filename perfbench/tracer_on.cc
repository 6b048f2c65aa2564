/**
 * @file
 * The traced build's instrumentation (perfbench_traced only).
 *
 * The linker redirects the library's cross-object calls to
 * TickEngine::add/link/setSerialized/step/fastForward/settle,
 * Gpu::launch and analyzeSmParallelSafety to the __wrap_ definitions
 * below (-Wl,--wrap, see CMakeLists.txt); each reaches the original
 * through its __real_ symbol. libgpulat.a itself is unchanged.
 *
 *  - The wrapped add() registers a forwarding Clocked proxy in place
 *    of every component; link() and setSerialized() translate each
 *    component to its proxy. A proxy times tick(), nextEventAt() and
 *    fastForward() by the component's dynamic type into per-thread
 *    accumulators, since engine.tickJobs=2 ticks SMs on a worker.
 *  - The wrapped step()/fastForward()/settle() time the engine and
 *    note how much of that time the same thread spent inside proxies,
 *    which leaves the engine's own bookkeeping as the remainder.
 *  - Gpu::launch and analyzeSmParallelSafety open spans in the run's
 *    SpanLog; the engine totals ride on the launch span as attributes.
 *
 * Calls are timed with rdtsc, the cheapest clock on the x86-64 hosts
 * the benchmark runs on; traceCalibrate() measures what the timing
 * costs per call so the analysis can subtract it.
 */

#include <x86intrin.h>

#include <algorithm>
#include <array>
#include <cstdint>
#include <deque>
#include <memory>
#include <mutex>
#include <sstream>
#include <unordered_map>
#include <vector>

#include "gpu/gpu.hh"
#include "gpu/kernel_analysis.hh"
#include "gpu/ports.hh"
#include "icnt/crossbar.hh"
#include "simt/core.hh"
#include "tracer.hh"

#if !defined(__x86_64__)
#error "perfbench_traced times calls with rdtsc (x86-64 only)"
#endif

using namespace gpulat;

// ---------------------------------------------------------------- originals

LaunchResult realLaunch(Gpu *self, const Kernel &kernel, unsigned blocks,
                        unsigned threads,
                        const std::vector<RegValue> &params)
    asm("__real__ZN6gpulat3Gpu6launchERKNS_6KernelEjjRKSt6vectorImSaImEE");
SmParallelVerdict realAnalyze(
    const Kernel &kernel, unsigned blocks, unsigned threads,
    const std::array<RegValue, kMaxParams> &params)
    asm("__real__ZN6gpulat23analyzeSmParallelSafetyERKNS_6KernelEjjRKSt5arrayImLm16EE");
void realAdd(TickEngine *self, ClockDomain &domain, Clocked &component,
             unsigned group)
    asm("__real__ZN6gpulat10TickEngine3addERNS_11ClockDomainERNS_7ClockedEj");
void realLink(TickEngine *self, Clocked &producer, Clocked &consumer)
    asm("__real__ZN6gpulat10TickEngine4linkERNS_7ClockedES2_");
void realSetSerialized(TickEngine *self, Clocked &component,
                       bool serialized)
    asm("__real__ZN6gpulat10TickEngine13setSerializedERNS_7ClockedEb");
void realStep(TickEngine *self)
    asm("__real__ZN6gpulat10TickEngine4stepEv");
Cycle realFastForward(TickEngine *self)
    asm("__real__ZN6gpulat10TickEngine11fastForwardEv");
void realSettle(TickEngine *self)
    asm("__real__ZN6gpulat10TickEngine6settleEv");

namespace perfbench {
namespace {

/** Layer a proxied component's time is charged to. */
enum Kind : unsigned { kSimt, kIcnt, kMemL2, kMemDram, kGpu, kOther, kKinds };
constexpr const char *kKindNames[kKinds] = {"simt", "icnt", "mem.l2",
                                            "mem.dram", "gpu", "other"};

enum Method : unsigned { kTick, kPromise, kFastForward, kMethods };
constexpr const char *kMethodNames[kMethods] = {"tick", "promise",
                                                "fast_forward"};

enum Wrap : unsigned {
    kAdd,
    kLink,
    kSetSerialized,
    kStep,
    kEngineFastForward,
    kSettle,
    kLaunch,
    kAnalyze,
    kWraps
};
constexpr const char *kWrapNames[kWraps] = {
    "add", "link", "setSerialized", "step",
    "fastForward", "settle", "launch", "analyze"};

std::uint64_t
stamp()
{
    return __rdtsc();
}

/** Nanoseconds per TSC tick, measured once by traceCalibrate(). */
double nsPerTick = 0.0;

std::int64_t
toNs(std::uint64_t ticks)
{
    return static_cast<std::int64_t>(static_cast<double>(ticks) *
                                     nsPerTick);
}

/**
 * Mean number of proxied calls per timed one. Counts are exact; the
 * time of a (layer, method) pair is estimated as its calls times the
 * mean of its timed calls. Timing every call would cost two rdtsc
 * reads (~50 ns) on each of ~36M calls in a bfs cell. Sparser
 * sampling is cheaper still, but on this code a rarely timed call
 * reads longer than traceCalibrate()'s model of it (1 in 64 inflated
 * bfs's nextEventAt estimate by ~20 ns a call); one in 16 does not.
 */
std::uint32_t samplePeriod = 16;

/** One thread's proxy totals. Written only by its thread; read by
 *  the main thread once the cell's engine threads are joined. */
struct ThreadAcc
{
    std::uint64_t calls[kKinds][kMethods] = {};
    std::uint64_t sampled[kKinds][kMethods] = {};
    std::uint64_t ticks[kKinds][kMethods] = {};
    /** Calls until the next timed one: uniform in [1, 2 * period - 1],
     *  so the choice cannot lock onto the engine's fixed tick order. */
    std::uint32_t countdown = 1;
    std::uint64_t rng = 0x9e3779b97f4a7c15ull;

    /** Count a call; true when this one is to be timed. */
    bool
    due(Kind kind, Method method)
    {
        ++calls[kind][method];
        if (--countdown != 0)
            return false;
        rng ^= rng << 13;
        rng ^= rng >> 7;
        rng ^= rng << 17;
        countdown =
            1 + static_cast<std::uint32_t>(rng % (2 * samplePeriod - 1));
        return true;
    }

    void
    record(Kind kind, Method method, std::uint64_t elapsed)
    {
        ticks[kind][method] += elapsed;
        sampled[kind][method] += 1;
    }
};

std::mutex accMutex;
/** Guarded by accMutex; a deque, so handed-out pointers stay valid. */
std::deque<ThreadAcc> accs;
thread_local ThreadAcc *threadAccPtr = nullptr;

ThreadAcc &
threadAcc()
{
    if (!threadAccPtr) [[unlikely]] {
        const std::lock_guard<std::mutex> lock(accMutex);
        threadAccPtr = &accs.emplace_back();
    }
    return *threadAccPtr;
}

/**
 * Forwards to the registered component. Timed and untimed calls share
 * one call site, so the indirect call predicts the same way for both;
 * the "timed?" test after it is mispredicted on timed calls in
 * traceCalibrate()'s loop just as in a real run.
 */
class Proxy final : public Clocked
{
  public:
    Proxy(Clocked &inner, Kind kind) : inner_(inner), kind_(kind) {}

    void
    tick(Cycle now) override
    {
        ThreadAcc &acc = threadAcc();
        const std::uint64_t start = acc.due(kind_, kTick) ? stamp() : 0;
        inner_.tick(now);
        if (start) [[unlikely]]
            acc.record(kind_, kTick, stamp() - start);
    }

    Cycle
    nextEventAt(Cycle now) const override
    {
        ThreadAcc &acc = threadAcc();
        const std::uint64_t start = acc.due(kind_, kPromise) ? stamp() : 0;
        const Cycle event = inner_.nextEventAt(now);
        if (start) [[unlikely]]
            acc.record(kind_, kPromise, stamp() - start);
        return event;
    }

    void
    fastForward(Cycle from, Cycle to) override
    {
        ThreadAcc &acc = threadAcc();
        const std::uint64_t start =
            acc.due(kind_, kFastForward) ? stamp() : 0;
        inner_.fastForward(from, to);
        if (start) [[unlikely]]
            acc.record(kind_, kFastForward, stamp() - start);
    }

  private:
    Clocked &inner_;
    const Kind kind_;
};

Kind
kindOf(Clocked &c)
{
    if (dynamic_cast<SmCore *>(&c))
        return kSimt;
    if (dynamic_cast<Crossbar<MemRequest> *>(&c) ||
        dynamic_cast<NetToPartitionPort *>(&c) ||
        dynamic_cast<PartitionToNetPort *>(&c) ||
        dynamic_cast<NetToSmPort *>(&c))
        return kIcnt;
    if (dynamic_cast<PartitionL2Side *>(&c))
        return kMemL2;
    if (dynamic_cast<PartitionMemSide *>(&c))
        return kMemDram;
    if (dynamic_cast<BlockDispatcher *>(&c))
        return kGpu;
    return kOther;
}

/** Wrapped engine calls (main thread only) and their total time. */
struct EngineAgg
{
    std::uint64_t calls = 0;
    std::uint64_t ticks = 0;
};

/** Main-thread state of the armed cell. */
struct Cell
{
    SpanLog *log = nullptr; ///< non-null while armed
    std::uint64_t wrapCalls[kWraps] = {};
    std::vector<std::unique_ptr<Proxy>> proxies;
    std::unordered_map<const Clocked *, Proxy *> proxyOf;
    /** The thread that constructs and launches the cell's Gpu. */
    ThreadAcc *mainAcc = nullptr;
    /** All wrapped engine calls of the cell (main thread only). */
    EngineAgg engine;
};

Cell cell;

Clocked &
proxied(Clocked &component)
{
    const auto it = cell.proxyOf.find(&component);
    return it == cell.proxyOf.end() ? component : *it->second;
}

/** Times one wrapped engine call on the main thread. */
class EngineCall
{
  public:
    EngineCall() : start_(stamp()) {}
    ~EngineCall()
    {
        const std::uint64_t elapsed = stamp() - start_;
        cell.engine.calls += 1;
        cell.engine.ticks += elapsed;
    }
    EngineCall(const EngineCall &) = delete;
    EngineCall &operator=(const EngineCall &) = delete;

  private:
    const std::uint64_t start_;
};

class Noop final : public Clocked
{
  public:
    void tick(Cycle) override {}
    Cycle nextEventAt(Cycle now) const override { return now; }
};

double
median(std::vector<double> v)
{
    std::sort(v.begin(), v.end());
    const std::size_t n = v.size();
    return n % 2 ? v[n / 2] : 0.5 * (v[n / 2 - 1] + v[n / 2]);
}

void
resetAccumulators()
{
    const std::lock_guard<std::mutex> lock(accMutex);
    for (ThreadAcc &acc : accs) {
        const std::uint64_t rng = acc.rng;
        acc = ThreadAcc{};
        acc.rng = rng;
    }
    cell.engine = EngineAgg{};
}

/** Per-call cost of @p body's loop, in ns, over @p calls calls. */
template <typename Body>
double
perCallNs(int calls, Body &&body)
{
    const std::int64_t t0 = steadyNs();
    for (int i = 0; i < calls; ++i)
        body(static_cast<Cycle>(i));
    return static_cast<double>(steadyNs() - t0) / calls;
}

void
writeCounts(std::ostream &os, const ThreadAcc &acc)
{
    os << "{";
    for (unsigned k = 0; k < kKinds; ++k) {
        os << (k ? ", " : "") << "\"" << kKindNames[k] << "\": {";
        for (unsigned m = 0; m < kMethods; ++m) {
            os << (m ? ", " : "") << "\"" << kMethodNames[m] << "\": ["
               << acc.calls[k][m] << ", " << acc.sampled[k][m] << ", "
               << toNs(acc.ticks[k][m]) << "]";
        }
        os << "}";
    }
    os << "}";
}

} // namespace

bool
traceEnabled()
{
    return true;
}

std::string
traceCalibrate()
{
    // TSC rate against the steady clock over a 200 ms spin.
    const std::int64_t ns0 = steadyNs();
    const std::uint64_t tsc0 = stamp();
    while (steadyNs() - ns0 < 200'000'000) {
    }
    nsPerTick = static_cast<double>(steadyNs() - ns0) /
                static_cast<double>(stamp() - tsc0);

    // The same empty call made bare, through a proxy at the run's
    // sampling period, through one that times nothing, and inside an
    // engine wrapper. Per call, (wrapped - bare) is the whole cost of
    // the instrumentation; the part the clock reads see lands inside
    // the measured time ("inner"), the rest in the caller's ("outer").
    Noop noop;
    Proxy proxy(noop, kOther);
    Clocked *volatile bare_ptr = &noop;
    Clocked *volatile proxy_ptr = &proxy;
    Clocked *bare = bare_ptr;
    Clocked *via_proxy = proxy_ptr;
    constexpr int kCalls = 1 << 22;
    constexpr int kReps = 7;
    const std::uint32_t period = samplePeriod;
    std::vector<double> sampled_inner, sampled_outer, unsampled,
        engine_inner, engine_outer;
    for (int rep = 0; rep < kReps; ++rep) {
        resetAccumulators();
        const double bare_ns =
            perCallNs(kCalls, [&](Cycle c) { bare->tick(c); });

        samplePeriod = 1u << 30;
        threadAcc().countdown = samplePeriod;
        const double untimed_ns =
            perCallNs(kCalls, [&](Cycle c) { via_proxy->tick(c); }) -
            bare_ns;
        unsampled.push_back(untimed_ns);

        samplePeriod = period;
        resetAccumulators();
        const double proxied_ns =
            perCallNs(kCalls, [&](Cycle c) { via_proxy->tick(c); }) -
            bare_ns;
        const ThreadAcc &acc = threadAcc();
        const double timed = static_cast<double>(acc.sampled[kOther][kTick]);
        const double inner =
            static_cast<double>(toNs(acc.ticks[kOther][kTick])) / timed -
            bare_ns;
        sampled_inner.push_back(inner);
        sampled_outer.push_back(
            (proxied_ns * kCalls - (kCalls - timed) * untimed_ns) / timed -
            inner);

        const double engine_ns = perCallNs(kCalls, [&](Cycle c) {
            const EngineCall call;
            bare->tick(c);
        });
        const double engine_seen =
            static_cast<double>(toNs(cell.engine.ticks)) / kCalls;
        engine_inner.push_back(engine_seen - bare_ns);
        engine_outer.push_back(engine_ns - engine_seen);
    }
    resetAccumulators();

    std::ostringstream os;
    os.precision(6);
    os << "{\"ns_per_tick\": " << nsPerTick
       << ", \"sample_period\": " << samplePeriod
       << ", \"sampled_inner_ns\": " << median(sampled_inner)
       << ", \"sampled_outer_ns\": " << median(sampled_outer)
       << ", \"unsampled_ns\": " << median(unsampled)
       << ", \"engine_inner_ns\": " << median(engine_inner)
       << ", \"engine_outer_ns\": " << median(engine_outer) << "}";
    return os.str();
}

void
traceBeginCell(SpanLog &log)
{
    resetAccumulators();
    cell = Cell{};
    cell.log = &log;
    cell.mainAcc = &threadAcc();
}

std::string
traceEndCell()
{
    std::ostringstream os;
    os << "{\"wraps\": {";
    for (unsigned w = 0; w < kWraps; ++w) {
        os << (w ? ", " : "") << "\"" << kWrapNames[w]
           << "\": " << cell.wrapCalls[w];
    }
    // Per thread: [calls, timed calls, ns of the timed calls] for
    // every (layer, method); threads that made no call are left out.
    os << "}, \"threads\": [";
    bool first = true;
    {
        const std::lock_guard<std::mutex> lock(accMutex);
        for (const ThreadAcc &acc : accs) {
            std::uint64_t calls = 0;
            for (unsigned k = 0; k < kKinds; ++k)
                for (unsigned m = 0; m < kMethods; ++m)
                    calls += acc.calls[k][m];
            if (calls == 0)
                continue;
            os << (first ? "" : ", ") << "{\"main\": "
               << (&acc == cell.mainAcc ? "true" : "false")
               << ", \"components\": ";
            writeCounts(os, acc);
            os << "}";
            first = false;
        }
    }
    os << "], \"engine\": {\"calls\": " << cell.engine.calls
       << ", \"ns\": " << toNs(cell.engine.ticks) << "}}";

    cell = Cell{};
    return os.str();
}

} // namespace perfbench

// ------------------------------------------------------------------- wraps

using perfbench::cell;

LaunchResult wrapLaunch(Gpu *self, const Kernel &kernel, unsigned blocks,
                        unsigned threads,
                        const std::vector<RegValue> &params)
    asm("__wrap__ZN6gpulat3Gpu6launchERKNS_6KernelEjjRKSt6vectorImSaImEE");
LaunchResult
wrapLaunch(Gpu *self, const Kernel &kernel, unsigned blocks,
           unsigned threads, const std::vector<RegValue> &params)
{
    if (!cell.log)
        return realLaunch(self, kernel, blocks, threads, params);
    ++cell.wrapCalls[perfbench::kLaunch];
    const std::uint64_t span = cell.log->open("launch");
    const perfbench::EngineAgg before = cell.engine;
    const LaunchResult result =
        realLaunch(self, kernel, blocks, threads, params);
    cell.log->close(span);
    auto &attrs = cell.log->span(span).attrs;
    attrs["engine_calls"] =
        static_cast<std::int64_t>(cell.engine.calls - before.calls);
    attrs["engine_ns"] = perfbench::toNs(cell.engine.ticks - before.ticks);
    return result;
}

SmParallelVerdict wrapAnalyze(const Kernel &kernel, unsigned blocks,
                              unsigned threads,
                              const std::array<RegValue, kMaxParams> &params)
    asm("__wrap__ZN6gpulat23analyzeSmParallelSafetyERKNS_6KernelEjjRKSt5arrayImLm16EE");
SmParallelVerdict
wrapAnalyze(const Kernel &kernel, unsigned blocks, unsigned threads,
            const std::array<RegValue, kMaxParams> &params)
{
    if (!cell.log)
        return realAnalyze(kernel, blocks, threads, params);
    ++cell.wrapCalls[perfbench::kAnalyze];
    const perfbench::SpanScope span(*cell.log, "analyze");
    return realAnalyze(kernel, blocks, threads, params);
}

void wrapAdd(TickEngine *self, ClockDomain &domain, Clocked &component,
             unsigned group)
    asm("__wrap__ZN6gpulat10TickEngine3addERNS_11ClockDomainERNS_7ClockedEj");
void
wrapAdd(TickEngine *self, ClockDomain &domain, Clocked &component,
        unsigned group)
{
    if (!cell.log)
        return realAdd(self, domain, component, group);
    ++cell.wrapCalls[perfbench::kAdd];
    auto proxy = std::make_unique<perfbench::Proxy>(
        component, perfbench::kindOf(component));
    cell.proxyOf[&component] = proxy.get();
    realAdd(self, domain, *proxy, group);
    cell.proxies.push_back(std::move(proxy));
}

void wrapLink(TickEngine *self, Clocked &producer, Clocked &consumer)
    asm("__wrap__ZN6gpulat10TickEngine4linkERNS_7ClockedES2_");
void
wrapLink(TickEngine *self, Clocked &producer, Clocked &consumer)
{
    if (cell.log)
        ++cell.wrapCalls[perfbench::kLink];
    realLink(self, perfbench::proxied(producer),
             perfbench::proxied(consumer));
}

void wrapSetSerialized(TickEngine *self, Clocked &component,
                       bool serialized)
    asm("__wrap__ZN6gpulat10TickEngine13setSerializedERNS_7ClockedEb");
void
wrapSetSerialized(TickEngine *self, Clocked &component, bool serialized)
{
    if (cell.log)
        ++cell.wrapCalls[perfbench::kSetSerialized];
    realSetSerialized(self, perfbench::proxied(component), serialized);
}

void wrapStep(TickEngine *self)
    asm("__wrap__ZN6gpulat10TickEngine4stepEv");
void
wrapStep(TickEngine *self)
{
    if (!cell.log)
        return realStep(self);
    ++cell.wrapCalls[perfbench::kStep];
    const perfbench::EngineCall call;
    realStep(self);
}

Cycle wrapFastForward(TickEngine *self)
    asm("__wrap__ZN6gpulat10TickEngine11fastForwardEv");
Cycle
wrapFastForward(TickEngine *self)
{
    if (!cell.log)
        return realFastForward(self);
    ++cell.wrapCalls[perfbench::kEngineFastForward];
    const perfbench::EngineCall call;
    return realFastForward(self);
}

void wrapSettle(TickEngine *self)
    asm("__wrap__ZN6gpulat10TickEngine6settleEv");
void
wrapSettle(TickEngine *self)
{
    if (!cell.log)
        return realSettle(self);
    ++cell.wrapCalls[perfbench::kSettle];
    const perfbench::EngineCall call;
    realSettle(self);
}
