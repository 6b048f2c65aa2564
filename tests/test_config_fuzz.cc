/**
 * @file
 * Seeded fuzz of the config surface. A bad override must end in a
 * named error, never a panic, a signal, a hang or a silently changed
 * machine.
 *
 * Pass 1 gives every override key each value of a hostile pool on
 * gf106; pass 2 sets 2-3 random keys to well-formed values from
 * those pools on random presets. A cell passes when
 *  - the parse refuses a value with a FatalError, or
 *  - the Gpu (its constructor, or a launch or allocation that the
 *    config cannot hold) throws a FatalError in which every line
 *    names a key the cell set, or
 *  - a small kernel (global ld/st, shared ld/st across `bar`, one
 *    same-word `atom.add` per lane) runs and verifies under both
 *    fast-forward modes, in identical cycles.
 * Anything else fails the cell: a PanicError, another exception, a
 * wrong result, or (outside gtest's reach) a signal or a sanitizer
 * report. Three keys stay out: `engine.tickJobs` starts threads,
 * and the test sets `engine.watchdogStallSteps` and
 * `idleFastForward` itself.
 */

#include <cctype>
#include <iostream>
#include <sstream>
#include <string>
#include <vector>

#include <gtest/gtest.h>

#include "api/config_override.hh"
#include "common/log.hh"
#include "common/random.hh"
#include "gpu/gpu.hh"
#include "isa/assembler.hh"

namespace gpulat {
namespace {

constexpr unsigned kBlocks = 2;
constexpr unsigned kThreadsPerBlock = 64;
constexpr unsigned kThreads = kBlocks * kThreadsPerBlock;

/**
 * out[gid] = in[its block's next thread, wrapping], exchanged
 * through shared memory across a barrier; every lane adds 1 to the
 * same counter word.
 */
const char *const kFuzzKernel = R"(
.kernel fuzz
; params: 0=in 1=out 2=counter
.shared 512
    s2r   r0, tid
    s2r   r1, ctaid
    s2r   r2, ntid
    imad  r3, r1, r2, r0
    shl   r4, r3, 3
    mov   r5, param0
    iadd  r5, r5, r4
    ld.global r6, [r5]
    shl   r7, r0, 3
    st.shared [r7], r6
    bar
    iadd  r8, r0, 1
    setp.lt p0, r8, r2
    @!p0 mov r8, 0
    shl   r9, r8, 3
    ld.shared r10, [r9]
    mov   r11, param1
    iadd  r11, r11, r4
    st.global [r11], r10
    mov   r12, param2
    mov   r13, 1
    atom.add r14, [r12], r13
    exit
)";

bool
skipped(const std::string &path)
{
    return path == "engine.tickJobs" ||
           path == "engine.watchdogStallSteps" ||
           path == "idleFastForward";
}

/**
 * The hostile values for a key of type @p type: zero, one, a
 * non-power of two, 2^32-1 (4096 for cycle counts, so valid runs
 * stay short), a negative, junk and nothing; plus the spellings an
 * enumeration lists ("lrr|gto") and a few ratios.
 */
std::vector<std::string>
hostilePool(const std::string &type)
{
    const bool cycles = type.rfind("cycles", 0) == 0;
    std::vector<std::string> pool = {
        "0", "1", "3", cycles ? "4096" : "4294967295", "-1", "x", ""};
    if (type.rfind("ratio", 0) == 0)
        pool.insert(pool.end(), {"1/2", "3:2", "65/1", "1/0"});
    const std::string head = type.substr(0, type.find(' '));
    if (head.find('|') != std::string::npos) {
        std::istringstream in(head);
        for (std::string value; std::getline(in, value, '|');)
            pool.push_back(value);
    }
    return pool;
}

struct Cell
{
    std::string preset;
    std::vector<std::string> sets; ///< key=value, applied in order
};

std::string
describe(const Cell &cell)
{
    std::string out = cell.preset;
    for (const std::string &s : cell.sets)
        out += " --set '" + s + "'";
    return out;
}

/** True if @p line names @p key as a whole dotted key. */
bool
mentions(const std::string &line, const std::string &key)
{
    auto part_of_key = [](char c) {
        return std::isalnum(static_cast<unsigned char>(c)) || c == '.';
    };
    for (std::size_t at = line.find(key); at != std::string::npos;
         at = line.find(key, at + 1)) {
        const std::size_t end = at + key.size();
        if ((at == 0 || !part_of_key(line[at - 1])) &&
            (end == line.size() || !part_of_key(line[end])))
            return true;
    }
    return false;
}

/** Every line of @p message (past a config header) names a key the
 *  cell set. */
bool
blamesTheCell(const std::string &message, const Cell &cell)
{
    std::istringstream in(message);
    std::string line;
    bool any = false;
    while (std::getline(in, line)) {
        if (line.rfind("fatal: invalid config", 0) == 0)
            continue;
        bool named = false;
        for (const std::string &s : cell.sets)
            named = named || mentions(line, s.substr(0, s.find('=')));
        if (!named)
            return false;
        any = true;
    }
    return any;
}

enum class Outcome
{
    ParseError,
    NamedError,
    Verified,
    Failed,
};

/** The fuzz kernel's cycles on @p cfg, or a thrown error. */
Cycle
runKernel(const GpuConfig &cfg, bool &correct)
{
    static const Kernel kernel = assemble(kFuzzKernel);
    Gpu gpu(cfg);
    std::vector<std::uint64_t> in(kThreads);
    for (unsigned i = 0; i < kThreads; ++i)
        in[i] = 1000 + 7 * i;
    const Addr d_in = gpu.alloc(kThreads * 8);
    const Addr d_out = gpu.alloc(kThreads * 8);
    const Addr d_counter = gpu.alloc(8);
    gpu.copyToDevice(d_in, in.data(), kThreads * 8);
    const std::uint64_t zero = 0;
    gpu.copyToDevice(d_counter, &zero, 8);

    const LaunchResult result = gpu.launch(
        kernel, kBlocks, kThreadsPerBlock, {d_in, d_out, d_counter});

    std::vector<std::uint64_t> out(kThreads);
    gpu.copyFromDevice(out.data(), d_out, kThreads * 8);
    std::uint64_t counter = 0;
    gpu.copyFromDevice(&counter, d_counter, 8);
    correct = counter == kThreads;
    for (unsigned g = 0; g < kThreads; ++g) {
        const unsigned base = g / kThreadsPerBlock * kThreadsPerBlock;
        const unsigned next = base + (g + 1) % kThreadsPerBlock;
        correct = correct && out[g] == in[next];
    }
    return result.cycles;
}

Outcome
runCell(const Cell &cell)
{
    GpuConfig cfg = makeConfig(cell.preset);
    // Far above any valid cell's quietest stretch (latencies are at
    // most 4096 cycles here), far below a real hang's patience.
    cfg.engine.watchdogStallSteps = 200000;
    try {
        applyOverrides(cfg, cell.sets);
    } catch (const FatalError &) {
        return Outcome::ParseError;
    }
    Cycle cycles[2] = {0, 0};
    const IdleFastForward modes[2] = {IdleFastForward::Off,
                                      IdleFastForward::PerDomain};
    try {
        for (int m = 0; m < 2; ++m) {
            cfg.idleFastForward = modes[m];
            bool correct = false;
            cycles[m] = runKernel(cfg, correct);
            if (!correct) {
                ADD_FAILURE() << describe(cell)
                              << ": kernel did not verify";
                return Outcome::Failed;
            }
        }
    } catch (const FatalError &e) {
        if (!blamesTheCell(e.what(), cell)) {
            ADD_FAILURE() << describe(cell)
                          << ": error names no key the cell set: "
                          << e.what();
            return Outcome::Failed;
        }
        return Outcome::NamedError;
    } catch (const std::exception &e) {
        ADD_FAILURE() << describe(cell) << ": " << e.what();
        return Outcome::Failed;
    }
    if (cycles[0] != cycles[1]) {
        ADD_FAILURE() << describe(cell) << ": off ran " << cycles[0]
                      << " cycles, perDomain " << cycles[1];
        return Outcome::Failed;
    }
    return Outcome::Verified;
}

/** Per-outcome cell counts, printed after each pass. */
struct Tally
{
    unsigned counts[4] = {0, 0, 0, 0};

    void add(Outcome o) { ++counts[static_cast<int>(o)]; }

    void
    print(const char *pass) const
    {
        std::cout << pass << ": " << counts[0] << " parse errors, "
                  << counts[1] << " named errors, " << counts[2]
                  << " verified in both modes, " << counts[3]
                  << " failed\n";
    }
};

TEST(ConfigFuzz, EveryKeyTakesEveryHostileValue)
{
    Tally tally;
    for (const ConfigKey &key : configKeys()) {
        if (skipped(key.path))
            continue;
        for (const std::string &value : hostilePool(key.type))
            tally.add(runCell({"gf106", {key.path + "=" + value}}));
    }
    tally.print("pass 1");
    EXPECT_EQ(tally.counts[static_cast<int>(Outcome::Failed)], 0u);
}

TEST(ConfigFuzz, RandomAssignmentsOnRandomPresets)
{
    // Combinations of well-formed values: pass 1 already shows that
    // every malformed one is a parse error on its own.
    struct Choice
    {
        std::string path;
        std::vector<std::string> values;
    };
    std::vector<Choice> choices;
    for (const ConfigKey &key : configKeys()) {
        if (skipped(key.path))
            continue;
        Choice choice{key.path, {}};
        for (const std::string &value : hostilePool(key.type)) {
            GpuConfig probe;
            try {
                key.set(probe, value);
                choice.values.push_back(value);
            } catch (const FatalError &) {
            }
        }
        ASSERT_FALSE(choice.values.empty()) << key.path;
        choices.push_back(std::move(choice));
    }
    Rng rng(20);
    Tally tally;
    for (unsigned c = 0; c < 400; ++c) {
        Cell cell;
        cell.preset = configNames()[rng.below(configNames().size())];
        const unsigned count = 2 + static_cast<unsigned>(rng.below(2));
        for (unsigned k = 0; k < count; ++k) {
            const Choice &choice = choices[rng.below(choices.size())];
            cell.sets.push_back(
                choice.path + "=" +
                choice.values[rng.below(choice.values.size())]);
        }
        tally.add(runCell(cell));
    }
    tally.print("pass 2");
    EXPECT_EQ(tally.counts[static_cast<int>(Outcome::Failed)], 0u);
}

} // namespace
} // namespace gpulat
