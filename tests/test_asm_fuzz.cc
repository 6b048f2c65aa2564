/**
 * @file
 * Assembler text gives a kernel or a named error. A FatalError that
 * names the asm line is the only allowed failure: never a panic,
 * never an out-of-range read, never a signed overflow (the Debug
 * build's ASan/UBSan job runs this file with the rest of ctest).
 *
 * AsmErrors pins each known bad input by message; AsmFuzz then
 * assembles seeded random programs of 1-6 lines. Each line is an
 * opcode of the ISA table (src/isa/isa.hh) with one of its suffixes
 * and operands of its shape, and one token in eight comes from a
 * hostile pool: malformed mnemonics and directives, indices one past
 * each ISA limit, and literals at and beyond the 64-bit bounds.
 */

#include <cstdint>
#include <iostream>
#include <limits>
#include <string>
#include <vector>

#include <gtest/gtest.h>

#include "common/log.hh"
#include "common/random.hh"
#include "isa/assembler.hh"

namespace gpulat {
namespace {

/** The FatalError text @p source assembles to ("" if it assembles). */
std::string
errorOf(const std::string &source)
{
    try {
        assemble(source);
    } catch (const FatalError &e) {
        return e.what();
    }
    return "";
}

TEST(AsmErrors, EveryBadInputNamesItsLine)
{
    const std::pair<const char *, const char *> cases[] = {
        // Literals past the range of their field.
        {"mov r1, 99999999999999999999999\nexit\n", "asm line 1"},
        {"mov r1, -9223372036854775809\nexit\n", "asm line 1"},
        {"mov r1, 0x10000000000000000\nexit\n", "asm line 1"},
        {"nop\nld.global r1, [r2+99999999999999999999]\nexit\n",
         "asm line 2: bad address offset"},
        {".shared 99999999999999999999\nexit\n", "asm line 1: .shared"},
        {".shared 4294967296\nexit\n", "asm line 1: .shared"},
        {".regs 65\nexit\n", "asm line 1: .regs"},
        // Indices past the ISA's limits, and a duplicate label.
        {"@p9 exit\nexit\n", "asm line 1: bad guard"},
        {"mov r1, param16\nexit\n", "asm line 1: bad mov source"},
        {"mov r64, 1\nexit\n", "asm line 1: expected register"},
        {"mov r99999999999999999999, 1\nexit\n", "asm line 1"},
        {"setp.lt p8, r1, r2\nexit\n", "asm line 1: bad predicate"},
        {"x:\nnop\nx: exit\n", "asm line 3: duplicate label 'x'"},
        // Operands and suffixes the instruction does not take.
        {"exit r1\n", "asm line 1: exit takes no operands"},
        {"exit.now\n", "asm line 1: unknown mnemonic 'exit.now'"},
        {"mov.u32 r1, 1\nexit\n", "asm line 1: unknown mnemonic"},
        {"ld.global r1, [r2], r3\nexit\n", "asm line 1: ld.space"},
        {"st.global [r1], r2, r3\nexit\n", "asm line 1: st.space"},
        {"atom.add r1, [r2], r3, r4\nexit\n", "asm line 1: atom.op"},
        // Texts built from the ISA tables.
        {"setp p0, r1, r2\nexit\n",
         "asm line 1: setp needs .eq/.ne/.lt/.le/.gt/.ge"},
        {"ld.bogus r1, [r2]\nexit\n",
         "asm line 1: ld needs .global/.local/.shared"},
        {"atom.sub r1, [r2], r3\nexit\n",
         "asm line 1: atom needs .add/.max/.exch"},
        {"setp.lt p0, r1\nexit\n", "asm line 1: setp.cc pd, ra, b"},
        {"iadd r1, r2\nexit\n", "asm line 1: iadd rd, ra, b"},
        {"clock\nexit\n", "asm line 1: clock rd [, rdep]"},
        {"s2r r1, bogus\nexit\n",
         "asm line 1: bad special register 'bogus'"},
        // Nothing to run.
        {"", "has no instructions"},
        {"x:\n", "has no instructions"},
    };
    for (const auto &[source, expect] : cases) {
        const std::string error = errorOf(source);
        EXPECT_NE(error.find(expect), std::string::npos)
            << "source:\n" << source << "error: " << error;
    }
}

TEST(AsmErrors, BoundaryLiteralsAssemble)
{
    const Kernel k = assemble("mov r1, 9223372036854775807\n"
                              "mov r2, -9223372036854775808\n"
                              "mov r3, 0x7fffffffffffffff\n"
                              "mov r63, param15\n"
                              "@!p7 exit\n"
                              ".shared 4294967295\n"
                              ".regs 64\n"
                              "exit\n");
    EXPECT_EQ(k.code[0].imm, std::numeric_limits<std::int64_t>::max());
    EXPECT_EQ(k.code[1].imm, std::numeric_limits<std::int64_t>::min());
    EXPECT_EQ(k.code[2].imm, std::numeric_limits<std::int64_t>::max());
    EXPECT_EQ(k.code[3].param, 15);
    EXPECT_TRUE(k.code[4].isExit());
    EXPECT_EQ(k.code[4].pred, 7);
    EXPECT_EQ(k.sharedBytes, std::numeric_limits<std::uint32_t>::max());
    EXPECT_EQ(k.numRegs, 64);
}

/** Well-formed operands of each kind, edges included. */
const std::vector<std::string> &
validOperands(Operand kind)
{
    static const std::vector<std::string> regs{"r0", "r5", "r63"};
    static const std::vector<std::string> preds{"p0", "p7"};
    static const std::vector<std::string> imms{
        "0", "-1", "0x10", "r2", "9223372036854775807",
        "-9223372036854775808"};
    static const std::vector<std::string> movs{
        "param0", "param15", "r1", "-5", "0x7fffffffffffffff"};
    static const std::vector<std::string> sregs = [] {
        std::vector<std::string> texts;
        for (const auto &s : kSpecialRegSpellings)
            texts.push_back(s.text);
        return texts;
    }();
    static const std::vector<std::string> addrs{
        "[r1]", "[r1+8]", "[r2-8]", "[r3-9223372036854775808]"};
    static const std::vector<std::string> labels{"L0", "L1"};
    switch (kind) {
      case Operand::PredDst: return preds;
      case Operand::RegOrImm: return imms;
      case Operand::MovSrc: return movs;
      case Operand::Sreg: return sregs;
      case Operand::Address: return addrs;
      case Operand::Target: return labels;
      default: return regs;
    }
}

/**
 * A token in @p info's mnemonic place that the assembler must
 * refuse or read as something else: a suffix where none goes, a
 * missing, empty or unknown one, a directive or a label.
 */
std::string
hostileMnemonic(Rng &rng, const OpcodeInfo &info)
{
    static const std::vector<std::string> others{
        "frobnicate", ".", "@p0", "L0:", ".regs", ".shared", ".kernel",
        ".bogus"};
    const std::string mnemonic = info.mnemonic;
    switch (rng.below(3)) {
      case 0:
        return others[rng.below(others.size())];
      case 1:
        return info.suffix == Suffix::None ? mnemonic + ".u32" : mnemonic;
      default:
        return mnemonic + (rng.below(2) ? "." : ".zz");
    }
}

const std::vector<std::string> kHostileOperands{
    "r64", "r-1", "r", "r1x", "r99999999999999999999", "p8", "p",
    "p99999999999999999999", "param16", "param",
    "param99999999999999999999", "-0", "0XfF", "0x", "-", "--1", "+1",
    "9223372036854775808", "-9223372036854775809",
    "0x8000000000000000", "-0x8000000000000000",
    "18446744073709551615", "99999999999999999999999", "4294967296",
    "64", "65", "nctaid", "bogus", "nowhere", "[r1+-8]", "[r1--8]",
    "[r1+]", "[r64]", "[r1+99999999999999999999]",
    "[r2-9223372036854775809]", "[r1+0x8000000000000000]", "[", "]",
    "[]", "[r1", "r1]", "; c", "// c", "# c"};

const std::vector<std::string> kGuards{
    "@p0", "@!p1", "@p7", "@p8", "@p9", "@", "@!", "@r1",
    "@p99999999999999999999"};

/**
 * One random line of a random opcode from the ISA table: mostly
 * well-formed, one token in eight hostile.
 */
std::string
randomLine(Rng &rng)
{
    auto pick = [&rng](const std::vector<std::string> &pool) {
        return pool[rng.below(pool.size())];
    };
    auto hostile = [&rng] { return rng.below(8) == 0; };
    std::string line;
    if (rng.below(4) == 0) {
        line += rng.below(2) ? "L0: " : "L1: ";
    }
    if (rng.below(4) == 0) {
        line += hostile() ? pick(kGuards) : "@p0";
        line += ' ';
    }
    const OpcodeInfo &info = kOpcodes[rng.below(kOpcodes.size())];
    if (hostile()) {
        line += hostileMnemonic(rng, info);
    } else {
        line += info.mnemonic;
        const auto suffixes = suffixSpellings(info.op);
        if (!suffixes.empty())
            line += std::string(".") +
                    suffixes[rng.below(suffixes.size())];
    }
    std::vector<Operand> operands;
    for (const Operand kind : info.shape) {
        if (kind == Operand::None ||
            (kind == Operand::Dep && rng.below(2) == 0))
            break;
        operands.push_back(kind);
    }
    // Now and then one operand too few or too many.
    if (!operands.empty() && hostile())
        operands.pop_back();
    if (hostile())
        operands.push_back(Operand::RegOrImm);
    for (std::size_t i = 0; i < operands.size(); ++i) {
        line += i == 0 ? " " : ", ";
        line += hostile() ? pick(kHostileOperands)
                          : pick(validOperands(operands[i]));
    }
    return line;
}

TEST(AsmFuzz, RandomTextAssemblesOrNamesItsError)
{
    Rng rng(22);
    unsigned assembled = 0;
    unsigned named = 0;
    unsigned failed = 0;
    for (unsigned p = 0; p < 20000; ++p) {
        std::string source;
        for (std::uint64_t n = 1 + rng.below(6); n > 0; --n)
            source += randomLine(rng) + "\n";
        // Half the programs end well, so finalize() and the CFG see
        // labels, guards and predicated exits, not only parse errors.
        if (rng.below(2) == 0)
            source += "exit\n";
        try {
            assemble(source);
            ++assembled;
        } catch (const FatalError &) {
            ++named;
        } catch (const std::exception &e) {
            if (++failed <= 5)
                ADD_FAILURE() << e.what() << "\nsource:\n" << source;
        }
    }
    std::cout << "[ asm fuzz ] " << assembled << " assembled, " << named
              << " named errors, " << failed << " other failures\n";
    EXPECT_EQ(failed, 0u);
    EXPECT_GT(assembled, 100u);
    EXPECT_GT(named, 100u);
}

} // namespace
} // namespace gpulat
