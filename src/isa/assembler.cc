#include "isa/assembler.hh"

#include <cctype>
#include <charconv>
#include <limits>
#include <optional>
#include <sstream>
#include <vector>

#include "common/log.hh"

namespace gpulat {

namespace {

/** Tokenized view of one source line. */
struct Line
{
    int number;
    std::vector<std::string> tokens;
};

[[noreturn]] void
syntaxError(int line, const std::string &msg)
{
    fatal("asm line ", line, ": ", msg);
}

/** Strip comments, split on whitespace/commas/brackets. */
std::vector<std::string>
tokenize(std::string text)
{
    for (std::size_t i = 0; i < text.size(); ++i) {
        if (text[i] == ';' || text[i] == '#' ||
            (text[i] == '/' && i + 1 < text.size() &&
             text[i + 1] == '/')) {
            text.resize(i);
            break;
        }
    }

    std::vector<std::string> tokens;
    std::string cur;
    auto flush = [&] {
        if (!cur.empty()) {
            tokens.push_back(cur);
            cur.clear();
        }
    };
    for (char ch : text) {
        if (std::isspace(static_cast<unsigned char>(ch)) || ch == ',') {
            flush();
        } else if (ch == '[' || ch == ']') {
            flush();
            tokens.emplace_back(1, ch);
        } else {
            cur += ch;
        }
    }
    flush();
    return tokens;
}

/**
 * The digits of @p tok from @p pos on, in @p base, as a value no
 * larger than @p max: no sign, no spaces. nullopt on anything else,
 * an overflowing literal included.
 */
std::optional<std::uint64_t>
parseDigits(const std::string &tok, std::size_t pos, int base,
            std::uint64_t max)
{
    if (pos >= tok.size())
        return std::nullopt;
    std::uint64_t v = 0;
    const char *const end = tok.data() + tok.size();
    const auto [stop, error] =
        std::from_chars(tok.data() + pos, end, v, base);
    if (error != std::errc{} || stop != end || v > max)
        return std::nullopt;
    return v;
}

/** Parse "<prefix>N" -> N, for N below @p count. */
std::optional<int>
parseIndex(const std::string &tok, const std::string &prefix, int count)
{
    if (tok.rfind(prefix, 0) != 0)
        return std::nullopt;
    const auto v = parseDigits(tok, prefix.size(), 10,
                               static_cast<std::uint64_t>(count - 1));
    if (!v)
        return std::nullopt;
    return static_cast<int>(*v);
}

std::optional<int>
parseReg(const std::string &tok)
{
    return parseIndex(tok, "r", kNumRegs);
}

std::optional<int>
parsePred(const std::string &tok)
{
    return parseIndex(tok, "p", kNumPreds);
}

std::optional<int>
parseParam(const std::string &tok)
{
    return parseIndex(tok, "param", kMaxParams);
}

/** Parse a decimal or 0x-hex immediate, with optional leading '-',
 *  that fits an int64. */
std::optional<std::int64_t>
parseImm(const std::string &tok)
{
    const bool neg = !tok.empty() && tok[0] == '-';
    std::size_t pos = neg ? 1 : 0;
    int base = 10;
    if (tok.compare(pos, 2, "0x") == 0 || tok.compare(pos, 2, "0X") == 0)
    {
        base = 16;
        pos += 2;
    }
    constexpr auto max = static_cast<std::uint64_t>(
        std::numeric_limits<std::int64_t>::max());
    const auto v = parseDigits(tok, pos, base, neg ? max + 1 : max);
    if (!v)
        return std::nullopt;
    // Two's complement wrap: -(2^63) lands on INT64_MIN.
    return static_cast<std::int64_t>(neg ? 0 - *v : *v);
}

std::optional<SpecialReg>
parseSreg(const std::string &tok)
{
    if (tok == "tid") return SpecialReg::Tid;
    if (tok == "ctaid") return SpecialReg::Ctaid;
    if (tok == "ntid") return SpecialReg::Ntid;
    if (tok == "nctaid") return SpecialReg::Nctaid;
    if (tok == "laneid") return SpecialReg::LaneId;
    if (tok == "warpid") return SpecialReg::WarpId;
    if (tok == "smid") return SpecialReg::SmId;
    return std::nullopt;
}

std::optional<CmpOp>
parseCmp(const std::string &tok)
{
    if (tok == "eq") return CmpOp::EQ;
    if (tok == "ne") return CmpOp::NE;
    if (tok == "lt") return CmpOp::LT;
    if (tok == "le") return CmpOp::LE;
    if (tok == "gt") return CmpOp::GT;
    if (tok == "ge") return CmpOp::GE;
    return std::nullopt;
}

std::optional<AtomOp>
parseAtomOp(const std::string &tok)
{
    if (tok == "add") return AtomOp::Add;
    if (tok == "max") return AtomOp::Max;
    if (tok == "exch") return AtomOp::Exch;
    return std::nullopt;
}

std::optional<MemSpace>
parseSpace(const std::string &tok)
{
    if (tok == "global") return MemSpace::Global;
    if (tok == "local") return MemSpace::Local;
    if (tok == "shared") return MemSpace::Shared;
    return std::nullopt;
}

std::optional<Opcode>
parseAluOp(const std::string &tok)
{
    if (tok == "iadd") return Opcode::IADD;
    if (tok == "isub") return Opcode::ISUB;
    if (tok == "imul") return Opcode::IMUL;
    if (tok == "shl") return Opcode::SHL;
    if (tok == "shr") return Opcode::SHR;
    if (tok == "and") return Opcode::AND;
    if (tok == "or") return Opcode::OR;
    if (tok == "xor") return Opcode::XOR;
    if (tok == "imin") return Opcode::IMIN;
    if (tok == "imax") return Opcode::IMAX;
    if (tok == "fadd") return Opcode::FADD;
    if (tok == "fmul") return Opcode::FMUL;
    return std::nullopt;
}

/** Split "op.suffix" into (op, suffix). */
std::pair<std::string, std::string>
splitDot(const std::string &tok)
{
    auto dot = tok.find('.');
    if (dot == std::string::npos)
        return {tok, ""};
    return {tok.substr(0, dot), tok.substr(dot + 1)};
}

/** Parser driving a KernelBuilder. */
class Parser
{
  public:
    Parser(const std::string &source, const std::string &default_name)
        : name_(default_name), source_(source)
    {
    }

    Kernel
    run()
    {
        // First scan for the .kernel directive so the builder gets
        // the right name from the start.
        splitLines();
        for (const auto &line : lines_) {
            if (line.tokens.size() >= 2 &&
                line.tokens[0] == ".kernel") {
                name_ = line.tokens[1];
            }
        }

        KernelBuilder builder(name_);
        for (const auto &line : lines_)
            parseLine(builder, line);
        return builder.finalize();
    }

  private:
    void
    splitLines()
    {
        std::istringstream iss(source_);
        std::string text;
        int number = 0;
        while (std::getline(iss, text)) {
            ++number;
            auto tokens = tokenize(text);
            if (!tokens.empty())
                lines_.push_back(Line{number, std::move(tokens)});
        }
    }

    int
    expectReg(const Line &line, const std::string &tok)
    {
        auto r = parseReg(tok);
        if (!r)
            syntaxError(line.number, "expected register r0..r" +
                                         std::to_string(kNumRegs - 1) +
                                         ", got '" + tok + "'");
        return *r;
    }

    std::int64_t
    expectImm(const Line &line, const std::string &tok)
    {
        auto v = parseImm(tok);
        if (!v)
            syntaxError(line.number, "expected a 64-bit immediate, "
                                     "got '" + tok + "'");
        return *v;
    }

    /** A directive's one argument: an immediate in [0, @p max]. */
    std::uint64_t
    expectCount(const Line &line, std::uint64_t max)
    {
        const auto v = line.tokens.size() == 2
            ? parseImm(line.tokens[1]) : std::nullopt;
        if (!v || *v < 0 || static_cast<std::uint64_t>(*v) > max)
            syntaxError(line.number, line.tokens[0] +
                                         " needs one count in [0, " +
                                         std::to_string(max) + "]");
        return static_cast<std::uint64_t>(*v);
    }

    /**
     * Parse "[rN]" or "[rN+imm]" / "[rN-imm]" starting at tokens[i]
     * (which must be "["). Returns (reg, offset) and advances i past
     * the "]".
     */
    std::pair<int, std::int64_t>
    parseAddress(const Line &line, std::size_t &i)
    {
        const auto &toks = line.tokens;
        if (i >= toks.size() || toks[i] != "[")
            syntaxError(line.number, "expected '['");
        ++i;
        if (i >= toks.size())
            syntaxError(line.number, "truncated address");

        // The address expression was tokenized as a single token
        // ("r4+8") because +/- don't split.
        std::string expr = toks[i++];
        if (i >= toks.size() || toks[i] != "]")
            syntaxError(line.number, "expected ']'");
        ++i;

        auto plus = expr.find_first_of("+-", 1);
        std::string reg_part = expr.substr(0, plus);
        auto reg = parseReg(reg_part);
        if (!reg)
            syntaxError(line.number,
                        "bad address base '" + reg_part + "'");
        std::int64_t off = 0;
        if (plus != std::string::npos) {
            // "+8" -> "8"; "-8" keeps its sign.
            auto v = parseImm(expr[plus] == '+'
                                  ? expr.substr(plus + 1)
                                  : expr.substr(plus));
            if (!v)
                syntaxError(line.number, "bad address offset in '" +
                                         expr + "'");
            off = *v;
        }
        return {*reg, off};
    }

    void
    parseLine(KernelBuilder &builder, const Line &line)
    {
        const auto &toks = line.tokens;
        std::size_t i = 0;

        // Directives.
        if (toks[0][0] == '.') {
            if (toks[0] == ".kernel") {
                // handled in run()
            } else if (toks[0] == ".regs") {
                builder.regs(static_cast<int>(expectCount(line, kNumRegs)));
            } else if (toks[0] == ".shared") {
                builder.shared(static_cast<std::uint32_t>(expectCount(
                    line, std::numeric_limits<std::uint32_t>::max())));
            } else {
                syntaxError(line.number,
                            "unknown directive '" + toks[0] + "'");
            }
            return;
        }

        // Labels (possibly followed by an instruction on same line).
        if (toks[0].back() == ':') {
            const std::string label = toks[0].substr(0, toks[0].size() - 1);
            if (builder.labels().count(label))
                syntaxError(line.number,
                            "duplicate label '" + label + "'");
            builder.label(label);
            if (toks.size() == 1)
                return;
            i = 1;
        }

        // Guard.
        if (toks[i][0] == '@') {
            std::string g = toks[i].substr(1);
            bool neg = !g.empty() && g[0] == '!';
            if (neg)
                g = g.substr(1);
            auto p = parsePred(g);
            if (!p)
                syntaxError(line.number, "bad guard '" + toks[i] + "'");
            builder.pred(*p, neg);
            ++i;
            if (i >= toks.size())
                syntaxError(line.number, "guard without instruction");
        }

        auto [op, suffix] = splitDot(toks[i]);
        // Only setp and the memory operations take a ".suffix".
        if (toks[i] != op && op != "setp" && op != "ld" && op != "st" &&
            op != "atom")
            syntaxError(line.number,
                        "unknown mnemonic '" + toks[i] + "'");
        ++i;
        auto remaining = [&] { return toks.size() - i; };

        if (op == "nop" || op == "exit" || op == "bar") {
            if (remaining() != 0)
                syntaxError(line.number, op + " takes no operands");
            if (op == "nop")
                builder.nop();
            else if (op == "exit")
                builder.exit();
            else
                builder.bar();
        } else if (op == "mov") {
            if (remaining() != 2)
                syntaxError(line.number, "mov rd, src");
            int rd = expectReg(line, toks[i]);
            const std::string &src = toks[i + 1];
            if (auto param = parseParam(src)) {
                builder.movParam(rd, *param);
            } else if (auto rs = parseReg(src)) {
                builder.movReg(rd, *rs);
            } else if (auto imm = parseImm(src)) {
                builder.movImm(rd, *imm);
            } else {
                syntaxError(line.number, "bad mov source '" + src + "'");
            }
        } else if (op == "s2r") {
            if (remaining() != 2)
                syntaxError(line.number, "s2r rd, sreg");
            int rd = expectReg(line, toks[i]);
            auto sr = parseSreg(toks[i + 1]);
            if (!sr)
                syntaxError(line.number,
                            "bad special register '" + toks[i + 1] +
                            "'");
            builder.s2r(rd, *sr);
        } else if (op == "clock") {
            if (remaining() != 1 && remaining() != 2)
                syntaxError(line.number, "clock rd [, rdep]");
            int rd = expectReg(line, toks[i]);
            int dep = kNoReg;
            if (remaining() == 2)
                dep = expectReg(line, toks[i + 1]);
            builder.clock(rd, dep);
        } else if (op == "imad" || op == "ffma") {
            if (remaining() != 4)
                syntaxError(line.number, op + " rd, ra, rb, rc");
            int rd = expectReg(line, toks[i]);
            int ra = expectReg(line, toks[i + 1]);
            int rb = expectReg(line, toks[i + 2]);
            int rc = expectReg(line, toks[i + 3]);
            if (op == "imad")
                builder.imad(rd, ra, rb, rc);
            else
                builder.ffma(rd, ra, rb, rc);
        } else if (op == "i2f" || op == "f2i") {
            if (remaining() != 2)
                syntaxError(line.number, op + " rd, ra");
            builder.cvt(op == "i2f" ? Opcode::I2F : Opcode::F2I,
                        expectReg(line, toks[i]),
                        expectReg(line, toks[i + 1]));
        } else if (op == "setp") {
            auto cmp = parseCmp(suffix);
            if (!cmp)
                syntaxError(line.number,
                            "setp needs .eq/.ne/.lt/.le/.gt/.ge");
            if (remaining() != 3)
                syntaxError(line.number, "setp.cc pd, ra, b");
            auto pd = parsePred(toks[i]);
            if (!pd)
                syntaxError(line.number,
                            "bad predicate '" + toks[i] + "'");
            int ra = expectReg(line, toks[i + 1]);
            if (auto rb = parseReg(toks[i + 2]))
                builder.setp(*cmp, *pd, ra, *rb);
            else
                builder.setpImm(*cmp, *pd, ra,
                                expectImm(line, toks[i + 2]));
        } else if (op == "bra") {
            if (remaining() != 1)
                syntaxError(line.number, "bra label");
            builder.bra(toks[i]);
        } else if (op == "ld") {
            auto space = parseSpace(suffix);
            if (!space)
                syntaxError(line.number,
                            "ld needs .global/.local/.shared");
            if (remaining() < 2)
                syntaxError(line.number, "ld.space rd, [ra+off]");
            int rd = expectReg(line, toks[i]);
            ++i;
            auto [ra, off] = parseAddress(line, i);
            if (i != toks.size())
                syntaxError(line.number, "ld.space rd, [ra+off]");
            builder.ld(*space, rd, ra, off);
        } else if (op == "atom") {
            auto aop = parseAtomOp(suffix);
            if (!aop)
                syntaxError(line.number, "atom needs .add/.max/.exch");
            if (remaining() < 3)
                syntaxError(line.number, "atom.op rd, [ra+off], rb");
            int rd = expectReg(line, toks[i]);
            ++i;
            auto [ra, off] = parseAddress(line, i);
            if (i + 1 != toks.size())
                syntaxError(line.number, "atom.op rd, [ra+off], rb");
            int rb = expectReg(line, toks[i]);
            builder.atom(*aop, rd, ra, rb, off);
        } else if (op == "st") {
            auto space = parseSpace(suffix);
            if (!space)
                syntaxError(line.number,
                            "st needs .global/.local/.shared");
            auto [ra, off] = parseAddress(line, i);
            if (i + 1 != toks.size())
                syntaxError(line.number, "st.space [ra+off], rb");
            int rb = expectReg(line, toks[i]);
            builder.st(*space, ra, rb, off);
        } else if (auto alu_op = parseAluOp(op)) {
            if (remaining() != 3)
                syntaxError(line.number, op + " rd, ra, b");
            int rd = expectReg(line, toks[i]);
            int ra = expectReg(line, toks[i + 1]);
            if (auto rb = parseReg(toks[i + 2]))
                builder.alu(*alu_op, rd, ra, *rb);
            else
                builder.aluImm(*alu_op, rd, ra,
                               expectImm(line, toks[i + 2]));
        } else {
            syntaxError(line.number, "unknown mnemonic '" + op + "'");
        }
    }

    std::string name_;
    const std::string &source_;
    std::vector<Line> lines_;
};

} // namespace

Kernel
assemble(const std::string &source, const std::string &default_name)
{
    return Parser(source, default_name).run();
}

} // namespace gpulat
