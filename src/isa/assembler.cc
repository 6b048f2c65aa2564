#include "isa/assembler.hh"

#include <algorithm>
#include <cctype>
#include <charconv>
#include <limits>
#include <optional>
#include <sstream>
#include <tuple>
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

        parseInstruction(builder, line, i);
    }

    /**
     * Parse the instruction at tokens[@p i] by walking its opcode's
     * shape, and emit it under the pending guard.
     */
    void
    parseInstruction(KernelBuilder &builder, const Line &line,
                     std::size_t i)
    {
        const auto &toks = line.tokens;
        const std::size_t dot = toks[i].find('.');
        const std::string mnemonic = toks[i].substr(0, dot);
        const OpcodeInfo *info = findOpcode(mnemonic);
        if (!info || (dot != std::string::npos &&
                      info->suffix == Suffix::None))
            syntaxError(line.number,
                        "unknown mnemonic '" + toks[i] + "'");
        const std::string suffix =
            dot == std::string::npos ? "" : toks[i].substr(dot + 1);
        ++i;
        Instruction inst{.op = info->op};
        bool suffix_ok = true;
        visitSuffix(inst, [&](const auto &table, auto &field) {
            const auto value = unspell(table, suffix);
            suffix_ok = value.has_value();
            if (value)
                field = *value;
        });
        if (!suffix_ok) {
            std::string choices;
            for (const char *text : suffixSpellings(info->op))
                choices += (choices.empty() ? "." : "/.") +
                           std::string(text);
            syntaxError(line.number, mnemonic + " needs " + choices);
        }

        // Walk the shape. Each operand is one token but an address,
        // so only a shape with an address may have more tokens than
        // operands, and the tokens after the address must match the
        // operands after it.
        const auto &shape = info->shape;
        const auto arity = static_cast<std::size_t>(
            std::find(shape.begin(), shape.end(), Operand::None) -
            shape.begin());
        const bool optional = arity && shape[arity - 1] == Operand::Dep;
        const bool address = std::find(shape.begin(), shape.end(),
                                       Operand::Address) != shape.end();
        auto usage = [&] {
            syntaxError(line.number,
                        arity == 0 ? mnemonic + " takes no operands"
                        : info->suffix == Suffix::None
                            ? mnemonic + " " + info->usage
                            : mnemonic + "." + info->usage);
        };
        if (toks.size() - i + optional < arity ||
            (!address && toks.size() - i > arity))
            usage();
        auto next = [&]() -> const std::string & { return toks[i++]; };
        std::string target;
        for (std::size_t k = 0; k < arity; ++k) {
            switch (shape[k]) {
              case Operand::None:
                break;
              case Operand::Dst:
                inst.dst = expectReg(line, next());
                break;
              case Operand::SrcA:
                inst.srcA = expectReg(line, next());
                break;
              case Operand::SrcB:
                inst.srcB = expectReg(line, next());
                break;
              case Operand::SrcC:
                inst.srcC = expectReg(line, next());
                break;
              case Operand::Dep:
                if (i < toks.size())
                    inst.srcA = expectReg(line, next());
                break;
              case Operand::MovSrc: {
                const std::string &tok = next();
                if (const auto param = parseParam(tok)) {
                    inst.param = *param;
                } else if (const auto rs = parseReg(tok)) {
                    inst.srcB = *rs;
                } else if (const auto imm = parseImm(tok)) {
                    inst.imm = *imm;
                    inst.useImm = true;
                } else {
                    syntaxError(line.number,
                                "bad mov source '" + tok + "'");
                }
                break;
              }
              case Operand::RegOrImm: {
                const std::string &tok = next();
                if (const auto rb = parseReg(tok)) {
                    inst.srcB = *rb;
                } else {
                    inst.imm = expectImm(line, tok);
                    inst.useImm = true;
                }
                break;
              }
              case Operand::Sreg: {
                const std::string &tok = next();
                const auto sreg = unspell(kSpecialRegSpellings, tok);
                if (!sreg)
                    syntaxError(line.number,
                                "bad special register '" + tok + "'");
                inst.sreg = *sreg;
                break;
              }
              case Operand::PredDst: {
                const std::string &tok = next();
                const auto pd = parsePred(tok);
                if (!pd)
                    syntaxError(line.number,
                                "bad predicate '" + tok + "'");
                inst.predDst = *pd;
                break;
              }
              case Operand::Target:
                target = next();
                break;
              case Operand::Address:
                std::tie(inst.srcA, inst.imm) = parseAddress(line, i);
                if (toks.size() - i != arity - k - 1)
                    usage();
                break;
            }
        }
        builder.emit(inst, target);
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
