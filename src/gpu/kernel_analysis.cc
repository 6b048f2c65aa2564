#include "gpu/kernel_analysis.hh"

#include <algorithm>
#include <bit>
#include <cstdlib>
#include <numeric>
#include <set>
#include <sstream>
#include <vector>

#include "isa/cfg.hh"

namespace gpulat {

// ------------------------------------------------------ checked int64

namespace {

bool
addOv(std::int64_t a, std::int64_t b, std::int64_t &out)
{
    return __builtin_add_overflow(a, b, &out);
}

bool
mulOv(std::int64_t a, std::int64_t b, std::int64_t &out)
{
    return __builtin_mul_overflow(a, b, &out);
}

bool
isInf(std::int64_t v)
{
    return v == kNegInf || v == kPosInf;
}

} // namespace

std::int64_t
satAdd(std::int64_t a, std::int64_t b)
{
    if (a == kNegInf || b == kNegInf)
        return kNegInf;
    if (a == kPosInf || b == kPosInf)
        return kPosInf;
    std::int64_t out;
    if (addOv(a, b, out))
        return (a > 0) ? kPosInf : kNegInf;
    return out;
}

std::int64_t
satSub(std::int64_t a, std::int64_t b)
{
    if (b == kNegInf)
        return a == kNegInf ? 0 : kPosInf;
    if (b == kPosInf)
        return a == kPosInf ? 0 : kNegInf;
    return satAdd(a, -b); // b finite, so -b cannot overflow
}

std::int64_t
satMul(std::int64_t a, std::int64_t b)
{
    if (a == 0 || b == 0)
        return 0;
    const bool neg = (a < 0) != (b < 0);
    if (isInf(a) || isInf(b))
        return neg ? kNegInf : kPosInf;
    std::int64_t out;
    if (mulOv(a, b, out))
        return neg ? kNegInf : kPosInf;
    return out;
}

// ------------------------------------------------------ StrideInterval

namespace {

const StrideInterval kEmptyInterval{1, 0, 0};

std::uint64_t
gcdU(std::uint64_t a, std::uint64_t b)
{
    return std::gcd(a, b);
}

/** |a - b| for finite a, b; ~0 on overflow (forces stride 1). */
std::uint64_t
absDist(std::int64_t a, std::int64_t b)
{
    if (isInf(a) || isInf(b))
        return ~std::uint64_t{0};
    std::int64_t d;
    if (__builtin_sub_overflow(a, b, &d))
        return ~std::uint64_t{0};
    return d < 0 ? static_cast<std::uint64_t>(-(d + 1)) + 1
                 : static_cast<std::uint64_t>(d);
}

} // namespace

StrideInterval
StrideInterval::normalized() const
{
    StrideInterval r = *this;
    if (r.empty())
        return r;
    if (r.lo == r.hi) {
        r.stride = 0;
        return r;
    }
    if (r.stride == 0) {
        r.stride = 1;
        return r;
    }
    if (r.bounded()) {
        std::int64_t span;
        if (!__builtin_sub_overflow(r.hi, r.lo, &span)) {
            const auto s = static_cast<std::int64_t>(r.stride);
            r.hi = r.lo + (span / s) * s;
            if (r.lo == r.hi)
                r.stride = 0;
        }
    }
    return r;
}

StrideInterval
StrideInterval::add(const StrideInterval &a, const StrideInterval &b)
{
    if (a.empty() || b.empty())
        return kEmptyInterval;
    StrideInterval r;
    if (a.lo == kNegInf || b.lo == kNegInf) {
        r.lo = kNegInf;
    } else if (addOv(a.lo, b.lo, r.lo)) {
        return full(); // wrapped concrete values escape either bound
    }
    if (a.hi == kPosInf || b.hi == kPosInf) {
        r.hi = kPosInf;
    } else if (addOv(a.hi, b.hi, r.hi)) {
        return full();
    }
    r.stride = gcdU(a.stride, b.stride);
    return r.normalized();
}

StrideInterval
StrideInterval::sub(const StrideInterval &a, const StrideInterval &b)
{
    if (b.empty())
        return kEmptyInterval;
    // Negate b (swapping bounds) then add. -kPosInf == kNegInf+1 is
    // close enough for a sentinel; keep it a sentinel instead.
    StrideInterval nb;
    nb.lo = b.hi == kPosInf ? kNegInf
                            : (b.hi == kNegInf ? kPosInf : -b.hi);
    nb.hi = b.lo == kNegInf ? kPosInf
                            : (b.lo == kPosInf ? kNegInf : -b.lo);
    nb.stride = b.stride;
    return add(a, nb);
}

StrideInterval
StrideInterval::mulConst(const StrideInterval &a, std::int64_t m)
{
    if (a.empty())
        return kEmptyInterval;
    if (m == 0)
        return constant(0);
    const auto scale = [&](std::int64_t v, bool &ov) -> std::int64_t {
        if (isInf(v))
            return (m > 0) == (v == kPosInf) ? kPosInf : kNegInf;
        std::int64_t out;
        ov = ov || mulOv(v, m, out);
        return ov ? 0 : out;
    };
    bool ov = false;
    StrideInterval r;
    if (m > 0) {
        r.lo = scale(a.lo, ov);
        r.hi = scale(a.hi, ov);
    } else {
        r.lo = scale(a.hi, ov);
        r.hi = scale(a.lo, ov);
    }
    if (ov)
        return full();
    const std::uint64_t am =
        m < 0 ? static_cast<std::uint64_t>(-(m + 1)) + 1
              : static_cast<std::uint64_t>(m);
    std::uint64_t stride;
    if (__builtin_mul_overflow(a.stride, am, &stride))
        return full();
    r.stride = stride;
    return r.normalized();
}

StrideInterval
StrideInterval::shrConst(const StrideInterval &a, unsigned k)
{
    if (a.empty())
        return kEmptyInterval;
    k &= 63;
    if (k == 0)
        return a;
    // Logical uint64 shift: a negative int64 comes back huge and
    // positive, so all we know without a sign bound is "non-negative"
    // (k >= 1 clears the sign bit).
    if (a.lo < 0)
        return StrideInterval{0, kPosInf, 1};
    StrideInterval r;
    r.lo = a.lo >> k;
    r.hi = a.hi == kPosInf ? kPosInf : (a.hi >> k);
    // (lo + j*s) >> k == (lo >> k) + j*(s >> k) iff 2^k divides s.
    if (a.stride != 0 && (a.stride & ((std::uint64_t{1} << k) - 1)) == 0)
        r.stride = a.stride >> k;
    else
        r.stride = r.lo == r.hi ? 0 : 1;
    return r.normalized();
}

StrideInterval
StrideInterval::andConst(const StrideInterval &a, std::int64_t mask)
{
    if (a.empty())
        return kEmptyInterval;
    if (mask == 0)
        return constant(0);
    if (mask == -1)
        return a;
    if (mask > 0) {
        // Identity when the value provably has no bits above the
        // (contiguous) mask.
        const bool contiguous = (mask & (mask + 1)) == 0;
        if (contiguous && a.lo >= 0 && a.hi != kPosInf && a.hi <= mask)
            return a;
        std::int64_t hi = mask;
        if (a.lo >= 0 && a.hi != kPosInf)
            hi = std::min(a.hi, mask); // x & m <= x for x >= 0
        return StrideInterval{0, hi, hi == 0 ? 0u : 1u}.normalized();
    }
    // Negative mask (top bits set): only useful with a sign bound.
    if (a.lo >= 0)
        return StrideInterval{0, a.hi, a.lo == a.hi ? 0u : 1u}
            .normalized();
    return full();
}

StrideInterval
StrideInterval::join(const StrideInterval &a, const StrideInterval &b)
{
    if (a.empty())
        return b;
    if (b.empty())
        return a;
    StrideInterval r;
    r.lo = std::min(a.lo, b.lo);
    r.hi = std::max(a.hi, b.hi);
    if (isInf(a.lo) || isInf(b.lo)) {
        r.stride = r.lo == r.hi ? 0 : 1;
    } else {
        r.stride =
            gcdU(gcdU(a.stride, b.stride), absDist(a.lo, b.lo));
    }
    return r.normalized();
}

StrideInterval
StrideInterval::widen(const StrideInterval &prev,
                      const StrideInterval &next)
{
    if (prev.empty())
        return next;
    if (next.empty())
        return prev;
    const StrideInterval j = join(prev, next);
    StrideInterval r;
    r.lo = next.lo < prev.lo ? kNegInf : prev.lo;
    r.hi = next.hi > prev.hi ? kPosInf : prev.hi;
    // The stride grid is anchored at lo; once lo escapes to -inf
    // there is no anchor left and only stride 1 stays sound.
    r.stride = r.lo == kNegInf ? 1 : j.stride;
    return r.normalized();
}

StrideInterval
StrideInterval::meetCmp(const StrideInterval &a, CmpOp cmp,
                        std::int64_t rhs)
{
    if (a.empty())
        return a;
    StrideInterval r = a;
    switch (cmp) {
      case CmpOp::EQ:
        if (rhs < a.lo || rhs > a.hi)
            return kEmptyInterval;
        if (a.stride > 1 && !isInf(a.lo) &&
            absDist(rhs, a.lo) % a.stride != 0)
            return kEmptyInterval;
        return constant(rhs);
      case CmpOp::NE:
        if (a.singleton() && a.lo == rhs)
            return kEmptyInterval;
        if (a.lo == rhs && !isInf(a.lo))
            r.lo = satAdd(a.lo, a.stride ? std::int64_t(a.stride) : 1);
        if (a.hi == rhs && !isInf(a.hi))
            r.hi = satSub(a.hi, a.stride ? std::int64_t(a.stride) : 1);
        break;
      case CmpOp::LT:
        if (rhs == kNegInf)
            return kEmptyInterval;
        r.hi = std::min(r.hi, rhs - 1);
        break;
      case CmpOp::LE:
        r.hi = std::min(r.hi, rhs);
        break;
      case CmpOp::GT:
        if (rhs == kPosInf)
            return kEmptyInterval;
        r.lo = std::max(r.lo, rhs + 1);
        break;
      case CmpOp::GE:
        r.lo = std::max(r.lo, rhs);
        break;
    }
    return r.normalized();
}

// ------------------------------------------------------ affine domain

namespace {

/** Access width of every LD/ST/ATOM in this ISA. */
constexpr std::int64_t kAccessBytes = 8;

/** Cap on tracked footprint ranges: more falls back to unknown
 *  (conflict checks are pairwise over two launches' lists). */
constexpr std::size_t kMaxFootprintRanges = 16;

/** Cap on terms per abstract value before degrading to top. */
constexpr std::size_t kMaxTerms = 6;

/** One bit-sliced grid variable: coeff * ((var >> shift) & mask).
 *  mask is contiguous-from-zero (2^w - 1, or ~0 for "no mask"). */
struct Term
{
    enum class Var : std::uint8_t { Tid, Cta };
    Var var = Var::Tid;
    std::uint8_t shift = 0;
    std::uint64_t mask = ~std::uint64_t{0};
    std::int64_t coeff = 0;

    bool sameSlice(const Term &o) const
    {
        return var == o.var && shift == o.shift && mask == o.mask;
    }
    bool operator==(const Term &o) const
    {
        return sameSlice(o) && coeff == o.coeff;
    }
    bool
    sliceLess(const Term &o) const
    {
        if (var != o.var)
            return var < o.var;
        if (shift != o.shift)
            return shift < o.shift;
        return mask < o.mask;
    }
};

/** Abstract register value: sum of terms plus a stride-interval. */
struct AbsVal
{
    bool known = false;
    std::vector<Term> terms; ///< sorted by slice, no zero coeffs
    StrideInterval c = StrideInterval::constant(0);
};

AbsVal
top()
{
    return AbsVal{};
}

AbsVal
constant(std::int64_t v)
{
    AbsVal r;
    r.known = true;
    r.c = StrideInterval::constant(v);
    return r;
}

AbsVal
gridVar(Term::Var var)
{
    AbsVal r;
    r.known = true;
    r.terms.push_back(Term{var, 0, ~std::uint64_t{0}, 1});
    return r;
}

bool
isConstVal(const AbsVal &v)
{
    return v.known && v.terms.empty() && v.c.singleton();
}

bool
isPureInterval(const AbsVal &v)
{
    return v.known && v.terms.empty();
}

AbsVal
addVals(const AbsVal &a, const AbsVal &b)
{
    if (!a.known || !b.known)
        return top();
    AbsVal r;
    r.known = true;
    std::size_t i = 0, j = 0;
    while (i < a.terms.size() || j < b.terms.size()) {
        if (j == b.terms.size() ||
            (i < a.terms.size() && a.terms[i].sliceLess(b.terms[j]))) {
            r.terms.push_back(a.terms[i++]);
        } else if (i == a.terms.size() ||
                   b.terms[j].sliceLess(a.terms[i])) {
            r.terms.push_back(b.terms[j++]);
        } else {
            Term t = a.terms[i++];
            std::int64_t coeff;
            if (addOv(t.coeff, b.terms[j++].coeff, coeff))
                return top();
            t.coeff = coeff;
            if (t.coeff != 0)
                r.terms.push_back(t);
        }
    }
    if (r.terms.size() > kMaxTerms)
        return top();
    r.c = StrideInterval::add(a.c, b.c);
    if (r.c.empty())
        return top();
    return r;
}

AbsVal
mulValConst(const AbsVal &a, std::int64_t m)
{
    if (!a.known)
        return top();
    if (m == 0)
        return constant(0);
    AbsVal r;
    r.known = true;
    for (Term t : a.terms) {
        if (mulOv(t.coeff, m, t.coeff))
            return top();
        r.terms.push_back(t);
    }
    r.c = StrideInterval::mulConst(a.c, m);
    return r;
}

AbsVal
subVals(const AbsVal &a, const AbsVal &b)
{
    return addVals(a, mulValConst(b, -1));
}

AbsVal
mulVals(const AbsVal &a, const AbsVal &b)
{
    if (!a.known || !b.known)
        return top();
    if (isConstVal(a))
        return mulValConst(b, a.c.lo);
    if (isConstVal(b))
        return mulValConst(a, b.c.lo);
    return top();
}

AbsVal
shlVal(const AbsVal &a, std::int64_t k)
{
    if (k < 0 || k > 62)
        return top();
    return mulValConst(a, std::int64_t{1} << k);
}

AbsVal
shrVal(const AbsVal &a, std::int64_t k)
{
    if (!a.known || k < 0 || k > 63)
        return top();
    if (a.terms.empty()) {
        AbsVal r;
        r.known = true;
        r.c = StrideInterval::shrConst(a.c, unsigned(k));
        return r;
    }
    // (var >> s) >> k == var >> (s + k); masks shift along.
    if (a.terms.size() == 1 && a.terms[0].coeff == 1 &&
        a.c.singleton() && a.c.lo == 0) {
        Term t = a.terms[0];
        const unsigned s = t.shift + unsigned(k);
        if (s > 63)
            return constant(0);
        t.shift = static_cast<std::uint8_t>(s);
        t.mask = t.mask >> k;
        if (t.mask == 0)
            return constant(0);
        AbsVal r;
        r.known = true;
        r.terms.push_back(t);
        return r;
    }
    return top();
}

AbsVal
andVal(const AbsVal &a, std::int64_t mask)
{
    if (!a.known)
        return top();
    if (a.terms.empty()) {
        AbsVal r;
        r.known = true;
        r.c = StrideInterval::andConst(a.c, mask);
        return r;
    }
    const bool contiguous = mask > 0 && (mask & (mask + 1)) == 0;
    if (contiguous && a.terms.size() == 1 && a.terms[0].coeff == 1 &&
        a.c.singleton() && a.c.lo == 0) {
        Term t = a.terms[0];
        t.mask &= static_cast<std::uint64_t>(mask);
        if (t.mask == 0)
            return constant(0);
        AbsVal r;
        r.known = true;
        r.terms.push_back(t);
        return r;
    }
    return top();
}

AbsVal
joinVals(const AbsVal &a, const AbsVal &b)
{
    if (!a.known || !b.known)
        return top();
    if (a.terms != b.terms)
        return top();
    AbsVal r;
    r.known = true;
    r.terms = a.terms;
    r.c = StrideInterval::join(a.c, b.c);
    return r;
}

AbsVal
widenVals(const AbsVal &prev, const AbsVal &next)
{
    if (!prev.known || !next.known)
        return top();
    if (prev.terms != next.terms)
        return top();
    AbsVal r;
    r.known = true;
    r.terms = prev.terms;
    r.c = StrideInterval::widen(prev.c, next.c);
    return r;
}

bool
sameVal(const AbsVal &a, const AbsVal &b)
{
    if (a.known != b.known)
        return false;
    if (!a.known)
        return true;
    return a.terms == b.terms && a.c == b.c;
}

// ----------------------------------------------- per-block state

/** Register slot: value plus the guard tag of the writing
 *  instruction (block-local; cleared at block exit). A read under a
 *  mismatched guard sees a lane mixture and degrades to top. */
struct RegState
{
    AbsVal v;
    int tagPred = kNoReg;
    bool tagNeg = false;
};

/** `pred <=> (reg cmp rhs)`, established by an unguarded SETP whose
 *  rhs folded to a constant. Invalidated when reg is rewritten. */
struct PredFact
{
    bool valid = false;
    int reg = kNoReg;
    CmpOp cmp = CmpOp::EQ;
    std::int64_t rhs = 0;

    bool operator==(const PredFact &o) const
    {
        if (valid != o.valid)
            return false;
        if (!valid)
            return true;
        return reg == o.reg && cmp == o.cmp && rhs == o.rhs;
    }
};

struct BlockState
{
    bool reachable = false;
    std::array<RegState, kNumRegs> regs{};
    std::array<PredFact, kNumPreds> facts{};
};

bool
sameState(const BlockState &a, const BlockState &b)
{
    if (a.reachable != b.reachable)
        return false;
    for (int r = 0; r < kNumRegs; ++r) {
        if (!sameVal(a.regs[r].v, b.regs[r].v) ||
            a.regs[r].tagPred != b.regs[r].tagPred ||
            a.regs[r].tagNeg != b.regs[r].tagNeg)
            return false;
    }
    for (int p = 0; p < kNumPreds; ++p) {
        if (!(a.facts[p] == b.facts[p]))
            return false;
    }
    return true;
}

BlockState
joinStates(const BlockState &a, const BlockState &b, bool widening)
{
    if (!a.reachable)
        return b;
    if (!b.reachable)
        return a;
    BlockState r;
    r.reachable = true;
    for (int i = 0; i < kNumRegs; ++i) {
        // Tags are block-local; states arriving at a join carry none.
        r.regs[i].v = widening ? widenVals(a.regs[i].v, b.regs[i].v)
                               : joinVals(a.regs[i].v, b.regs[i].v);
    }
    for (int p = 0; p < kNumPreds; ++p) {
        if (a.facts[p] == b.facts[p])
            r.facts[p] = a.facts[p];
    }
    return r;
}

CmpOp
negateCmp(CmpOp cmp)
{
    switch (cmp) {
      case CmpOp::EQ: return CmpOp::NE;
      case CmpOp::NE: return CmpOp::EQ;
      case CmpOp::LT: return CmpOp::GE;
      case CmpOp::LE: return CmpOp::GT;
      case CmpOp::GT: return CmpOp::LE;
      case CmpOp::GE: return CmpOp::LT;
    }
    return CmpOp::EQ;
}

// ------------------------------------------------------ the analyzer

/** One recorded global-space access site. */
struct GlobalAccess
{
    AbsVal addr;
    bool isStore = false;
    bool isAtomic = false;
    std::uint32_t pc = 0;

    /**
     * Guard constraint: the access only executes on lanes where
     * `guardTerms + guardC cmp rhs` holds (captured from the access
     * instruction's predicate fact). Used to tighten the grid range
     * when the address is a positive scalar multiple of the guarded
     * value — the `@p0 ld [base + 8*gid]` with `p0 = gid < n` idiom.
     */
    bool guarded = false;
    std::vector<Term> guardTerms;
    StrideInterval guardC = StrideInterval::constant(0);
    CmpOp guardCmp = CmpOp::LT;
    std::int64_t guardRhs = 0;
};

class Analyzer
{
  public:
    Analyzer(const Kernel &kernel, unsigned num_blocks,
             unsigned threads_per_block,
             const std::array<RegValue, kMaxParams> &params)
        : kernel_(kernel), numBlocks_(num_blocks),
          threadsPerBlock_(threads_per_block), params_(params),
          tidMax_(threads_per_block ? threads_per_block - 1 : 0),
          ctaMax_(num_blocks ? num_blocks - 1 : 0)
    {
    }

    SmParallelVerdict run();

  private:
    /** Max value a term's digit can take over the whole grid. */
    std::int64_t
    digitMax(const Term &t) const
    {
        const std::uint64_t var_max =
            t.var == Term::Var::Tid ? tidMax_ : ctaMax_;
        const std::uint64_t raw = var_max >> t.shift;
        const std::uint64_t m = std::min<std::uint64_t>(raw, t.mask);
        return m > std::uint64_t(kPosInf) ? kPosInf
                                          : std::int64_t(m);
    }

    /** Whole-grid [lo, hi) byte range of an access (sentinel bounds
     *  when any product/sum leaves int64). */
    FootprintRange
    gridRange(const GlobalAccess &a, bool cta_at_zero = false) const
    {
        const AbsVal &addr = a.addr;
        std::int64_t lo = addr.c.lo;
        std::int64_t hi = satAdd(addr.c.hi, kAccessBytes);
        for (const Term &t : addr.terms) {
            if (cta_at_zero && t.var == Term::Var::Cta)
                continue;
            const std::int64_t ext = satMul(t.coeff, digitMax(t));
            if (t.coeff >= 0)
                hi = satAdd(hi, ext);
            else
                lo = satAdd(lo, ext);
        }

        // Guard refinement: when the address terms are a positive
        // scalar multiple m of the guard value's terms, the guard
        // bounds the whole term sum. For `terms + c cmp K` a lane can
        // only reach terms <= K' - c.lo (upper guards) or
        // terms >= K' - c.hi (lower guards), so the address stays
        // within m * bound + addr.c + access width.
        if (!cta_at_zero && a.guarded && !a.guardTerms.empty() &&
            addr.known && addr.terms.size() == a.guardTerms.size()) {
            std::int64_t m = 0;
            bool ok = true;
            for (std::size_t i = 0; i < addr.terms.size(); ++i) {
                const Term &at = addr.terms[i];
                const Term &gt = a.guardTerms[i];
                if (!at.sameSlice(gt) || gt.coeff == 0 ||
                    at.coeff % gt.coeff != 0) {
                    ok = false;
                    break;
                }
                const std::int64_t ratio = at.coeff / gt.coeff;
                if (ratio <= 0 || (m != 0 && ratio != m)) {
                    ok = false;
                    break;
                }
                m = ratio;
            }
            if (ok && m > 0) {
                const bool upper = a.guardCmp == CmpOp::LT ||
                                   a.guardCmp == CmpOp::LE ||
                                   a.guardCmp == CmpOp::EQ;
                const bool lower = a.guardCmp == CmpOp::GT ||
                                   a.guardCmp == CmpOp::GE ||
                                   a.guardCmp == CmpOp::EQ;
                if (upper) {
                    std::int64_t bound = a.guardRhs;
                    if (a.guardCmp == CmpOp::LT)
                        bound = satSub(bound, 1);
                    bound = satSub(bound, a.guardC.lo);
                    const std::int64_t hi2 = satAdd(
                        satAdd(satMul(m, bound), addr.c.hi),
                        kAccessBytes);
                    hi = std::min(hi, hi2);
                }
                if (lower) {
                    std::int64_t bound = a.guardRhs;
                    if (a.guardCmp == CmpOp::GT)
                        bound = satAdd(bound, 1);
                    bound = satSub(bound, a.guardC.hi);
                    const std::int64_t lo2 =
                        satAdd(satMul(m, bound), addr.c.lo);
                    lo = std::max(lo, lo2);
                }
                if (lo > hi)
                    hi = lo; // guard proves the access never fires
            }
        }
        return FootprintRange{lo, hi, false, false};
    }

    bool crossBlockDisjoint(const GlobalAccess &a,
                            const GlobalAccess &b) const;
    bool digitRuleDisjoint(const GlobalAccess &a,
                           const GlobalAccess &b) const;

    AbsVal readReg(const BlockState &state, int reg,
                   const Instruction &inst) const
    {
        if (reg < 0 || reg >= kNumRegs)
            return top();
        const RegState &rs = state.regs[reg];
        if (rs.tagPred != kNoReg &&
            (inst.pred != rs.tagPred || inst.predNeg != rs.tagNeg))
            return top();
        return rs.v;
    }

    void
    writeReg(BlockState &state, const Instruction &inst, AbsVal v) const
    {
        if (inst.dst == kNoReg)
            return;
        RegState &rs = state.regs[inst.dst];
        rs.v = std::move(v);
        rs.tagPred = inst.pred;
        rs.tagNeg = inst.predNeg;
        for (PredFact &f : state.facts) {
            if (f.valid && f.reg == inst.dst)
                f.valid = false;
        }
    }

    AbsVal
    operandB(const BlockState &state, const Instruction &inst) const
    {
        if (inst.useImm)
            return constant(inst.imm);
        return readReg(state, inst.srcB, inst);
    }

    /** Interpret one block; optionally record global accesses. */
    BlockState transferBlock(std::uint32_t block, BlockState state,
                             std::vector<GlobalAccess> *record) const;

    /** Refine @p state along a branch edge where pred @p p is
     *  @p truth. Returns false if the edge is unreachable. */
    bool refineEdge(BlockState &state, int p, bool truth) const;

    const Kernel &kernel_;
    unsigned numBlocks_;
    unsigned threadsPerBlock_;
    const std::array<RegValue, kMaxParams> &params_;
    std::uint64_t tidMax_;
    std::uint64_t ctaMax_;

    Cfg cfg_;
};

BlockState
Analyzer::transferBlock(std::uint32_t block, BlockState state,
                        std::vector<GlobalAccess> *record) const
{
    const CfgBlock &bb = cfg_.blocks[block];
    for (std::uint32_t pc = bb.first; pc <= bb.last; ++pc) {
        const Instruction &inst = kernel_.code[pc];

        if (inst.isMemory() && inst.space == MemSpace::Global &&
            record) {
            GlobalAccess access;
            access.addr = addVals(readReg(state, inst.srcA, inst),
                                  constant(inst.imm));
            access.isStore = inst.isStore();
            access.isAtomic = inst.isAtomic();
            access.pc = pc;
            if (inst.pred >= 0 && inst.pred < kNumPreds &&
                state.facts[inst.pred].valid) {
                const PredFact &fact = state.facts[inst.pred];
                const RegState &src = state.regs[fact.reg];
                if (src.tagPred == kNoReg && src.v.known &&
                    !src.v.c.empty()) {
                    access.guarded = true;
                    access.guardTerms = src.v.terms;
                    access.guardC = src.v.c;
                    access.guardCmp = inst.predNeg
                                          ? negateCmp(fact.cmp)
                                          : fact.cmp;
                    access.guardRhs = fact.rhs;
                }
            }
            record->push_back(std::move(access));
        }

        switch (inst.op) {
          case Opcode::MOV:
            if (inst.param != kNoReg)
                writeReg(state, inst,
                         constant(std::int64_t(params_[inst.param])));
            else if (inst.useImm)
                writeReg(state, inst, constant(inst.imm));
            else
                writeReg(state, inst, readReg(state, inst.srcA, inst));
            break;
          case Opcode::S2R:
            switch (inst.sreg) {
              case SpecialReg::Tid:
                writeReg(state, inst, gridVar(Term::Var::Tid));
                break;
              case SpecialReg::Ctaid:
                writeReg(state, inst, gridVar(Term::Var::Cta));
                break;
              case SpecialReg::Ntid:
                writeReg(state, inst, constant(threadsPerBlock_));
                break;
              case SpecialReg::Nctaid:
                writeReg(state, inst, constant(numBlocks_));
                break;
              case SpecialReg::LaneId:
                // Warps are formed from consecutive tids.
                writeReg(state, inst,
                         andVal(gridVar(Term::Var::Tid), 31));
                break;
              case SpecialReg::WarpId:
                writeReg(state, inst,
                         shrVal(gridVar(Term::Var::Tid), 5));
                break;
              default: // SmId: dispatch-schedule dependent.
                writeReg(state, inst, top());
            }
            break;
          case Opcode::IADD:
            writeReg(state, inst,
                     addVals(readReg(state, inst.srcA, inst),
                             operandB(state, inst)));
            break;
          case Opcode::ISUB:
            writeReg(state, inst,
                     subVals(readReg(state, inst.srcA, inst),
                             operandB(state, inst)));
            break;
          case Opcode::IMUL:
            writeReg(state, inst,
                     mulVals(readReg(state, inst.srcA, inst),
                             operandB(state, inst)));
            break;
          case Opcode::IMAD:
            writeReg(state, inst,
                     addVals(mulVals(readReg(state, inst.srcA, inst),
                                     operandB(state, inst)),
                             readReg(state, inst.srcC, inst)));
            break;
          case Opcode::SHL: {
            const AbsVal sh = operandB(state, inst);
            writeReg(state, inst,
                     isConstVal(sh)
                         ? shlVal(readReg(state, inst.srcA, inst),
                                  sh.c.lo)
                         : top());
            break;
          }
          case Opcode::SHR: {
            const AbsVal sh = operandB(state, inst);
            writeReg(state, inst,
                     isConstVal(sh) && sh.c.lo >= 0 && sh.c.lo <= 63
                         ? shrVal(readReg(state, inst.srcA, inst),
                                  sh.c.lo)
                         : top());
            break;
          }
          case Opcode::AND: {
            const AbsVal a = readReg(state, inst.srcA, inst);
            const AbsVal b = operandB(state, inst);
            if (isConstVal(b))
                writeReg(state, inst, andVal(a, b.c.lo));
            else if (isConstVal(a))
                writeReg(state, inst, andVal(b, a.c.lo));
            else
                writeReg(state, inst, top());
            break;
          }
          case Opcode::IMIN:
          case Opcode::IMAX: {
            const AbsVal a = readReg(state, inst.srcA, inst);
            const AbsVal b = operandB(state, inst);
            if (isPureInterval(a) && isPureInterval(b)) {
                StrideInterval c;
                if (inst.op == Opcode::IMIN) {
                    c.lo = std::min(a.c.lo, b.c.lo);
                    c.hi = std::min(a.c.hi, b.c.hi);
                } else {
                    c.lo = std::max(a.c.lo, b.c.lo);
                    c.hi = std::max(a.c.hi, b.c.hi);
                }
                c.stride = c.lo == c.hi ? 0 : 1;
                AbsVal r;
                r.known = true;
                r.c = c.normalized();
                writeReg(state, inst, r);
            } else {
                writeReg(state, inst, top());
            }
            break;
          }
          case Opcode::SETP: {
            PredFact fact;
            const AbsVal rhs = operandB(state, inst);
            if (inst.pred == kNoReg && inst.srcA != kNoReg &&
                state.regs[inst.srcA].tagPred == kNoReg &&
                isConstVal(rhs)) {
                fact.valid = true;
                fact.reg = inst.srcA;
                fact.cmp = inst.cmp;
                fact.rhs = rhs.c.lo;
            }
            if (inst.predDst >= 0 && inst.predDst < kNumPreds)
                state.facts[inst.predDst] = fact;
            break;
          }
          case Opcode::LD:
          case Opcode::ATOM:
          case Opcode::CLOCK:
            writeReg(state, inst, top());
            break;
          case Opcode::NOP:
          case Opcode::EXIT:
          case Opcode::BAR:
          case Opcode::BRA:
          case Opcode::ST:
            break;
          default:
            // FP ops, OR/XOR and anything else the domain cannot
            // track: the destination becomes unknown.
            writeReg(state, inst, top());
        }
    }

    // Guard tags are block-local: a tagged value is a per-lane
    // mixture of old and new, which the next block cannot tell apart
    // (and carrying versioned tags through the fixpoint would keep
    // out-states unstable). Drop them to top at block exit.
    for (RegState &rs : state.regs) {
        if (rs.tagPred != kNoReg) {
            rs.v = top();
            rs.tagPred = kNoReg;
            rs.tagNeg = false;
        }
    }
    return state;
}

bool
Analyzer::refineEdge(BlockState &state, int p, bool truth) const
{
    if (p < 0 || p >= kNumPreds)
        return true;
    const PredFact &fact = state.facts[p];
    if (!fact.valid)
        return true;
    RegState &rs = state.regs[fact.reg];
    if (!rs.v.known || rs.v.c.empty())
        return true;
    const CmpOp cmp = truth ? fact.cmp : negateCmp(fact.cmp);

    // Lanes on this edge satisfy `terms(lane) + c cmp rhs`. Shift
    // the bound through the term extremes: c < K - min(terms), etc.
    std::int64_t term_min = 0;
    std::int64_t term_max = 0;
    for (const Term &t : rs.v.terms) {
        const std::int64_t ext = satMul(t.coeff, digitMax(t));
        if (t.coeff >= 0)
            term_max = satAdd(term_max, ext);
        else
            term_min = satAdd(term_min, ext);
    }
    std::int64_t rhs = fact.rhs;
    switch (cmp) {
      case CmpOp::LT:
      case CmpOp::LE:
        rhs = satSub(rhs, term_min);
        break;
      case CmpOp::GT:
      case CmpOp::GE:
        rhs = satSub(rhs, term_max);
        break;
      case CmpOp::EQ:
      case CmpOp::NE:
        // Exact facts only transfer when the value is term-free.
        if (!rs.v.terms.empty())
            return true;
        break;
    }
    if (isInf(rhs))
        return true;
    const StrideInterval met = StrideInterval::meetCmp(rs.v.c, cmp,
                                                       rhs);
    if (met.empty())
        return false; // edge can carry no lanes
    rs.v.c = met;
    return true;
}

bool
Analyzer::digitRuleDisjoint(const GlobalAccess &a,
                            const GlobalAccess &b) const
{
    // Identical term structure is what makes the two addresses the
    // same digit function.
    if (a.addr.terms != b.addr.terms)
        return false;
    const StrideInterval &ca = a.addr.c;
    const StrideInterval &cb = b.addr.c;
    if (ca.empty() || cb.empty())
        return true;
    if (!ca.bounded() || !cb.bounded())
        return false;

    // Fold both constant parts into one shared digit on the gcd grid.
    const std::uint64_t g =
        gcdU(gcdU(ca.stride, cb.stride), absDist(ca.lo, cb.lo));
    const std::int64_t c_lo = std::min(ca.lo, cb.lo);
    const std::int64_t c_hi = std::max(ca.hi, cb.hi);
    std::int64_t c_span;
    if (__builtin_sub_overflow(c_hi, c_lo, &c_span))
        return false;

    struct Digit
    {
        std::int64_t coeff;
        std::int64_t max;
    };
    std::vector<Digit> digits;
    digits.push_back({1, kAccessBytes - 1});
    if (g != 0) {
        if (g > std::uint64_t(kPosInf))
            return false;
        digits.push_back({std::int64_t(g), c_span / std::int64_t(g)});
    }
    bool cta_bits[64] = {false};
    bool has_cta_term = false;
    for (const Term &t : a.addr.terms) {
        std::int64_t coeff = t.coeff;
        if (coeff == kNegInf)
            return false;
        coeff = coeff < 0 ? -coeff : coeff;
        digits.push_back({coeff, digitMax(t)});
        if (t.var == Term::Var::Cta) {
            has_cta_term = true;
            const unsigned width =
                t.mask == ~std::uint64_t{0}
                    ? 64u - t.shift
                    : unsigned(std::popcount(t.mask));
            for (unsigned b2 = t.shift;
                 b2 < std::min(64u, t.shift + width); ++b2)
                cta_bits[b2] = true;
        }
    }
    std::sort(digits.begin(), digits.end(),
              [](const Digit &x, const Digit &y) {
                  return x.coeff < y.coeff;
              });

    // Mixed-radix nesting: each coefficient must exceed the maximum
    // value representable by all lower digits, so a byte address
    // determines every digit uniquely.
    std::int64_t cum = 0;
    for (const Digit &d : digits) {
        if (d.coeff <= cum)
            return false;
        std::int64_t ext;
        if (mulOv(d.coeff, d.max, ext))
            return false;
        if (addOv(cum, ext, cum))
            return false;
    }

    // Equal digits must force equal blocks: the cta slices together
    // must cover every bit a ctaid below numBlocks can set.
    if (!has_cta_term)
        return false;
    for (unsigned bit = 0; bit < 64; ++bit) {
        if ((ctaMax_ >> bit) == 0)
            break;
        if (!cta_bits[bit])
            return false;
    }
    return true;
}

bool
Analyzer::crossBlockDisjoint(const GlobalAccess &a,
                             const GlobalAccess &b) const
{
    if (numBlocks_ <= 1)
        return true;
    const FootprintRange ra = gridRange(a);
    const FootprintRange rb = gridRange(b);
    const bool bounded = ra.lo != kNegInf && ra.hi != kPosInf &&
                         rb.lo != kNegInf && rb.hi != kPosInf;
    if (bounded && (ra.hi <= rb.lo || rb.hi <= ra.lo))
        return true;
    return digitRuleDisjoint(a, b);
}

std::string
formatInterval(const StrideInterval &c)
{
    if (c.singleton())
        return std::to_string(c.lo);
    std::ostringstream os;
    os << "[";
    if (c.lo == kNegInf)
        os << "-inf";
    else
        os << c.lo;
    os << "..";
    if (c.hi == kPosInf)
        os << "+inf";
    else
        os << c.hi;
    if (c.stride > 1)
        os << " step " << c.stride;
    os << "]";
    return os.str();
}

std::string
formatForm(const AbsVal &addr)
{
    if (!addr.known)
        return "(unknown)";
    std::ostringstream os;
    bool first = true;
    for (const Term &t : addr.terms) {
        if (!first)
            os << " + ";
        first = false;
        if (t.coeff != 1)
            os << t.coeff << "*";
        const char *var = t.var == Term::Var::Tid ? "tid" : "ctaid";
        // A mask of all remaining bits after the shift is just the
        // shift (the `~0 >> k` slices shrVal produces).
        const bool masked =
            t.mask != (~std::uint64_t{0} >> t.shift);
        if (t.shift == 0 && !masked) {
            os << var;
        } else if (t.shift == 0) {
            os << "(" << var << "&" << t.mask << ")";
        } else if (!masked) {
            os << "(" << var << ">>" << unsigned(t.shift) << ")";
        } else {
            os << "((" << var << ">>" << unsigned(t.shift) << ")&"
               << t.mask << ")";
        }
    }
    if (!first)
        os << " + ";
    os << formatInterval(addr.c);
    return os.str();
}

SmParallelVerdict
Analyzer::run()
{
    SmParallelVerdict v;
    const bool single_block = numBlocks_ <= 1;

    cfg_ = Cfg::build(kernel_.code);
    v.cfgBlocks = static_cast<unsigned>(cfg_.blocks.size());
    v.loopHeads = cfg_.numLoopHeads;
    {
        std::ostringstream os;
        os << "cfg: " << v.cfgBlocks << " block(s), " << v.loopHeads
           << " loop head(s)";
        v.reasonChain.push_back(os.str());
    }

    const auto finishUnsafe = [&](std::string reason) {
        v.safe = single_block;
        v.reason = single_block ? "single block occupies one SM"
                                : reason;
        v.reasonChain.push_back("blocking: " + reason);
        if (single_block)
            v.reasonChain.push_back(
                "verdict: safe (single block occupies one SM)");
        else
            v.reasonChain.push_back("verdict: serialized");
        return v;
    };

    if (cfg_.blocks.empty()) {
        v.safe = true;
        v.reason = "store-free global footprint";
        v.hasStore = false;
        v.footprintKnown = true;
        v.reasonChain.push_back("verdict: safe (empty kernel)");
        return v;
    }

    // Worklist fixpoint over the CFG in reverse post-order, widening
    // at loop heads once a head has been merged into twice.
    std::vector<BlockState> in(cfg_.blocks.size());
    std::vector<unsigned> merges(cfg_.blocks.size(), 0);
    in[0].reachable = true;
    std::set<std::uint32_t> worklist; // rpo indices
    worklist.insert(0);

    const unsigned cap =
        1000 + 50 * static_cast<unsigned>(cfg_.blocks.size());
    unsigned iterations = 0;
    bool converged = true;
    while (!worklist.empty()) {
        if (++iterations > cap) {
            converged = false;
            break;
        }
        const std::uint32_t block = cfg_.rpo[*worklist.begin()];
        worklist.erase(worklist.begin());

        const BlockState out = transferBlock(block, in[block], nullptr);
        const CfgBlock &bb = cfg_.blocks[block];
        const Instruction &term = kernel_.code[bb.last];
        const bool branch = term.isBranch() && term.pred != kNoReg;

        for (std::size_t s = 0; s < bb.succs.size(); ++s) {
            const std::uint32_t succ = bb.succs[s];
            BlockState edge = out;
            if (branch) {
                // succs[0] is the taken edge, succs[1] fall-through.
                const bool taken = s == 0;
                const bool truth = taken != term.predNeg;
                if (!refineEdge(edge, term.pred, truth))
                    continue; // refinement proved the edge dead
            }
            const bool widening =
                cfg_.blocks[succ].loopHead && merges[succ] >= 2;
            BlockState merged = joinStates(in[succ], edge, widening);
            ++merges[succ];
            if (!sameState(merged, in[succ])) {
                in[succ] = std::move(merged);
                if (cfg_.rpoIndex[succ] < cfg_.rpo.size())
                    worklist.insert(cfg_.rpoIndex[succ]);
            }
        }
    }
    v.fixpointIterations = iterations;
    {
        std::ostringstream os;
        os << "fixpoint: " << (converged ? "converged" : "DIVERGED")
           << " after " << iterations << " block transfer(s)";
        v.reasonChain.push_back(os.str());
    }
    if (!converged)
        return finishUnsafe("fixpoint did not converge");

    // Collection pass: re-run each reachable block against its fixed
    // in-state, recording every global access.
    std::vector<GlobalAccess> accesses;
    for (const std::uint32_t block : cfg_.rpo) {
        if (in[block].reachable)
            transferBlock(block, in[block], &accesses);
    }

    bool have_store = false;   // non-atomic global stores
    unsigned num_atomics = 0;
    for (const GlobalAccess &a : accesses) {
        have_store |= a.isStore;
        num_atomics += a.isAtomic ? 1 : 0;

        AccessFootprint fp;
        fp.pc = a.pc;
        fp.store = a.isStore;
        fp.atomic = a.isAtomic;
        fp.affine = a.addr.known;
        fp.form = formatForm(a.addr);
        if (a.addr.known) {
            const FootprintRange grid = gridRange(a);
            const FootprintRange blk = gridRange(a, true);
            fp.gridLo = grid.lo;
            fp.gridHi = grid.hi;
            fp.blockLo = blk.lo;
            fp.blockHi = blk.hi;
        }
        v.accesses.push_back(std::move(fp));
    }
    v.hasStore = have_store;
    v.atomicsForwarded = num_atomics > 0;
    if (num_atomics > 0) {
        std::ostringstream os;
        os << "atomics: " << num_atomics
           << " site(s) forwarded to the owning partition's tick "
              "(schedule-invariant)";
        v.reasonChain.push_back(os.str());
    }

    // The whole-grid footprint for cross-launch composition: known
    // only when every non-atomic access has an affine address (a
    // non-affine load is fine for *intra*-launch safety of a
    // store-free kernel, but its reach across another launch's
    // stores cannot be bounded). Forwarded atomics are excluded:
    // their functional execution is schedule-invariant either way.
    const auto fillFootprint = [&]() {
        std::size_t tracked = 0;
        bool known = true;
        for (const GlobalAccess &a : accesses) {
            if (a.isAtomic)
                continue;
            ++tracked;
            known &= a.addr.known;
        }
        v.footprintKnown = known && tracked <= kMaxFootprintRanges;
        if (!v.footprintKnown) {
            v.footprint.clear();
            return;
        }
        for (const GlobalAccess &a : accesses) {
            if (a.isAtomic)
                continue;
            FootprintRange r = gridRange(a);
            r.store = a.isStore;
            v.footprint.push_back(r);
        }
    };
    fillFootprint();

    // Intra-launch safety: every pair of non-atomic accesses with at
    // least one store must be provably cross-block disjoint.
    std::string blocking;
    for (const GlobalAccess &a : accesses) {
        if (a.isAtomic)
            continue;
        if (a.isStore && !a.addr.known) {
            blocking = "non-affine store address at pc " +
                       std::to_string(a.pc);
            break;
        }
        if (!a.isStore && !a.addr.known && have_store) {
            blocking = "non-affine load with live stores at pc " +
                       std::to_string(a.pc);
            break;
        }
    }
    if (blocking.empty() && have_store && !single_block) {
        for (std::size_t i = 0;
             i < accesses.size() && blocking.empty(); ++i) {
            for (std::size_t j = i; j < accesses.size(); ++j) {
                const GlobalAccess &a = accesses[i];
                const GlobalAccess &b = accesses[j];
                if (a.isAtomic || b.isAtomic)
                    continue;
                if (!a.isStore && !b.isStore)
                    continue; // load/load pairs never race
                if (!crossBlockDisjoint(a, b)) {
                    blocking =
                        "possible cross-block overlap between pc " +
                        std::to_string(a.pc) + " and pc " +
                        std::to_string(b.pc);
                    break;
                }
            }
        }
    }

    if (!blocking.empty())
        return finishUnsafe(blocking);

    v.safe = true;
    if (single_block) {
        v.reason = "single block occupies one SM";
    } else if (!have_store) {
        v.reason = "store-free global footprint";
    } else {
        v.reason = "affine cross-block-disjoint global footprint";
    }
    v.reasonChain.push_back("verdict: safe (" + v.reason + ")");
    return v;
}

} // namespace

SmParallelVerdict
analyzeSmParallelSafety(const Kernel &kernel, unsigned num_blocks,
                        unsigned threads_per_block,
                        const std::array<RegValue, kMaxParams> &params)
{
    Analyzer analyzer(kernel, num_blocks, threads_per_block, params);
    return analyzer.run();
}

bool
launchesMayConflict(const SmParallelVerdict &a,
                    const SmParallelVerdict &b)
{
    if (!a.hasStore && !b.hasStore)
        return false;
    if (!a.footprintKnown || !b.footprintKnown)
        return true;
    for (const FootprintRange &ra : a.footprint) {
        for (const FootprintRange &rb : b.footprint) {
            if (ra.atomic || rb.atomic)
                continue; // forwarded: schedule-invariant anyway
            if (!ra.store && !rb.store)
                continue;
            if (ra.lo < rb.hi && rb.lo < ra.hi)
                return true;
        }
    }
    return false;
}

} // namespace gpulat
