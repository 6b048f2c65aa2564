#include "simt/coalescer.hh"

#include <algorithm>
#include <bit>

#include "common/log.hh"

namespace gpulat {

std::vector<Transaction>
coalesce(const std::array<Addr, kWarpSize> &addrs, LaneMask active,
         std::uint32_t line_bytes)
{
    GPULAT_ASSERT(line_bytes > 0 && (line_bytes & (line_bytes - 1)) == 0,
                  "line size must be a power of two");
    std::vector<Transaction> txns;
    for (unsigned lane = 0; lane < kWarpSize; ++lane) {
        if (!(active >> lane & 1))
            continue;
        const Addr line = addrs[lane] & ~static_cast<Addr>(line_bytes - 1);
        auto it = std::find_if(txns.begin(), txns.end(),
                               [line](const Transaction &t) {
                                   return t.lineAddr == line;
                               });
        if (it == txns.end())
            txns.push_back(Transaction{line, 1u << lane});
        else
            it->lanes |= 1u << lane;
    }
    return txns;
}

unsigned
bankConflictDegree(const std::array<Addr, kWarpSize> &addrs,
                   LaneMask active, unsigned banks)
{
    GPULAT_ASSERT(banks > 0, "need at least one bank");
    // Distinct 8-byte words first (lanes sharing a word are one
    // broadcast access), then the most of them that share a bank.
    std::array<Addr, kWarpSize> words{};
    unsigned n = 0;
    for (LaneMask m = active; m != 0; m &= m - 1) {
        const Addr word = addrs[std::countr_zero(m)] / 8;
        if (std::find(words.begin(), words.begin() + n, word) ==
            words.begin() + n)
            words[n++] = word;
    }
    std::array<Addr, kWarpSize> bank{};
    for (unsigned i = 0; i < n; ++i)
        bank[i] = words[i] % banks;
    std::sort(bank.begin(), bank.begin() + n);
    unsigned worst = 0;
    unsigned run = 0;
    for (unsigned i = 0; i < n; ++i) {
        run = i > 0 && bank[i] == bank[i - 1] ? run + 1 : 1;
        worst = std::max(worst, run);
    }
    return worst;
}

} // namespace gpulat
