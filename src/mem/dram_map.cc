#include "mem/dram_map.hh"

#include "common/log.hh"

namespace gpulat {

const char *
toString(DramAddrMap map)
{
    switch (map) {
      case DramAddrMap::Row: return "row";
      case DramAddrMap::BankGroup: return "bg";
      case DramAddrMap::Xor: return "xor";
    }
    return "?";
}

const char *
toString(DramPagePolicy page)
{
    switch (page) {
      case DramPagePolicy::Open: return "open";
      case DramPagePolicy::Closed: return "closed";
    }
    return "?";
}

DramCoord
mapDramAddress(const DramGeometry &geom, Addr line_addr)
{
    GPULAT_ASSERT(geom.banks > 0 && geom.ranks > 0 &&
                  geom.bankGroups > 0 && geom.rowBytes > 0,
                  "bad DRAM geometry");
    GPULAT_ASSERT(geom.banks % geom.bankGroups == 0,
                  "bankGroups (", geom.bankGroups,
                  ") must divide banks (", geom.banks, ")");

    const unsigned total = geom.ranks * geom.banks;
    const std::uint64_t linear = line_addr / geom.rowBytes;

    DramCoord c;
    c.row = linear / total;
    c.flatBank = static_cast<unsigned>(linear % total);

    if (geom.map == DramAddrMap::Xor) {
        // Permute the bank per row so a power-of-two row stride
        // (pchase ladders, matrix columns) doesn't pin one bank.
        // Power-of-two bank counts use a cheap XOR fold; others an
        // additive rotation — both are bijective per row.
        if ((total & (total - 1)) == 0) {
            c.flatBank = static_cast<unsigned>(
                (c.flatBank ^ c.row) & (total - 1));
        } else {
            c.flatBank = static_cast<unsigned>(
                (c.flatBank + c.row % total) % total);
        }
    }

    c.rank = c.flatBank / geom.banks;
    c.bankInRank = c.flatBank % geom.banks;

    const unsigned per_group = geom.banks / geom.bankGroups;
    if (geom.map == DramAddrMap::BankGroup) {
        // Group-fastest renumbering: adjacent bank indices sit in
        // different groups, so a streaming sweep pays the cheap
        // cross-group tRRD_S between activates.
        c.group = c.bankInRank % geom.bankGroups;
    } else {
        // Contiguous runs of banks share a group: a streaming sweep
        // issues per_group same-group activates (tRRD_L) before it
        // reaches the next group.
        c.group = c.bankInRank / per_group;
    }
    return c;
}

} // namespace gpulat
