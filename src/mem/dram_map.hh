/**
 * @file
 * Pluggable DRAM address mapping: line address -> (rank, bank
 * group, bank, row).
 *
 * The mapping decides which banks a streaming access pattern
 * exercises and therefore which activate-to-activate timing rules
 * (tRRD_S across bank groups vs the slower tRRD_L inside one) it
 * pays — making the map a first-class ablation axis for the
 * paper-style latency breakdown. The `Row` map reproduces the
 * original flat model's bankOf()/rowOf() arithmetic bit-for-bit.
 */

#ifndef GPULAT_MEM_DRAM_MAP_HH
#define GPULAT_MEM_DRAM_MAP_HH

#include <cstdint>

#include "common/spelling.hh"
#include "common/types.hh"

namespace gpulat {

/** Line address -> bank placement policy. */
enum class DramAddrMap : std::uint8_t {
    Row,       ///< row-interleave: consecutive rows walk banks of
               ///< one bank group before moving to the next group
    BankGroup, ///< bank-group-interleave: consecutive rows alternate
               ///< bank groups (exploits the faster tRRD_S)
    Xor,       ///< Row placement with the bank index XOR-hashed by
               ///< the row, breaking power-of-two stride conflicts
};

/** Row-buffer management after a column access. */
enum class DramPagePolicy : std::uint8_t {
    Open,   ///< leave the row open (bet on locality)
    Closed, ///< auto-precharge after every access
};

/** `mem.dram.map` spellings. */
inline constexpr Spelling<DramAddrMap> kDramAddrMapSpellings[] = {
    {"row", DramAddrMap::Row},
    {"bg", DramAddrMap::BankGroup},
    {"xor", DramAddrMap::Xor},
};

/** `mem.dram.pagePolicy` spellings. */
inline constexpr Spelling<DramPagePolicy> kDramPagePolicySpellings[] = {
    {"open", DramPagePolicy::Open},
    {"closed", DramPagePolicy::Closed},
};

inline const char *
toString(DramAddrMap map)
{
    return spell(kDramAddrMapSpellings, map);
}

inline const char *
toString(DramPagePolicy page)
{
    return spell(kDramPagePolicySpellings, page);
}

/** Everything the mapper needs to know about the channel shape. */
struct DramGeometry
{
    unsigned banks = 8;      ///< banks per rank
    unsigned bankGroups = 4; ///< bank groups per rank (divides banks)
    unsigned ranks = 1;
    std::uint64_t rowBytes = 2048;
    DramAddrMap map = DramAddrMap::Row;
};

/** Where a line address lands inside the channel. */
struct DramCoord
{
    unsigned flatBank = 0;   ///< rank * banks + bankInRank
    unsigned rank = 0;
    unsigned bankInRank = 0;
    unsigned group = 0;      ///< bank group within the rank
    std::uint64_t row = 0;
};

/**
 * Map a line address. For every map policy, flatBank and row agree
 * with the original flat model's bankOf()/rowOf() when map == Row
 * (the group/rank decomposition merely annotates the same bank
 * index); Xor permutes the bank index per row; BankGroup keeps the
 * Row bank index but renumbers which group each bank belongs to.
 */
DramCoord mapDramAddress(const DramGeometry &geom, Addr line_addr);

} // namespace gpulat

#endif // GPULAT_MEM_DRAM_MAP_HH
