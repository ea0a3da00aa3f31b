/**
 * @file
 * Linear channel address <-> DRAM coordinate mapping.
 *
 * Layout is Row : BankGroup : Bank : Column : BurstOffset, so
 * consecutive 64 B bursts stay inside the open row (open-page
 * friendly) and successive rows rotate across bank groups.
 */

#ifndef NVDIMMC_DRAM_ADDRESS_MAP_HH
#define NVDIMMC_DRAM_ADDRESS_MAP_HH

#include <cstdint>

#include "common/types.hh"

namespace nvdimmc::dram
{

/** Coordinates of one 64 B burst inside a rank. */
struct DramCoord
{
    std::uint8_t bankGroup = 0;
    std::uint8_t bank = 0;
    std::uint32_t row = 0;
    std::uint32_t col = 0; ///< Column address in burst (64 B) units.

    bool operator==(const DramCoord&) const = default;
};

/** Geometry of one rank and the derived address mapping. */
class AddressMap
{
  public:
    static constexpr std::uint32_t kBurstBytes = 64;
    static constexpr unsigned kBurstShift = 6; ///< log2(kBurstBytes)

    /**
     * @param capacity_bytes total rank capacity; must be a power of
     *        two multiple of rowBytes * banks.
     * @param row_bytes bytes per row (page size), default 8 KiB.
     */
    explicit AddressMap(std::uint64_t capacity_bytes,
                        std::uint32_t row_bytes = 8192,
                        std::uint8_t bank_groups = 4,
                        std::uint8_t banks_per_group = 4);

    std::uint64_t capacity() const { return capacity_; }
    std::uint32_t rowBytes() const { return rowBytes_; }
    std::uint32_t burstsPerRow() const { return burstsPerRow_; }
    std::uint32_t rows() const { return rows_; }
    std::uint8_t bankGroups() const { return bankGroups_; }
    std::uint8_t banksPerGroup() const { return banksPerGroup_; }
    std::uint32_t totalBanks() const
    {
        return std::uint32_t{bankGroups_} * banksPerGroup_;
    }

    /** Decompose a byte address (must be < capacity). */
    DramCoord decompose(Addr addr) const;

    /** Recompose a coordinate into the base byte address of its burst. */
    Addr compose(const DramCoord& coord) const;

    /** Flat bank index in [0, totalBanks). */
    std::uint32_t flatBank(const DramCoord& c) const
    {
        return std::uint32_t{c.bankGroup} * banksPerGroup_ + c.bank;
    }

  private:
    std::uint64_t capacity_;
    std::uint32_t rowBytes_;
    std::uint32_t burstsPerRow_;
    std::uint32_t rows_;
    std::uint8_t bankGroups_;
    std::uint8_t banksPerGroup_;
    /** log2 of burstsPerRow_, banksPerGroup_ and bankGroups_: every
     *  field is a power of two, so decompose and compose are shifts
     *  and masks (they run on every iMC request and DMA step). */
    std::uint8_t colBits_;
    std::uint8_t bankBits_;
    std::uint8_t groupBits_;
};

} // namespace nvdimmc::dram

#endif // NVDIMMC_DRAM_ADDRESS_MAP_HH
