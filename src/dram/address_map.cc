#include "dram/address_map.hh"

#include <bit>

#include "common/logging.hh"

namespace nvdimmc::dram
{

namespace
{

bool
isPow2(std::uint64_t v)
{
    return v != 0 && (v & (v - 1)) == 0;
}

} // namespace

AddressMap::AddressMap(std::uint64_t capacity_bytes,
                       std::uint32_t row_bytes,
                       std::uint8_t bank_groups,
                       std::uint8_t banks_per_group)
    : capacity_(capacity_bytes),
      rowBytes_(row_bytes),
      bankGroups_(bank_groups),
      banksPerGroup_(banks_per_group)
{
    if (!isPow2(capacity_bytes) || !isPow2(row_bytes) ||
        !isPow2(bank_groups) || !isPow2(banks_per_group)) {
        fatal("AddressMap: all geometry parameters must be powers of 2");
    }
    if (row_bytes < kBurstBytes)
        fatal("AddressMap: row smaller than one burst");
    burstsPerRow_ = rowBytes_ / kBurstBytes;
    colBits_ = static_cast<std::uint8_t>(std::countr_zero(burstsPerRow_));
    bankBits_ = static_cast<std::uint8_t>(std::countr_zero(banksPerGroup_));
    groupBits_ = static_cast<std::uint8_t>(std::countr_zero(bankGroups_));
    std::uint64_t per_row_span =
        std::uint64_t{rowBytes_} * totalBanks();
    if (capacity_bytes < per_row_span || capacity_bytes % per_row_span)
        fatal("AddressMap: capacity not a multiple of row*banks");
    rows_ = static_cast<std::uint32_t>(capacity_bytes / per_row_span);
}

DramCoord
AddressMap::decompose(Addr addr) const
{
    NVDC_ASSERT(addr < capacity_, "address ", addr, " beyond capacity");
    std::uint64_t burst = addr >> kBurstShift;

    DramCoord c;
    c.col = static_cast<std::uint32_t>(burst & (burstsPerRow_ - 1));
    burst >>= colBits_;
    c.bank = static_cast<std::uint8_t>(burst & (banksPerGroup_ - 1u));
    burst >>= bankBits_;
    c.bankGroup = static_cast<std::uint8_t>(burst & (bankGroups_ - 1u));
    burst >>= groupBits_;
    c.row = static_cast<std::uint32_t>(burst);
    return c;
}

Addr
AddressMap::compose(const DramCoord& c) const
{
    // Adds, not ors: a field past its range carries into the next one,
    // as the multiply-add form of this map always did.
    std::uint64_t burst = c.row;
    burst = (burst << groupBits_) + c.bankGroup;
    burst = (burst << bankBits_) + c.bank;
    burst = (burst << colBits_) + c.col;
    Addr addr = burst << kBurstShift;
    NVDC_ASSERT(addr < capacity_, "composed address beyond capacity");
    return addr;
}

} // namespace nvdimmc::dram
