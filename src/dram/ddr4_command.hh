/**
 * @file
 * DDR4 command set and pin-level command/address encoding.
 *
 * The NVMC's refresh detector (paper Fig 4) works by decoding the raw
 * CA pins it taps from the shared bus, so commands here exist in two
 * forms: the logical Ddr4Command used by controllers and the CaFrame
 * pin image actually driven on the bus. Encoding follows the JEDEC
 * DDR4 truth table; REF is CKE=H, CS_n=L, ACT_n=H, RAS_n=L, CAS_n=L,
 * WE_n=H (the pins the paper's detector taps).
 */

#ifndef NVDIMMC_DRAM_DDR4_COMMAND_HH
#define NVDIMMC_DRAM_DDR4_COMMAND_HH

#include <cstdint>
#include <string>

namespace nvdimmc::dram
{

/** Logical DDR4 operations. */
enum class Ddr4Op : std::uint8_t
{
    Deselect,        ///< CS_n high; no command.
    Nop,             ///< Selected but idle.
    Activate,        ///< Open a row.
    Read,            ///< Burst read (BL8).
    ReadAP,          ///< Read with auto-precharge.
    Write,           ///< Burst write (BL8).
    WriteAP,         ///< Write with auto-precharge.
    Precharge,       ///< Close one bank.
    PrechargeAll,    ///< PREA: close every bank.
    Refresh,         ///< REF: all-bank refresh.
    SelfRefreshEnter,///< SRE: REF encoding with CKE falling.
    SelfRefreshExit, ///< SRX: deselect/NOP with CKE rising.
    ModeRegisterSet, ///< MRS.
    ZqCalibration,   ///< ZQCL.
};

/** Printable name for diagnostics. */
const char* toString(Ddr4Op op);

/** A logical command as a controller thinks of it. */
struct Ddr4Command
{
    Ddr4Op op = Ddr4Op::Deselect;
    std::uint8_t bankGroup = 0;
    std::uint8_t bank = 0;       ///< Bank within group.
    std::uint32_t row = 0;
    std::uint32_t col = 0;       ///< Column in burst units.

    std::string describe() const;
};

/**
 * Pin image of one CA-bus cycle: the control pins the paper's
 * detector taps, plus the multiplexed address pins.
 *
 * cke is the level *during* this cycle; ckePrev the level in the
 * preceding cycle, because SRE/SRX are defined by the CKE transition.
 */
struct CaFrame
{
    bool cke = true;
    bool ckePrev = true;
    bool csN = true;    ///< Active-low chip select (true = deselected).
    bool actN = true;
    bool rasN = true;   ///< Shared with A16.
    bool casN = true;   ///< Shared with A15.
    bool weN = true;    ///< Shared with A14.
    bool a10 = false;   ///< Auto-precharge / all-bank flag.
    std::uint8_t bg = 0;
    std::uint8_t ba = 0;
    std::uint32_t addr = 0; ///< Row or column bits (excluding A10).

    bool operator==(const CaFrame&) const = default;
};

/** Encode a logical command into its pin image. */
CaFrame encodeCommand(const Ddr4Command& cmd);

/**
 * Decode a pin image back to a logical command. Unknown encodings
 * decode to Deselect/Nop rather than guessing; the refresh detector
 * relies on REF never aliasing with anything else.
 */
Ddr4Command decodeFrame(const CaFrame& frame);

} // namespace nvdimmc::dram

#endif // NVDIMMC_DRAM_DDR4_COMMAND_HH
