/**
 * @file
 * DDR4 timing parameter sets.
 *
 * All values are in ticks (picoseconds). Presets follow JEDEC DDR4
 * speed bins. Ddr4Timing::tRFC is the device's own refresh time; the
 * host's *programmable* tRFC/tREFI (the Skylake iMC registers the
 * paper uses to stretch tRFC to 1250 ns and to double or quadruple
 * the refresh rate) are RefreshRegisters, which each channel turns
 * into one dram::RefreshSchedule.
 */

#ifndef NVDIMMC_DRAM_TIMING_HH
#define NVDIMMC_DRAM_TIMING_HH

#include "common/types.hh"

namespace nvdimmc::dram
{

/** One DDR4 speed bin's timing set, in picoseconds. */
struct Ddr4Timing
{
    /** Clock period. DDR4-1600 => 1250 ps. */
    Tick tCK = 1250;

    /** @name Core bank timings. */
    /** @{ */
    Tick tRCD = 13750;  ///< ACT -> RD/WR.
    Tick tCL = 13750;   ///< RD -> first data.
    Tick tCWL = 12500;  ///< WR -> first data.
    Tick tRP = 13750;   ///< PRE -> ACT.
    Tick tRAS = 35000;  ///< ACT -> PRE (min open time).
    Tick tRC = 48750;   ///< ACT -> ACT same bank.
    Tick tRTP = 7500;   ///< RD -> PRE.
    Tick tWR = 15000;   ///< End of write data -> PRE.
    Tick tWTR = 7500;   ///< End of write data -> RD.
    /** @} */

    /** @name Inter-bank constraints. */
    /** @{ */
    Tick tRRD_S = 5000; ///< ACT -> ACT different bank group.
    Tick tRRD_L = 6250; ///< ACT -> ACT same bank group.
    Tick tCCD_S = 5000; ///< CAS -> CAS different bank group.
    Tick tCCD_L = 6250; ///< CAS -> CAS same bank group.
    Tick tFAW = 35000;  ///< Four-activate window.
    /** @} */

    /** @name Refresh. */
    /** @{ */
    Tick tRFC = 350000;   ///< Refresh cycle time (8 Gb device: 350 ns).
    Tick tXS = 360000;    ///< SRX -> valid command.
    /** @} */

    /** Burst length 8 occupies 4 clocks on the DQ bus. */
    Tick burstTime() const { return 4 * tCK; }

    /** RD command to end of data. */
    Tick readLatency() const { return tCL + burstTime(); }

    /** WR command to end of data. */
    Tick writeLatency() const { return tCWL + burstTime(); }

    /** JEDEC DDR4-1600 (the paper's operating point). */
    static Ddr4Timing ddr4_1600();

    /** JEDEC DDR4-2400 (used in the paper's frontend discussion). */
    static Ddr4Timing ddr4_2400();
};

/**
 * The Skylake-like programmable refresh registers (paper §II-B, §V-A):
 * the OS/BIOS may stretch tRFC (giving the NVMC its window) and speed
 * up tREFI (tREFI2 / tREFI4).
 */
struct RefreshRegisters
{
    Tick tRFC = 350 * kNs;
    Tick tREFI = 7800 * kNs;

    /** The paper's NVDIMM-C programming: tRFC = 1250 ns. */
    static RefreshRegisters nvdimmc()
    {
        return RefreshRegisters{1250 * kNs, 7800 * kNs};
    }

    static RefreshRegisters standard()
    {
        return RefreshRegisters{350 * kNs, 7800 * kNs};
    }
};

} // namespace nvdimmc::dram

#endif // NVDIMMC_DRAM_TIMING_HH
