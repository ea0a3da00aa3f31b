/**
 * @file
 * One channel's refresh schedule: the only source of refresh timing
 * for that channel's host iMC and NVMC.
 *
 * NVDIMM-C works only because the two controllers agree on it (paper
 * §II-B, Fig 2b). The iMC sends REF every programmed tREFI, offset
 * by the channel's phase, and blocks for the programmed tRFC; the
 * NVMC owns the bus from REF + the device's own tRFC until a guard
 * band before that programmed tRFC ends. The factory derives that
 * window once and rejects registers the two controllers cannot both
 * honour.
 */

#ifndef NVDIMMC_DRAM_REFRESH_SCHEDULE_HH
#define NVDIMMC_DRAM_REFRESH_SCHEDULE_HH

#include "common/types.hh"
#include "dram/timing.hh"

namespace nvdimmc::dram
{

/** Immutable refresh timing of one channel; built only by make(). */
class RefreshSchedule
{
  public:
    /** Time reserved at the window tail for the NVMC's closing PRE. */
    static constexpr Tick kWindowGuard = 30 * kNs;

    /**
     * The schedule for programmed registers @p regs on a DRAM whose
     * own refresh takes @p deviceTrfc, with the first REF due at
     * regs.tREFI + @p phase. fatal()s, naming the field, when
     * regs.tRFC is below @p deviceTrfc (the host would resume while
     * the DRAM still refreshes) or is not below regs.tREFI (the host
     * would never leave its blackout).
     */
    static RefreshSchedule make(const RefreshRegisters& regs,
                                Tick deviceTrfc, Tick phase);

    /** Programmed interval between REFs. */
    Tick tREFI() const { return tREFI_; }
    /** Programmed tRFC: how long the host blocks after each REF. */
    Tick tRFC() const { return tRFC_; }
    /** The DRAM device's own refresh time. */
    Tick deviceTrfc() const { return deviceTrfc_; }
    /** Offset of this channel's REF clock from channel 0's. */
    Tick phase() const { return phase_; }
    Tick firstRefreshDue() const { return tREFI_ + phase_; }

    /** @name NVMC window, as offsets from the REF command tick:
     *  [windowStart(), windowEnd()). Empty when the guard eats the
     *  whole slack, as with standard (unextended) registers. */
    /** @{ */
    Tick windowStart() const { return deviceTrfc_; }
    Tick windowEnd() const { return windowEnd_; }
    bool hasWindow() const { return windowEnd_ > deviceTrfc_; }
    /** @} */

  private:
    RefreshSchedule(Tick trefi, Tick trfc, Tick device_trfc,
                    Tick phase, Tick window_end)
        : tREFI_(trefi), tRFC_(trfc), deviceTrfc_(device_trfc),
          phase_(phase), windowEnd_(window_end)
    {
    }

    Tick tREFI_;
    Tick tRFC_;
    Tick deviceTrfc_;
    Tick phase_;
    Tick windowEnd_;
};

} // namespace nvdimmc::dram

#endif // NVDIMMC_DRAM_REFRESH_SCHEDULE_HH
