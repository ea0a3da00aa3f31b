#include "dram/refresh_schedule.hh"

#include "common/logging.hh"

namespace nvdimmc::dram
{

RefreshSchedule
RefreshSchedule::make(const RefreshRegisters& regs, Tick deviceTrfc,
                      Tick phase)
{
    if (regs.tRFC < deviceTrfc) {
        fatal("refresh.tRFC = ", ticksToNs(regs.tRFC),
              " ns is below the DRAM device's tRFC of ",
              ticksToNs(deviceTrfc),
              " ns: the host would resume while the DRAM still "
              "refreshes");
    }
    if (regs.tRFC >= regs.tREFI) {
        fatal("refresh.tRFC = ", ticksToNs(regs.tRFC),
              " ns must be below refresh.tREFI = ",
              ticksToNs(regs.tREFI),
              " ns: the host would never leave its refresh blackout");
    }
    Tick window_end =
        regs.tRFC > kWindowGuard ? regs.tRFC - kWindowGuard : 0;
    return RefreshSchedule(regs.tREFI, regs.tRFC, deviceTrfc, phase,
                           window_end);
}

} // namespace nvdimmc::dram
