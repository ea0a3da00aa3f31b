/**
 * @file
 * NVMC top level: wires the refresh detector to the shared bus and
 * turns every detected REF into a DMA window
 *
 *     [ REF tick + device tRFC , REF tick + programmed tRFC - guard )
 *
 * i.e. the NVMC waits out the DRAM's real refresh (350 ns) and then
 * owns the channel until just before the host's programmed tRFC
 * (1250 ns) expires, leaving a guard band for its closing PRE
 * (paper Fig 2b). Both offsets come from the channel's
 * dram::RefreshSchedule, the one the host iMC runs.
 */

#ifndef NVDIMMC_NVMC_NVMC_HH
#define NVDIMMC_NVMC_NVMC_HH

#include <memory>

#include "bus/memory_bus.hh"
#include "common/event_queue.hh"
#include "dram/refresh_schedule.hh"
#include "nvm/nvm_media.hh"
#include "nvmc/cp_protocol.hh"
#include "nvmc/ddr4_controller.hh"
#include "nvmc/dma_engine.hh"
#include "nvmc/firmware.hh"
#include "nvmc/refresh_detector.hh"

namespace nvdimmc::nvmc
{

/** Whole-NVMC configuration. */
struct NvmcConfig
{
    RefreshDetector::Params detector;
    FirmwareConfig firmware;
    /** Data budget per window (PoC 4 KB; ASIC ablation 8 KB). */
    std::uint32_t bytesPerWindow = 4096;
    /**
     * Failure injection: ignore the wait-for-device-tRFC rule and
     * start driving the bus right at detection (conflicts with the
     * still-refreshing DRAM, and with the host if detection was
     * false).
     */
    bool gateDisabled = false;
};

/** The on-DIMM controller (the FPGA). */
class Nvmc
{
  public:
    /** Windows follow @p refresh, the schedule the channel's iMC
     *  runs; fatal() if it leaves no window (see
     *  RefreshSchedule::hasWindow). */
    Nvmc(EventQueue& eq, bus::MemoryBus& bus,
         nvm::PageBackend& backend, const ReservedLayout& layout,
         const NvmcConfig& cfg, const dram::RefreshSchedule& refresh);

    Firmware& firmware() { return *firmware_; }
    const Firmware& firmware() const { return *firmware_; }
    RefreshDetector& detector() { return *detector_; }
    DmaEngine& dma() { return *dma_; }
    const DmaEngine& dma() const { return *dma_; }
    NvmcDdr4Controller& controller() { return *ctrl_; }
    const NvmcConfig& config() const { return cfg_; }
    const ReservedLayout& layout() const { return layout_; }

    /** Windows the NVMC has been granted so far. */
    std::uint64_t windowsGranted() const { return windowsGranted_; }

    /** Total usable ticks across all granted windows. */
    Tick windowTicksGranted() const { return windowTicksGranted_; }

    /**
     * Register the whole NVMC cluster's stats: detector, DMA engine,
     * DDR4 controller, firmware, and the derived per-window metrics
     * the paper's evaluation depends on (@p prefix ".window.*":
     * open/used/wasted ticks, utilization, bytes per window).
     */
    void registerStats(StatRegistry& reg,
                       const std::string& prefix) const;

  private:
    void onRefreshDetected(Tick command_tick);

    EventQueue& eq_;
    bus::MemoryBus& bus_;
    ReservedLayout layout_;
    NvmcConfig cfg_;
    const dram::RefreshSchedule refresh_;

    std::unique_ptr<NvmcDdr4Controller> ctrl_;
    std::unique_ptr<DmaEngine> dma_;
    std::unique_ptr<Firmware> firmware_;
    std::unique_ptr<RefreshDetector> detector_;

    std::uint64_t windowsGranted_ = 0;
    Tick windowTicksGranted_ = 0;
};

} // namespace nvdimmc::nvmc

#endif // NVDIMMC_NVMC_NVMC_HH
