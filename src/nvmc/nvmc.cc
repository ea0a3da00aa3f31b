#include "nvmc/nvmc.hh"

#include "common/logging.hh"
#include "common/trace.hh"

namespace nvdimmc::nvmc
{

Nvmc::Nvmc(EventQueue& eq, bus::MemoryBus& bus,
           nvm::PageBackend& backend, const ReservedLayout& layout,
           const NvmcConfig& cfg, const dram::RefreshSchedule& refresh)
    : eq_(eq), bus_(bus), layout_(layout), cfg_(cfg), refresh_(refresh)
{
    if (!refresh_.hasWindow()) {
        fatal("Nvmc: refresh.tRFC = ", ticksToNs(refresh_.tRFC()),
              " ns leaves no DMA window after the DRAM device's tRFC "
              "of ", ticksToNs(refresh_.deviceTrfc()), " ns and the ",
              ticksToNs(dram::RefreshSchedule::kWindowGuard),
              " ns guard; the NVMC would starve");
    }

    ctrl_ = std::make_unique<NvmcDdr4Controller>(eq, bus);
    dma_ = std::make_unique<DmaEngine>(eq, *ctrl_, cfg.bytesPerWindow);
    firmware_ = std::make_unique<Firmware>(eq, *dma_, backend,
                                           bus.dram(), layout,
                                           cfg.firmware);

    detector_ = std::make_unique<RefreshDetector>(
        eq, bus.dram().timing().tCK, cfg.detector,
        [this](Tick cmd_tick) { onRefreshDetected(cmd_tick); });
    bus.addSnooper(detector_.get());
}

void
Nvmc::onRefreshDetected(Tick command_tick)
{
    Tick ws, we;
    if (cfg_.gateDisabled) {
        // Failure injection: drive immediately after detection, and
        // don't even tell the controller's shadow a refresh is in
        // progress — the buggy NVMC believes the DRAM is free.
        ws = eq_.now();
        we = command_tick + refresh_.tRFC();
    } else {
        ctrl_->noteRefresh(command_tick);
        ws = command_tick + refresh_.windowStart();
        we = command_tick + refresh_.windowEnd();
    }

    ++windowsGranted_;
    windowTicksGranted_ += we - ws;
    trace::duration("nvmc.window", "refresh-window", ws, we);
    firmware_->onWindow(ws, we);
}

void
Nvmc::registerStats(StatRegistry& reg, const std::string& prefix) const
{
    reg.add(prefix + ".windows_granted",
            [this] { return double(windowsGranted_); });

    const DetectorStats& d = detector_->stats();
    reg.addCounter(prefix + ".detector.frames_observed",
                   d.framesObserved);
    reg.addCounter(prefix + ".detector.refreshes_detected",
                   d.refreshesDetected);
    reg.addCounter(prefix + ".detector.self_refresh_ignored",
                   d.selfRefreshIgnored);
    reg.addCounter(prefix + ".detector.injected_misses",
                   d.injectedMisses);
    reg.addCounter(prefix + ".detector.injected_false_positives",
                   d.injectedFalsePositives);

    const DmaStats& dm = dma_->stats();
    reg.addCounter(prefix + ".dma.requests", dm.requests);
    reg.addCounter(prefix + ".dma.windows_used", dm.windowsUsed);
    reg.addCounter(prefix + ".dma.bytes_moved", dm.bytesMoved);
    reg.addCounter(prefix + ".dma.window_carryovers",
                   dm.windowCarryovers);
    reg.addHistogram(prefix + ".dma.bytes_per_window",
                     dm.bytesPerWindow);

    const NvmcCtrlStats& c = ctrl_->stats();
    reg.addCounter(prefix + ".ctrl.transfers", c.transfers);
    reg.addCounter(prefix + ".ctrl.bytes_read", c.bytesRead);
    reg.addCounter(prefix + ".ctrl.bytes_written", c.bytesWritten);
    reg.addCounter(prefix + ".ctrl.truncated_transfers",
                   c.truncatedTransfers);

    const FirmwareStats& f = firmware_->stats();
    reg.addCounter(prefix + ".fw.cp_polls", f.cpPolls);
    reg.addCounter(prefix + ".fw.commands_accepted",
                   f.commandsAccepted);
    reg.addCounter(prefix + ".fw.cachefills", f.cachefills);
    reg.addCounter(prefix + ".fw.writebacks", f.writebacks);
    reg.addCounter(prefix + ".fw.merged_ops", f.mergedOps);
    reg.addCounter(prefix + ".fw.acks_written", f.acksWritten);
    reg.addHistogram(prefix + ".fw.op_latency", f.opLatency);
    reg.addHistogram(prefix + ".fw.data_latency", f.dataLatency);
    reg.addHistogram(prefix + ".fw.ack_latency", f.ackLatency);

    // Derived refresh-window metrics (paper Fig 2b: how much of the
    // stolen tRFC tail the NVMC actually spends moving data).
    reg.add(prefix + ".window.open_ticks",
            [this] { return double(windowTicksGranted_); });
    reg.addCounter(prefix + ".window.used_ticks", dm.busyTicks);
    reg.add(prefix + ".window.wasted_ticks", [this] {
        Tick used = dma_->stats().busyTicks.value();
        return used >= windowTicksGranted_
                   ? 0.0
                   : double(windowTicksGranted_ - used);
    });
    reg.add(prefix + ".window.utilization_pct", [this] {
        return windowTicksGranted_ == 0
                   ? 0.0
                   : 100.0 * double(dma_->stats().busyTicks.value()) /
                         double(windowTicksGranted_);
    });
}

} // namespace nvdimmc::nvmc
