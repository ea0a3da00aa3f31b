#include "core/channel.hh"

#include <string>

#include "common/stats.hh"
#include "nvm/sttmram.hh"

namespace nvdimmc::core
{

Channel::Channel(EventQueue& eq, const SystemConfig& cfg,
                 std::uint32_t index, std::uint32_t count)
    : index_(index)
{
    map_ = std::make_unique<dram::AddressMap>(cfg.dramCacheBytes);
    dram_ = std::make_unique<dram::DramDevice>(*map_, cfg.dramTiming,
                                               cfg.storeData, false);
    bus_ = std::make_unique<bus::MemoryBus>(eq, *dram_, false);

    // Stagger the refresh clocks so the per-channel tRFC blackouts
    // (and DMA windows) spread evenly over the tREFI period. Plain
    // DRAM has no windows to spread: the pmem baseline refreshes at
    // phase 0 on every channel.
    const bool pmem = cfg.backendKind == backend::BackendKind::Pmem;
    const auto refresh = dram::RefreshSchedule::make(
        cfg.refresh, dram_->timing().tRFC,
        pmem ? 0 : index * (cfg.refresh.tREFI / count));

    imc::ImcConfig imc_cfg = cfg.imc;
    imc_cfg.name = channelStatName(index, count, imc_cfg.name);
    imc_ = std::make_unique<imc::Imc>(eq, *bus_, imc_cfg, refresh);
    if (pmem)
        return;

    switch (cfg.media) {
      case MediaKind::ZNand:
        znand_ = std::make_unique<nvm::ZNand>(eq, cfg.znand);
        ftl_ = std::make_unique<ftl::Ftl>(eq, *znand_, cfg.ftl);
        backend_ = ftl_.get();
        break;
      case MediaKind::SttMram:
        simpleMedia_ =
            std::make_unique<nvm::SttMram>(eq, cfg.mediaBytes);
        directBackend_ =
            std::make_unique<nvm::DirectBackend>(*simpleMedia_);
        backend_ = directBackend_.get();
        break;
      case MediaKind::Delay:
        delayMedia_ = std::make_unique<nvm::DelayMedia>(
            eq, cfg.mediaBytes, cfg.delayMediaLatency);
        directBackend_ =
            std::make_unique<nvm::DirectBackend>(*delayMedia_);
        backend_ = directBackend_.get();
        break;
    }

    layout_ = std::make_unique<nvmc::ReservedLayout>(
        cfg.dramCacheBytes, cfg.driver.cpQueueDepth);

    if (cfg.nvmcEnabled) {
        nvmc_ = std::make_unique<nvmc::Nvmc>(eq, *bus_, *backend_,
                                             *layout_, cfg.nvmc, refresh);
    }
}

} // namespace nvdimmc::core
