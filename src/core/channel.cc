#include "core/channel.hh"

#include <string>

#include "nvm/pram.hh"
#include "nvm/sttmram.hh"

namespace nvdimmc::core
{

Channel::Channel(EventQueue& eq, const SystemConfig& cfg,
                 std::uint32_t index, std::uint32_t count)
    : index_(index)
{
    map_ = std::make_unique<dram::AddressMap>(cfg.dramCacheBytes);
    dram_ = std::make_unique<dram::DramDevice>(
        *map_, cfg.dramTiming, cfg.storeData, cfg.strictHardware);
    bus_ = std::make_unique<bus::MemoryBus>(eq, *dram_,
                                            cfg.strictHardware);

    imc::ImcConfig imc_cfg = cfg.imc;
    imc_cfg.refresh = cfg.refresh;
    if (count > 1) {
        imc_cfg.name = "ch" + std::to_string(index) + ".imc";
        // Stagger the refresh clocks so the per-channel tRFC blackouts
        // (and DMA windows) spread evenly over the tREFI period.
        if (cfg.staggerRefresh)
            imc_cfg.refreshPhase =
                index * (cfg.refresh.tREFI / count);
    }
    imc_ = std::make_unique<imc::Imc>(eq, *bus_, imc_cfg);

    switch (cfg.media) {
      case MediaKind::ZNand:
        znand_ = std::make_unique<nvm::ZNand>(eq, cfg.znand);
        ftl_ = std::make_unique<ftl::Ftl>(eq, *znand_, cfg.ftl);
        backend_ = ftl_.get();
        break;
      case MediaKind::Pram:
        simpleMedia_ = std::make_unique<nvm::Pram>(eq, cfg.mediaBytes);
        directBackend_ =
            std::make_unique<nvm::DirectBackend>(*simpleMedia_);
        backend_ = directBackend_.get();
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
        nvmc::NvmcConfig nvmc_cfg = cfg.nvmc;
        nvmc_cfg.programmedRefresh = cfg.refresh;
        nvmc_ = std::make_unique<nvmc::Nvmc>(eq, *bus_, *backend_,
                                             *layout_, nvmc_cfg);
    }
}

} // namespace nvdimmc::core
