/**
 * @file
 * One memory channel of the topology: a complete NVDIMM-C module.
 *
 * Each Channel owns the full per-module hardware stack — DDR4 address
 * map, DRAM cache device, shared memory bus, host iMC, the NVM backend
 * (FTL over Z-NAND or a direct media), the reserved CP layout and the
 * NVMC snooping the bus. A multi-channel NvdimmcSystem instantiates N
 * of these and interleaves the flat physical address space across them
 * (dram/channel_interleave.hh); the CPU-side singletons (cache model,
 * memcpy engine, nvdc driver) route each access to its owning channel
 * through an imc::HostPort.
 *
 * Refresh staggering: with N channels and staggerRefresh on, channel i
 * starts its tREFI clock with a phase offset of i * tREFI / N, so the
 * per-channel tRFC blackouts (and the DMA windows the NVMCs steal from
 * them) never line up across the whole system. Channel 0 — and any
 * single-channel system — keeps phase 0, leaving the legacy timeline
 * untouched.
 */

#ifndef NVDIMMC_CORE_CHANNEL_HH
#define NVDIMMC_CORE_CHANNEL_HH

#include <cstdint>
#include <memory>

#include "bus/memory_bus.hh"
#include "common/event_queue.hh"
#include "core/system_config.hh"
#include "dram/dram_device.hh"
#include "ftl/ftl.hh"
#include "imc/imc.hh"
#include "nvm/delay_media.hh"
#include "nvm/nvm_media.hh"
#include "nvm/znand.hh"
#include "nvmc/nvmc.hh"

namespace nvdimmc::core
{

/** One channel's worth of hardware (one NVDIMM-C module). */
class Channel
{
  public:
    /**
     * Build channel @p index of @p count from the per-module slice of
     * @p cfg (capacities in the config are per module). The reserved
     * layout exposes cfg.driver.cpQueueDepth CP command slots.
     */
    Channel(EventQueue& eq, const SystemConfig& cfg, std::uint32_t index,
            std::uint32_t count);

    std::uint32_t index() const { return index_; }

    dram::AddressMap& map() { return *map_; }
    dram::DramDevice& dram() { return *dram_; }
    const dram::DramDevice& dram() const { return *dram_; }
    bus::MemoryBus& bus() { return *bus_; }
    const bus::MemoryBus& bus() const { return *bus_; }
    imc::Imc& imc() { return *imc_; }
    const imc::Imc& imc() const { return *imc_; }
    nvm::PageBackend& backend() { return *backend_; }
    const nvmc::ReservedLayout& layout() const { return *layout_; }
    nvmc::Nvmc* nvmc() { return nvmc_.get(); }
    const nvmc::Nvmc* nvmc() const { return nvmc_.get(); }
    nvm::ZNand* znand() { return znand_.get(); }
    const nvm::ZNand* znand() const { return znand_.get(); }
    ftl::Ftl* ftl() { return ftl_.get(); }
    const ftl::Ftl* ftl() const { return ftl_.get(); }
    nvm::DelayMedia* delayMedia() { return delayMedia_.get(); }

  private:
    std::uint32_t index_;

    std::unique_ptr<dram::AddressMap> map_;
    std::unique_ptr<dram::DramDevice> dram_;
    std::unique_ptr<bus::MemoryBus> bus_;
    std::unique_ptr<imc::Imc> imc_;

    std::unique_ptr<nvm::ZNand> znand_;
    std::unique_ptr<ftl::Ftl> ftl_;
    std::unique_ptr<nvm::NvmMedia> simpleMedia_;
    std::unique_ptr<nvm::DelayMedia> delayMedia_;
    std::unique_ptr<nvm::DirectBackend> directBackend_;
    nvm::PageBackend* backend_ = nullptr;

    std::unique_ptr<nvmc::ReservedLayout> layout_;
    std::unique_ptr<nvmc::Nvmc> nvmc_;
};

} // namespace nvdimmc::core

#endif // NVDIMMC_CORE_CHANNEL_HH
