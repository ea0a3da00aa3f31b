/**
 * @file
 * Whole-system assembly.
 *
 * NvdimmcSystem builds the complete NVDIMM-C stack of Fig 1b/3/4 as a
 * ChannelTopology: N core::Channel units (each a shared DDR4 channel
 * with conflict checking, DRAM cache device, host iMC with programmed
 * tRFC/tREFI, an NVMC snooping the bus and an NVM backend), a
 * page-interleaved physical address map routing every host access to
 * its owning channel through an imc::HostPort, and the CPU-side
 * singletons (cache model, memcpy engine, nvdc driver) shared across
 * channels. With channels = 1 (the PoC machine) every routing function
 * is the identity and the system behaves byte-identically to the
 * original single-channel assembly.
 *
 * The same class builds all three backends of SystemConfig::backendKind.
 * The CXL hybrid swaps the CP transport for a CXL.mem link. The pmem
 * baseline (/dev/pmem0) keeps only each channel's DRAM, bus and iMC and
 * puts the emulated-pmem driver on the memcpy engine: it has no DRAM
 * cache, transport or nvdc driver, and the accessors for those panic.
 */

#ifndef NVDIMMC_CORE_SYSTEM_HH
#define NVDIMMC_CORE_SYSTEM_HH

#include <memory>
#include <ostream>
#include <vector>

#include "backend/media_backend.hh"
#include "bus/memory_bus.hh"
#include "common/event_queue.hh"
#include "common/telemetry.hh"
#include "core/channel.hh"
#include "core/system_config.hh"
#include "cpu/cache_model.hh"
#include "cpu/memcpy_engine.hh"
#include "driver/nvdc_driver.hh"
#include "driver/pmem_driver.hh"
#include "dram/dram_device.hh"
#include "ftl/ftl.hh"
#include "imc/host_port.hh"
#include "imc/imc.hh"
#include "nvm/delay_media.hh"
#include "nvm/nvm_media.hh"
#include "nvm/znand.hh"
#include "nvmc/nvmc.hh"

namespace nvdimmc::core
{

/** The full NVDIMM-C machine, or one of the machines it is compared
 *  against. */
class NvdimmcSystem
{
  public:
    explicit NvdimmcSystem(const SystemConfig& cfg);

    EventQueue& eq() { return eq_; }

    /** @name Channel topology. */
    /** @{ */
    std::uint32_t channelCount() const
    {
        return static_cast<std::uint32_t>(channels_.size());
    }
    Channel& channel(std::uint32_t i) { return *channels_[i]; }
    const Channel& channel(std::uint32_t i) const
    {
        return *channels_[i];
    }
    imc::HostPort& hostPort() { return *hostPort_; }
    /** DRAM cache slots summed over all channels. */
    std::uint32_t totalSlotCount() const;
    /** @} */

    /** @name Channel-0 shortcuts (the whole machine when N == 1). */
    /** @{ */
    bus::MemoryBus& bus() { return channels_[0]->bus(); }
    dram::DramDevice& dramDevice() { return channels_[0]->dram(); }
    imc::Imc& imc() { return channels_[0]->imc(); }
    nvm::PageBackend& backend() { return channels_[0]->backend(); }
    nvmc::Nvmc* nvmc() { return channels_[0]->nvmc(); }
    nvm::ZNand* znand() { return channels_[0]->znand(); }
    ftl::Ftl* ftl() { return channels_[0]->ftl(); }
    nvm::DelayMedia* delayMedia() { return channels_[0]->delayMedia(); }
    const nvmc::ReservedLayout& layout() const
    {
        return channels_[0]->layout();
    }
    /** @} */

    cpu::CpuCacheModel& cpuCache() { return *cpuCache_; }
    cpu::MemcpyEngine& engine() { return *engine_; }
    /** The nvdc driver (hybrid backends only). */
    driver::NvdcDriver& driver() { return part(driver_, "driver()"); }
    /** The emulated-pmem driver (pmem baseline only). */
    driver::PmemDriver& pmemDriver()
    {
        return part(pmem_, "pmemDriver()");
    }
    /** The media-transport backend the driver talks through. */
    backend::MediaBackend& transport()
    {
        return part(transport_, "transport()");
    }
    const backend::MediaBackend& transport() const
    {
        return part(transport_, "transport()");
    }
    const SystemConfig& config() const { return cfg_; }

    /** Advance simulated time. */
    void run(Tick duration) { eq_.runFor(duration); }

    /** Run until no events remain (bounded). */
    void drain(std::uint64_t max_events = 50'000'000)
    {
        eq_.runAll(max_events);
    }

    /**
     * Test/bench scaffolding: install @p pages device pages as cached
     * (optionally dirty) without paying the fill latency, starting at
     * device page @p first_page. The range must lie on the device.
     * Each page lands in its owning channel's cache slice; metadata in
     * that channel's DRAM is updated so the power-fail dump stays
     * consistent.
     */
    void precondition(std::uint64_t first_page, std::uint32_t pages,
                      bool dirty);

    /** Zero bus conflicts and zero DRAM violations on every channel? */
    bool hardwareClean() const;

    /**
     * Register every layer's statistics under the hierarchical names
     * (dram.*, bus.*, imc.*, cpu.*, then nvdc.*, nvmc.*, ftl.*,
     * znand.* or the baseline's pmem.*) plus the flat legacy aliases
     * (cache.*, fw.*) older tooling parses. One rule holds at every
     * channel count: on one channel each channel's components
     * register under the flat names; on several they register under
     * ch<i>.-prefixed names (ch1.imc.*, ...) and the flat names are
     * added as aggregates (sums; max for imc.refresh.overhead_pct).
     * The registry holds live getters: it must not outlive this
     * system.
     */
    void registerStats(StatRegistry& reg) const;

    /** Dump every layer's statistics in "name = value" form. */
    void dumpStats(std::ostream& os) const;

    /** Dump the same statistics as one flat JSON object. */
    void dumpStatsJson(std::ostream& os) const;

    /** The time-series collector, or null when telemetry was off at
     *  construction. */
    telemetry::Collector* telemetryCollector()
    {
        return telemetry_.get();
    }

  private:
    /** Register this system's probe set (construction-time, after
     *  every component exists). */
    void registerTelemetry(telemetry::Collector& t);

    /** Build the transport and the nvdc driver of a hybrid backend
     *  (construction-time, after the channels and the CPU side). */
    void buildHybrid(bool is_cxl);

    /** *@p p, or a panic naming @p what when this system's backend
     *  has no such part. */
    template <typename T>
    T& part(const std::unique_ptr<T>& p, const char* what) const
    {
        if (!p)
            absent(what);
        return *p;
    }
    [[noreturn]] void absent(const char* what) const;

    SystemConfig cfg_;
    EventQueue eq_;

    std::vector<std::unique_ptr<Channel>> channels_;
    std::unique_ptr<imc::HostPort> hostPort_;

    std::unique_ptr<cpu::CpuCacheModel> cpuCache_;
    std::unique_ptr<cpu::MemcpyEngine> engine_;
    /** Owned here (not by the driver) so the system can pick the
     *  transport per cfg_.backendKind; declared before driver_, which
     *  holds a non-owning pointer to it. */
    std::unique_ptr<backend::MediaBackend> transport_;
    /** Exactly one of driver_ (hybrid backends) and pmem_ (the
     *  baseline) is set. */
    std::unique_ptr<driver::NvdcDriver> driver_;
    std::unique_ptr<driver::PmemDriver> pmem_;
    /** Null unless telemetry::enabled() at construction. Declared
     *  after every probed component (its getters read them). */
    std::unique_ptr<telemetry::Collector> telemetry_;
};

} // namespace nvdimmc::core

#endif // NVDIMMC_CORE_SYSTEM_HH
