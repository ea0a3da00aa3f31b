#include "core/system.hh"

#include <algorithm>
#include <string>

#include "backend/nvdimmc_backend.hh"
#include "common/logging.hh"

namespace nvdimmc::core
{

NvdimmcSystem::NvdimmcSystem(const SystemConfig& cfg) : cfg_(cfg)
{
    NVDC_ASSERT(cfg_.channels >= 1, "system needs at least one channel");
    if (cfg_.threads != 0) {
        panic("NvdimmcSystem: SystemConfig::threads = ", cfg_.threads,
              " is not supported; the serial event kernel is the only "
              "machine model, so threads must be 0");
    }
    const bool is_cxl =
        cfg_.backendKind == backend::BackendKind::CxlHybrid;
    const bool is_pmem = cfg_.backendKind == backend::BackendKind::Pmem;
    if (is_pmem) {
        // Plain RDIMMs interleave at a page or at the classic line
        // granule; nothing else is a DRAM interleave.
        if (cfg_.interleaveGranule !=
                dram::ChannelInterleave::kPageGranule &&
            cfg_.interleaveGranule !=
                dram::ChannelInterleave::kLineGranule)
            fatal("NvdimmcSystem: interleaveGranule = ",
                  cfg_.interleaveGranule,
                  " is not a pmem interleave; the baseline takes 4096 "
                  "or 256");
    } else if (!is_cxl && cfg_.channels > 1 &&
               cfg_.interleaveGranule !=
                   dram::ChannelInterleave::kPageGranule) {
        // An NVDIMM-C module's NVMC can only DMA into its own DRAM, so
        // a cache slot must live whole on one channel: the DAX region
        // always interleaves at page granularity. The CXL device's
        // copy engine has no such tie, so that backend keeps whatever
        // granule the config asked for.
        warn("NvdimmcSystem: interleave granule ",
             cfg_.interleaveGranule,
             " unsupported with NVDIMM-C modules; clamping to 4096");
        cfg_.interleaveGranule = dram::ChannelInterleave::kPageGranule;
    }
    if (is_cxl && cfg_.nvmcEnabled) {
        // The CXL device answers over the link; there is no CP page
        // for a module-side controller to poll.
        warn("NvdimmcSystem: CXL backend ignores nvmcEnabled");
        cfg_.nvmcEnabled = false;
    }

    channels_.reserve(cfg_.channels);
    for (std::uint32_t i = 0; i < cfg_.channels; ++i)
        channels_.push_back(
            std::make_unique<Channel>(eq_, cfg_, i, cfg_.channels));

    std::vector<imc::Imc*> imcs;
    imcs.reserve(channels_.size());
    for (auto& ch : channels_)
        imcs.push_back(&ch->imc());
    hostPort_ = std::make_unique<imc::HostPort>(
        std::move(imcs), dram::ChannelInterleave(
                             cfg_.channels, cfg_.interleaveGranule));

    cpuCache_ = std::make_unique<cpu::CpuCacheModel>(eq_, *hostPort_,
                                                     cfg_.cpuCache);
    engine_ = std::make_unique<cpu::MemcpyEngine>(
        eq_, *hostPort_, cpuCache_.get(), cfg_.memcpy);

    if (is_pmem) {
        // The baseline: fsdax over plain DRAM, no cache and no media.
        pmem_ = std::make_unique<driver::PmemDriver>(
            eq_, *engine_, cfg_.dramCacheBytes * cfg_.channels);
    } else {
        buildHybrid(is_cxl);
    }

    if (telemetry::enabled()) {
        const Tick interval =
            cfg_.telemetryIntervalTicks
                ? cfg_.telemetryIntervalTicks
                : telemetry::defaultInterval(cfg_.refresh.tREFI);
        telemetry_ =
            std::make_unique<telemetry::Collector>(eq_, interval);
        registerTelemetry(*telemetry_);
        telemetry_->start();
    }
}

void
NvdimmcSystem::buildHybrid(bool is_cxl)
{
    std::vector<const nvmc::ReservedLayout*> layouts;
    std::uint64_t backend_pages = 0;
    layouts.reserve(channels_.size());
    for (auto& ch : channels_) {
        layouts.push_back(&ch->layout());
        backend_pages += ch->backend().pageCount();
    }

    // The media transport sits between the driver's fault path and the
    // per-channel devices; the system owns it so the config can swap
    // the CP-over-DDR4 protocol for the CXL.mem link.
    if (is_cxl) {
        backend::CxlBackendConfig cxl_cfg = cfg_.cxl;
        cxl_cfg.interleaveGranule = cfg_.interleaveGranule;
        auto cxl_transport =
            std::make_unique<backend::CxlHybridBackend>(eq_, cxl_cfg);
        for (std::uint32_t i = 0; i < channels_.size(); ++i)
            cxl_transport->attachChannel(i, channels_[i]->dram(),
                                         channels_[i]->backend(),
                                         channels_[i]->layout());
        transport_ = std::move(cxl_transport);
    } else {
        auto nvdc_transport = std::make_unique<backend::NvdimmcBackend>(
            eq_, *cpuCache_, layouts);
        for (std::uint32_t i = 0; i < channels_.size(); ++i)
            if (channels_[i]->nvmc())
                nvdc_transport->attachNvmc(i, channels_[i]->nvmc());
        transport_ = std::move(nvdc_transport);
    }

    driver_ = std::make_unique<driver::NvdcDriver>(
        eq_, *cpuCache_, *engine_, std::move(layouts), backend_pages,
        cfg_.driver, *transport_);
}

void
NvdimmcSystem::absent(const char* what) const
{
    panic("NvdimmcSystem::", what, " does not exist on a ",
          backend::toString(cfg_.backendKind), " system");
}

void
NvdimmcSystem::registerTelemetry(telemetry::Collector& t)
{
    // Sampled in registration order, which depends only on the
    // config (the byte-identity contract, DESIGN §9).
    if (driver::NvdcDriver* drv = driver_.get()) {
        t.addGauge("nvdc.miss_queue_depth", [drv] {
            return static_cast<std::uint64_t>(drv->pendingFillCount());
        });
        t.addGauge("nvdc.writeback_backlog", [drv] {
            return static_cast<std::uint64_t>(
                drv->pendingWritebackCount());
        });
        t.addDelta("nvdc.page_faults", [drv] {
            return drv->stats().pageFaults.value();
        });
        t.addDelta("nvdc.cachefills", [drv] {
            return drv->stats().cachefills.value();
        });
        t.addDelta("nvdc.writebacks", [drv] {
            return drv->stats().writebacks.value();
        });
    }
    t.addGauge("imc.read_queue_depth", [this] {
        std::uint64_t d = 0;
        for (const auto& ch : channels_)
            d += ch->imc().readQueueDepth();
        return d;
    });
    t.addGauge("imc.wpq_depth", [this] {
        std::uint64_t d = 0;
        for (const auto& ch : channels_)
            d += ch->imc().wpqDepth();
        return d;
    });
    if (transport_)
        t.addGauge("backend.queue_depth",
                   [this] { return transport_->queueDepth(); });
    t.addDelta("dram.refreshes", [this] {
        std::uint64_t v = 0;
        for (const auto& ch : channels_)
            v += ch->dram().refreshCount();
        return v;
    });
    if (driver::PmemDriver* pmem = pmem_.get()) {
        t.addDelta("pmem.read_ops",
                   [pmem] { return pmem->stats().readOps.value(); });
        t.addDelta("pmem.write_ops",
                   [pmem] { return pmem->stats().writeOps.value(); });
    }
    if (cfg_.nvmcEnabled && channels_[0]->nvmc()) {
        t.addDelta("nvmc.dma.bytes", [this] {
            std::uint64_t v = 0;
            for (const auto& ch : channels_)
                v += ch->nvmc()->dma().stats().bytesMoved.value();
            return v;
        });
        t.addDelta("nvmc.dma.busy_ticks", [this] {
            std::uint64_t v = 0;
            for (const auto& ch : channels_)
                v += ch->nvmc()->dma().stats().busyTicks.value();
            return v;
        });
        t.addDelta("nvmc.window_ticks", [this] {
            std::uint64_t v = 0;
            for (const auto& ch : channels_)
                v += ch->nvmc()->windowTicksGranted();
            return v;
        });
        t.addRatioPermille(
            "nvmc.window.utilization_permille",
            [this] {
                std::uint64_t v = 0;
                for (const auto& ch : channels_)
                    v += ch->nvmc()->dma().stats().busyTicks.value();
                return v;
            },
            [this] {
                std::uint64_t v = 0;
                for (const auto& ch : channels_)
                    v += ch->nvmc()->windowTicksGranted();
                return v;
            });
    }
    if (channels_[0]->ftl()) {
        t.addDelta("ftl.gc_relocations", [this] {
            std::uint64_t v = 0;
            for (const auto& ch : channels_)
                v += ch->ftl()->stats().gcRelocations.value();
            return v;
        });
    }
}

std::uint32_t
NvdimmcSystem::totalSlotCount() const
{
    std::uint32_t total = 0;
    for (const auto& ch : channels_)
        total += ch->layout().slotCount();
    return total;
}

void
NvdimmcSystem::precondition(std::uint64_t first_page,
                            std::uint32_t pages, bool dirty)
{
    part(driver_, "precondition()");
    const std::uint64_t device_pages =
        driver_->capacityBytes() / driver::NvdcDriver::kPageBytes;
    NVDC_ASSERT(first_page <= device_pages &&
                    pages <= device_pages - first_page,
                "precondition of ", pages, " pages from page ",
                first_page, " runs past the device's ", device_pages,
                " pages");

    // Check capacity per channel slice before touching anything.
    std::vector<std::uint32_t> demand(channels_.size(), 0);
    for (std::uint32_t i = 0; i < pages; ++i)
        ++demand[driver_->channelOf(first_page + i)];
    for (std::uint32_t c = 0; c < channels_.size(); ++c) {
        auto& cache = driver_->cache(c);
        NVDC_ASSERT(demand[c] <=
                        cache.slotCount() - cache.usedSlots(),
                    "preconditioning more pages than free slots");
    }

    // Per channel, the 4-slot metadata lines the pages land in.
    std::vector<std::vector<bool>> touched(channels_.size());
    for (std::uint32_t c = 0; c < channels_.size(); ++c)
        touched[c].resize((driver_->cache(c).slotCount() + 3) / 4);
    for (std::uint32_t i = 0; i < pages; ++i) {
        std::uint64_t dev_page = first_page + i;
        std::uint32_t c = driver_->channelOf(dev_page);
        auto& cache = driver_->cache(c);
        std::uint32_t slot = cache.allocate(driver_->localPage(dev_page));
        cache.finishFill(slot);
        if (dirty)
            cache.markDirty(slot);
        touched[c][slot / 4] = true;
    }

    // Keep the in-DRAM metadata consistent (the firmware's power-fail
    // dump reads it from the array): write each touched line once, in
    // its final state.
    for (std::uint32_t c = 0; c < channels_.size(); ++c) {
        Channel& chan = *channels_[c];
        for (std::uint32_t line = 0; line < touched[c].size(); ++line) {
            if (!touched[c][line])
                continue;
            std::uint32_t first = line * 4;
            auto bytes = driver_->metadataLine(c, first);
            chan.dram().writeBurst(
                chan.map().decompose(chan.layout().metadataAddr(first)),
                bytes.data());
        }
    }
}

void
NvdimmcSystem::registerStats(StatRegistry& reg) const
{
    const auto n = channelCount();
    const bool several = n > 1;
    // A flat aggregate: get(channel) summed in channel order.
    auto summed = [this](auto get) {
        return [this, get] {
            double v = 0;
            for (const auto& ch : channels_)
                v += static_cast<double>(get(*ch));
            return v;
        };
    };

    for (std::uint32_t i = 0; i < n; ++i) {
        const Channel& ch = *channels_[i];
        ch.dram().registerStats(reg, channelStatName(i, n, "dram"));
        ch.bus().registerStats(reg, channelStatName(i, n, "bus"));
        ch.imc().registerStats(reg, channelStatName(i, n, "imc"));
    }
    if (several) {
        reg.add("dram.refreshes", summed([](const Channel& ch) {
                    return ch.dram().stats().refreshes.value();
                }));
        // Worst-case host stall: the acceptance metric for refresh
        // staggering is the *max* across channels, not the mean. The
        // pmem baseline's channels refresh in step, with nothing to
        // stagger.
        if (!pmem_) {
            reg.add("imc.refresh.overhead_pct", [this] {
                Tick worst = 0;
                for (const auto& ch : channels_)
                    worst = std::max(
                        worst,
                        ch->imc().stats().refreshBlockedTicks.value());
                const Tick now = eq_.now();
                return now == 0 ? 0.0
                                : 100.0 * static_cast<double>(worst) /
                                      static_cast<double>(now);
            });
        }
    }

    cpuCache_->registerStats(reg, "cpu");
    if (pmem_) {
        const auto& st = pmem_->stats();
        reg.addCounter("pmem.read_ops", st.readOps);
        reg.addCounter("pmem.write_ops", st.writeOps);
        reg.add("pmem.op_latency_mean_us",
                [this] { return pmem_->stats().latency.mean() / 1e6; });
        return;
    }
    driver_->registerStats(reg, "nvdc");

    // Flat aliases predating the hierarchical names; sweep scripts
    // and the snapshot tests key on these.
    auto cache = [this, &summed](Counter driver::DramCacheStats::*counter) {
        const driver::NvdcDriver* drv = driver_.get();
        return summed([drv, counter](const Channel& ch) {
            return (drv->cache(ch.index()).stats().*counter).value();
        });
    };
    reg.add("cache.hits", cache(&driver::DramCacheStats::hits));
    reg.add("cache.misses", cache(&driver::DramCacheStats::misses));
    reg.add("cache.hit_rate", [this] {
        double hits = 0, misses = 0;
        for (const auto& ch : channels_) {
            const auto& st = driver_->cache(ch->index()).stats();
            hits += static_cast<double>(st.hits.value());
            misses += static_cast<double>(st.misses.value());
        }
        double total = hits + misses;
        return total == 0 ? 0.0 : hits / total;
    });

    if (channels_[0]->nvmc()) {
        for (std::uint32_t i = 0; i < n; ++i)
            channels_[i]->nvmc()->registerStats(
                reg, channelStatName(i, n, "nvmc"));
        if (several) {
            reg.add("nvmc.dma.bytes_moved", summed([](const Channel& ch) {
                        return ch.nvmc()->dma().stats().bytesMoved.value();
                    }));
            reg.add("nvmc.window.utilization_pct", [this] {
                double used = 0, open = 0;
                for (const auto& ch : channels_) {
                    used += static_cast<double>(
                        ch->nvmc()->dma().stats().busyTicks.value());
                    open += static_cast<double>(
                        ch->nvmc()->windowTicksGranted());
                }
                return open == 0 ? 0.0 : 100.0 * used / open;
            });
        }
        auto fw = [&summed](Counter nvmc::FirmwareStats::*counter) {
            return summed([counter](const Channel& ch) {
                return (ch.nvmc()->firmware().stats().*counter).value();
            });
        };
        reg.add("fw.cp_polls", fw(&nvmc::FirmwareStats::cpPolls));
        reg.add("fw.commands", fw(&nvmc::FirmwareStats::commandsAccepted));
        reg.add("fw.acks", fw(&nvmc::FirmwareStats::acksWritten));
        reg.add("fw.op_latency_mean_us", [this] {
            double sum = 0;
            std::uint64_t count = 0;
            for (const auto& ch : channels_) {
                const auto& h = ch->nvmc()->firmware().stats().opLatency;
                sum += h.sum();
                count += h.count();
            }
            return count == 0 ? 0.0
                              : sum / static_cast<double>(count) / 1e6;
        });
    }
    if (channels_[0]->ftl()) {
        for (std::uint32_t i = 0; i < n; ++i) {
            channels_[i]->ftl()->registerStats(
                reg, channelStatName(i, n, "ftl"));
            channels_[i]->znand()->registerStats(
                reg, channelStatName(i, n, "znand"));
        }
    }
}

void
NvdimmcSystem::dumpStats(std::ostream& os) const
{
    StatRegistry reg;
    registerStats(reg);
    reg.dump(os);
}

void
NvdimmcSystem::dumpStatsJson(std::ostream& os) const
{
    StatRegistry reg;
    registerStats(reg);
    reg.dumpJson(os);
}

bool
NvdimmcSystem::hardwareClean() const
{
    for (const auto& ch : channels_) {
        if (ch->bus().conflictCount() != 0 ||
            ch->dram().stats().violations.value() != 0)
            return false;
    }
    return true;
}

} // namespace nvdimmc::core
