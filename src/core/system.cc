#include "core/system.hh"

#include <string>

#include "backend/nvdimmc_backend.hh"
#include "common/logging.hh"

namespace nvdimmc::core
{

NvdimmcSystem::NvdimmcSystem(const SystemConfig& cfg) : cfg_(cfg)
{
    NVDC_ASSERT(cfg_.channels >= 1, "system needs at least one channel");
    NVDC_ASSERT(cfg_.backendKind != backend::BackendKind::Pmem,
                "the pmem baseline is BaselineSystem, not a "
                "NvdimmcSystem transport");
    if (cfg_.threads != 0) {
        panic("NvdimmcSystem: SystemConfig::threads = ", cfg_.threads,
              " is not supported; the serial event kernel is the only "
              "machine model, so threads must be 0");
    }
    const bool is_cxl =
        cfg_.backendKind == backend::BackendKind::CxlHybrid;
    if (!is_cxl && cfg_.channels > 1 &&
        cfg_.interleaveGranule != dram::ChannelInterleave::kPageGranule) {
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
            eq_, *cpuCache_, layouts,
            backend::NvdimmcBackendConfig{cfg_.driver.cpWriteCost,
                                          cfg_.driver.ackPollInterval});
        for (std::uint32_t i = 0; i < channels_.size(); ++i)
            if (channels_[i]->nvmc())
                nvdc_transport->attachNvmc(i, channels_[i]->nvmc());
        transport_ = std::move(nvdc_transport);
    }

    driver_ = std::make_unique<driver::NvdcDriver>(
        eq_, *cpuCache_, *engine_, std::move(layouts), backend_pages,
        cfg_.driver, *transport_);

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
NvdimmcSystem::registerTelemetry(telemetry::Collector& t)
{
    // Sampled in registration order, which depends only on the
    // config (the byte-identity contract, DESIGN §9).
    driver::NvdcDriver* drv = driver_.get();
    t.addGauge("nvdc.miss_queue_depth", [drv] {
        return static_cast<std::uint64_t>(drv->pendingFillCount());
    });
    t.addGauge("nvdc.writeback_backlog", [drv] {
        return static_cast<std::uint64_t>(drv->pendingWritebackCount());
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
    t.addGauge("backend.queue_depth",
               [this] { return transport_->queueDepth(); });
    t.addDelta("dram.refreshes", [this] {
        std::uint64_t v = 0;
        for (const auto& ch : channels_)
            v += ch->dram().refreshCount();
        return v;
    });
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
    if (channels_.size() == 1) {
        // The legacy single-channel namespace, bit-for-bit.
        const Channel& ch = *channels_[0];
        ch.dram().registerStats(reg, "dram");
        ch.bus().registerStats(reg, "bus");
        ch.imc().registerStats(reg, "imc");
        cpuCache_->registerStats(reg, "cpu");
        driver_->registerStats(reg, "nvdc");

        // Flat aliases predating the hierarchical names; sweep scripts
        // and the snapshot tests key on these.
        const auto& cache_stats = driver_->cache().stats();
        reg.addCounter("cache.hits", cache_stats.hits);
        reg.addCounter("cache.misses", cache_stats.misses);
        reg.add("cache.hit_rate",
                [this] { return driver_->cache().stats().hitRate(); });

        if (ch.nvmc()) {
            ch.nvmc()->registerStats(reg, "nvmc");
            const auto& fw = ch.nvmc()->firmware().stats();
            reg.addCounter("fw.cp_polls", fw.cpPolls);
            reg.addCounter("fw.commands", fw.commandsAccepted);
            reg.addCounter("fw.acks", fw.acksWritten);
            reg.add("fw.op_latency_mean_us", [this] {
                return channels_[0]
                           ->nvmc()
                           ->firmware()
                           .stats()
                           .opLatency.mean() /
                       1e6;
            });
        }
        if (ch.ftl()) {
            ch.ftl()->registerStats(reg, "ftl");
            ch.znand()->registerStats(reg, "znand");
        }
        return;
    }

    // Multi-channel: per-channel hardware under ch<i>.*, aggregates
    // under the legacy un-prefixed names so sweep tooling keeps
    // working across channel counts.
    for (std::uint32_t i = 0; i < channels_.size(); ++i) {
        const Channel& ch = *channels_[i];
        std::string p = "ch" + std::to_string(i) + ".";
        ch.dram().registerStats(reg, p + "dram");
        ch.bus().registerStats(reg, p + "bus");
        ch.imc().registerStats(reg, p + "imc");
    }
    reg.add("dram.refreshes", [this] {
        double v = 0;
        for (const auto& ch : channels_)
            v += static_cast<double>(
                ch->dram().stats().refreshes.value());
        return v;
    });
    // Worst-case host stall: the acceptance metric for refresh
    // staggering is the *max* across channels, not the mean.
    reg.add("imc.refresh.overhead_pct", [this] {
        Tick now = eq_.now();
        if (now == 0)
            return 0.0;
        double worst = 0;
        for (const auto& ch : channels_) {
            double pct =
                100.0 *
                static_cast<double>(
                    ch->imc().stats().refreshBlockedTicks.value()) /
                static_cast<double>(now);
            if (pct > worst)
                worst = pct;
        }
        return worst;
    });

    cpuCache_->registerStats(reg, "cpu");
    driver_->registerStats(reg, "nvdc");

    reg.add("cache.hits", [this] {
        double v = 0;
        for (std::uint32_t c = 0; c < driver_->channelCount(); ++c)
            v += static_cast<double>(
                driver_->cache(c).stats().hits.value());
        return v;
    });
    reg.add("cache.misses", [this] {
        double v = 0;
        for (std::uint32_t c = 0; c < driver_->channelCount(); ++c)
            v += static_cast<double>(
                driver_->cache(c).stats().misses.value());
        return v;
    });
    reg.add("cache.hit_rate", [this] {
        double hits = 0, misses = 0;
        for (std::uint32_t c = 0; c < driver_->channelCount(); ++c) {
            hits += static_cast<double>(
                driver_->cache(c).stats().hits.value());
            misses += static_cast<double>(
                driver_->cache(c).stats().misses.value());
        }
        double total = hits + misses;
        return total == 0 ? 0.0 : hits / total;
    });

    bool any_nvmc = false;
    for (std::uint32_t i = 0; i < channels_.size(); ++i) {
        const Channel& ch = *channels_[i];
        if (!ch.nvmc())
            continue;
        any_nvmc = true;
        ch.nvmc()->registerStats(reg,
                                 "ch" + std::to_string(i) + ".nvmc");
    }
    if (any_nvmc) {
        reg.add("nvmc.dma.bytes_moved", [this] {
            double v = 0;
            for (const auto& ch : channels_)
                if (ch->nvmc())
                    v += static_cast<double>(
                        ch->nvmc()->dma().stats().bytesMoved.value());
            return v;
        });
        reg.add("nvmc.window.utilization_pct", [this] {
            double used = 0, open = 0;
            for (const auto& ch : channels_) {
                if (!ch->nvmc())
                    continue;
                used += static_cast<double>(
                    ch->nvmc()->dma().stats().busyTicks.value());
                open += static_cast<double>(
                    ch->nvmc()->windowTicksGranted());
            }
            return open == 0 ? 0.0 : 100.0 * used / open;
        });
        reg.add("fw.cp_polls", [this] {
            double v = 0;
            for (const auto& ch : channels_)
                if (ch->nvmc())
                    v += static_cast<double>(
                        ch->nvmc()->firmware().stats().cpPolls.value());
            return v;
        });
        reg.add("fw.commands", [this] {
            double v = 0;
            for (const auto& ch : channels_)
                if (ch->nvmc())
                    v += static_cast<double>(ch->nvmc()
                                                 ->firmware()
                                                 .stats()
                                                 .commandsAccepted
                                                 .value());
            return v;
        });
        reg.add("fw.acks", [this] {
            double v = 0;
            for (const auto& ch : channels_)
                if (ch->nvmc())
                    v += static_cast<double>(ch->nvmc()
                                                 ->firmware()
                                                 .stats()
                                                 .acksWritten.value());
            return v;
        });
        reg.add("fw.op_latency_mean_us", [this] {
            double sum = 0;
            std::uint64_t count = 0;
            for (const auto& ch : channels_) {
                if (!ch->nvmc())
                    continue;
                const auto& h = ch->nvmc()->firmware().stats().opLatency;
                sum += h.mean() * static_cast<double>(h.count());
                count += h.count();
            }
            return count == 0 ? 0.0
                              : sum / static_cast<double>(count) / 1e6;
        });
    }
    for (std::uint32_t i = 0; i < channels_.size(); ++i) {
        const Channel& ch = *channels_[i];
        if (!ch.ftl())
            continue;
        std::string p = "ch" + std::to_string(i) + ".";
        ch.ftl()->registerStats(reg, p + "ftl");
        ch.znand()->registerStats(reg, p + "znand");
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

BaselineSystem::BaselineSystem(const BaselineConfig& cfg) : cfg_(cfg)
{
    NVDC_ASSERT(cfg_.channels >= 1, "system needs at least one channel");
    NVDC_ASSERT(cfg_.interleaveGranule ==
                        dram::ChannelInterleave::kPageGranule ||
                    cfg_.interleaveGranule ==
                        dram::ChannelInterleave::kLineGranule,
                "baseline interleave granule must be 4096 or 256");

    for (std::uint32_t i = 0; i < cfg_.channels; ++i) {
        maps_.push_back(
            std::make_unique<dram::AddressMap>(cfg.capacityBytes));
        drams_.push_back(std::make_unique<dram::DramDevice>(
            *maps_.back(), cfg.dramTiming, cfg.storeData, false));
        buses_.push_back(std::make_unique<bus::MemoryBus>(
            eq_, *drams_.back(), false));

        imc::ImcConfig imc_cfg = cfg.imc;
        if (cfg_.channels > 1)
            imc_cfg.name = "ch" + std::to_string(i) + ".imc";
        // No NVMC windows to spread: every channel refreshes at
        // phase 0.
        imcs_.push_back(std::make_unique<imc::Imc>(
            eq_, *buses_.back(), imc_cfg,
            dram::RefreshSchedule::make(
                cfg.refresh, drams_.back()->timing().tRFC, 0)));
    }

    std::vector<imc::Imc*> imcs;
    for (auto& i : imcs_)
        imcs.push_back(i.get());
    hostPort_ = std::make_unique<imc::HostPort>(
        std::move(imcs),
        dram::ChannelInterleave(cfg_.channels, cfg_.interleaveGranule));

    cpuCache_ = std::make_unique<cpu::CpuCacheModel>(eq_, *hostPort_,
                                                     cfg.cpuCache);
    engine_ = std::make_unique<cpu::MemcpyEngine>(
        eq_, *hostPort_, cpuCache_.get(), cfg.memcpy);
    driver_ = std::make_unique<driver::PmemDriver>(
        eq_, *engine_, cfg.capacityBytes * cfg_.channels, cfg.pmem);

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
BaselineSystem::registerTelemetry(telemetry::Collector& t)
{
    t.addGauge("imc.read_queue_depth", [this] {
        std::uint64_t d = 0;
        for (const auto& i : imcs_)
            d += i->readQueueDepth();
        return d;
    });
    t.addGauge("imc.wpq_depth", [this] {
        std::uint64_t d = 0;
        for (const auto& i : imcs_)
            d += i->wpqDepth();
        return d;
    });
    t.addDelta("dram.refreshes", [this] {
        std::uint64_t v = 0;
        for (const auto& d : drams_)
            v += d->refreshCount();
        return v;
    });
    t.addDelta("pmem.read_ops", [this] {
        return driver_->stats().readOps.value();
    });
    t.addDelta("pmem.write_ops", [this] {
        return driver_->stats().writeOps.value();
    });
}

void
BaselineSystem::registerStats(StatRegistry& reg) const
{
    if (imcs_.size() == 1) {
        drams_[0]->registerStats(reg, "dram");
        buses_[0]->registerStats(reg, "bus");
        imcs_[0]->registerStats(reg, "imc");
    } else {
        for (std::uint32_t i = 0; i < imcs_.size(); ++i) {
            std::string p = "ch" + std::to_string(i) + ".";
            drams_[i]->registerStats(reg, p + "dram");
            buses_[i]->registerStats(reg, p + "bus");
            imcs_[i]->registerStats(reg, p + "imc");
        }
        reg.add("dram.refreshes", [this] {
            double v = 0;
            for (const auto& d : drams_)
                v += static_cast<double>(d->stats().refreshes.value());
            return v;
        });
    }

    cpuCache_->registerStats(reg, "cpu");
    const auto& st = driver_->stats();
    reg.addCounter("pmem.read_ops", st.readOps);
    reg.addCounter("pmem.write_ops", st.writeOps);
    reg.add("pmem.op_latency_mean_us",
            [this] { return driver_->stats().latency.mean() / 1e6; });
}

void
BaselineSystem::dumpStats(std::ostream& os) const
{
    StatRegistry reg;
    registerStats(reg);
    reg.dump(os);
}

void
BaselineSystem::dumpStatsJson(std::ostream& os) const
{
    StatRegistry reg;
    registerStats(reg);
    reg.dumpJson(os);
}

} // namespace nvdimmc::core
