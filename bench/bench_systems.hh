/**
 * @file
 * System-building helpers shared by the paper-reproduction benches
 * and the sweep runner. Kept free of any benchmark-harness include so
 * plain executables (bench/sweep_runner) can link without
 * google-benchmark.
 *
 * Every helper builds a self-contained system on the scaled bench
 * configuration (512 MiB DRAM cache fronting ~3.75 GiB of exposed
 * Z-NAND; all timing parameters — tRFC 1250 ns, tREFI 7.8 us,
 * DDR4-1600 — are the paper's).
 */

#ifndef NVDIMMC_BENCH_BENCH_SYSTEMS_HH
#define NVDIMMC_BENCH_BENCH_SYSTEMS_HH

#include <functional>
#include <memory>
#include <utility>

#include "backend/media_backend.hh"
#include "common/span.hh"
#include "core/system.hh"
#include "workload/fio.hh"

namespace nvdimmc::bench
{

/**
 * A request may legitimately miss a few refresh windows (poll pacing,
 * queueing behind another op's DMA), but a span stuck waiting for
 * windows longer than this many tREFI periods indicates a detector or
 * window-accounting bug; the span auditor flags it.
 */
inline constexpr std::uint64_t kWindowWaitBudgetRefi = 32;

/** Arm the span auditor's window-wait bound for @p cfg's refresh
 *  cadence (call once per system build; idempotent). */
inline void
armSpanAuditor(const core::SystemConfig& cfg)
{
    span::setWindowWaitCap(cfg.refresh.tREFI * kWindowWaitBudgetRefi);
}

/**
 * Channel count every bench system is built with (the --channels=N
 * knob; bench_common.hh's initObservability sets it, sweep_runner sets
 * it per point). Default 1 = the PoC machine.
 */
inline std::uint32_t&
benchChannels()
{
    static std::uint32_t channels = 1;
    return channels;
}

/**
 * Media-transport backend every bench system is built with (the
 * --backend=nvdimmc|cxl|pmem knob). The benches select a backend, not
 * a wiring recipe: the factories below translate the kind into the
 * right system assembly. Default: the paper's CP-over-DDR4 module.
 */
inline backend::BackendKind&
benchBackend()
{
    static backend::BackendKind kind = backend::BackendKind::Nvdimmc;
    return kind;
}

/** Device access function over an NVDIMM-C system (timing-only). */
inline workload::AccessFn
nvdcAccess(core::NvdimmcSystem& sys)
{
    return [&sys](Addr off, std::uint32_t len, bool is_write,
                  std::function<void()> done) {
        if (is_write)
            sys.driver().write(off, len, nullptr, std::move(done));
        else
            sys.driver().read(off, len, nullptr, std::move(done));
    };
}

/** Device access function over the baseline pmem system. */
inline workload::AccessFn
pmemAccess(core::BaselineSystem& sys)
{
    return [&sys](Addr off, std::uint32_t len, bool is_write,
                  std::function<void()> done) {
        if (is_write)
            sys.driver().write(off, len, nullptr, std::move(done));
        else
            sys.driver().read(off, len, nullptr, std::move(done));
    };
}

/**
 * The one backend-aware config factory every hybrid-device bench
 * build goes through: scaled bench preset, the --channels / --backend
 * globals applied in that order, then the point's tweak (which may
 * still override either, including the backend via
 * cfg.applyCxlBackend()), and the span auditor armed for the
 * resulting refresh cadence.
 */
inline core::SystemConfig
benchSystemConfig(std::function<void(core::SystemConfig&)> tweak = {})
{
    NVDC_ASSERT(benchBackend() != backend::BackendKind::Pmem,
                "--backend=pmem builds a BaselineSystem (use "
                "makeCachedDevice / makePmemSystem), not a hybrid "
                "NvdimmcSystem");
    core::SystemConfig cfg = core::SystemConfig::scaledBench();
    cfg.channels = benchChannels();
    if (benchBackend() == backend::BackendKind::CxlHybrid)
        cfg.applyCxlBackend();
    if (tweak)
        tweak(cfg);
    armSpanAuditor(cfg);
    return cfg;
}

/**
 * Build an NVDIMM-C system whose cache is pre-populated so the given
 * region is entirely *cached* (PTEs valid); FIO over it measures the
 * NVDC-Cached series.
 */
inline std::unique_ptr<core::NvdimmcSystem>
makeCachedSystem(std::function<void(core::SystemConfig&)> tweak = {})
{
    auto sys =
        std::make_unique<core::NvdimmcSystem>(benchSystemConfig(tweak));
    // Leave 64 slots per channel free so hits never evict.
    std::uint32_t slots = sys->totalSlotCount();
    sys->precondition(0, slots - 64 * sys->channelCount(), true);
    return sys;
}

/** Usable cached-region size for a system from makeCachedSystem(). */
inline std::uint64_t
cachedRegionBytes(core::NvdimmcSystem& sys)
{
    return std::uint64_t{sys.totalSlotCount() -
                         64 * sys.channelCount()} *
           4096;
}

/**
 * Build an NVDIMM-C system whose cache is full of dirty pages from a
 * low region; FIO over the remaining device space is all-miss
 * (writeback + cachefill per access): the NVDC-Uncached series.
 */
inline std::unique_ptr<core::NvdimmcSystem>
makeUncachedSystem(std::function<void(core::SystemConfig&)> tweak = {})
{
    auto sys =
        std::make_unique<core::NvdimmcSystem>(benchSystemConfig(tweak));
    sys->precondition(0, sys->totalSlotCount(), true);
    // The paper's uncached experiments run on a device whose blocks
    // all hold data (FIO preconditions the file), so every fill is a
    // real NAND cachefill.
    sys->driver().markEverWritten(
        0, sys->driver().capacityBytes() / 4096);
    return sys;
}

/** Region descriptor for FIO against an uncached system. */
inline std::pair<Addr, std::uint64_t>
uncachedRegion(core::NvdimmcSystem& sys)
{
    Addr base = std::uint64_t{sys.totalSlotCount() +
                              128 * sys.channelCount()} *
                4096;
    return {base, sys.driver().capacityBytes() - base};
}

/**
 * Build the emulated-pmem baseline with the --channels global applied
 * (the BaselineConfig analogue of benchSystemConfig()).
 */
inline std::unique_ptr<core::BaselineSystem>
makePmemSystem(std::function<void(core::BaselineConfig&)> tweak = {})
{
    core::BaselineConfig cfg = core::BaselineConfig::scaledBench();
    cfg.channels = benchChannels();
    if (tweak)
        tweak(cfg);
    return std::make_unique<core::BaselineSystem>(cfg);
}

/**
 * One device under test, whichever backend fronts it: the hybrid
 * transports build an NvdimmcSystem, --backend=pmem builds the
 * BaselineSystem, and the bench body talks to either through the same
 * handful of calls. This is what lets fig8/fig11/mixedload run the
 * *same series* against all three backends for the head-to-head.
 */
struct BenchDevice
{
    std::unique_ptr<core::NvdimmcSystem> nvdc;
    std::unique_ptr<core::BaselineSystem> pmem;

    EventQueue& eq() { return nvdc ? nvdc->eq() : pmem->eq(); }

    workload::AccessFn access()
    {
        return nvdc ? nvdcAccess(*nvdc) : pmemAccess(*pmem);
    }

    bool hardwareClean() const
    {
        return nvdc ? nvdc->hardwareClean() : true;
    }

    void dumpStats(std::ostream& os) const
    {
        nvdc ? nvdc->dumpStats(os) : pmem->dumpStats(os);
    }

    void dumpStatsJson(std::ostream& os) const
    {
        nvdc ? nvdc->dumpStatsJson(os) : pmem->dumpStatsJson(os);
    }

    /** The active system's telemetry collector (null when telemetry
     *  was off at construction). */
    telemetry::Collector* telemetryCollector()
    {
        return nvdc ? nvdc->telemetryCollector()
                    : pmem->telemetryCollector();
    }

    /** Region an all-hit (cached) load should target. */
    std::pair<Addr, std::uint64_t> cachedRegion()
    {
        if (nvdc)
            return {0, cachedRegionBytes(*nvdc)};
        return {0, std::min<std::uint64_t>(
                       pmem->driver().capacityBytes(), 2 * kGiB)};
    }

    /** Region an all-miss (uncached) load should target. The pmem
     *  baseline has no cache to miss; it serves the same region
     *  either way. */
    std::pair<Addr, std::uint64_t> missRegion()
    {
        if (nvdc)
            return uncachedRegion(*nvdc);
        return cachedRegion();
    }
};

/** Cached-series device for the selected --backend. */
inline BenchDevice
makeCachedDevice(std::function<void(core::SystemConfig&)> tweak = {})
{
    BenchDevice d;
    if (benchBackend() == backend::BackendKind::Pmem)
        d.pmem = makePmemSystem();
    else
        d.nvdc = makeCachedSystem(std::move(tweak));
    return d;
}

/** Uncached (all-miss) series device for the selected --backend. */
inline BenchDevice
makeUncachedDevice(std::function<void(core::SystemConfig&)> tweak = {})
{
    BenchDevice d;
    if (benchBackend() == backend::BackendKind::Pmem)
        d.pmem = makePmemSystem();
    else
        d.nvdc = makeUncachedSystem(std::move(tweak));
    return d;
}

/** Run one FIO measurement point. */
inline workload::FioResult
runFio(EventQueue& eq, const workload::AccessFn& fn,
       workload::FioConfig cfg)
{
    workload::FioJob job(eq, fn, cfg);
    return job.run();
}

} // namespace nvdimmc::bench

#endif // NVDIMMC_BENCH_BENCH_SYSTEMS_HH
