/**
 * @file
 * System-building helpers for the bench driver (bench/sweep_runner),
 * plus its strict numeric-flag parser.
 *
 * Every helper builds a self-contained system on the scaled bench
 * configuration (512 MiB DRAM cache fronting ~3.75 GiB of exposed
 * Z-NAND; all timing parameters — tRFC 1250 ns, tREFI 7.8 us,
 * DDR4-1600 — are the paper's). Channel count and backend are
 * arguments, never process state, so points build concurrently.
 */

#ifndef NVDIMMC_BENCH_BENCH_SYSTEMS_HH
#define NVDIMMC_BENCH_BENCH_SYSTEMS_HH

#include <charconv>
#include <functional>
#include <memory>
#include <string>
#include <utility>

#include "backend/media_backend.hh"
#include "common/logging.hh"
#include "common/span.hh"
#include "core/system.hh"
#include "workload/fio.hh"
#include "workload/mixedload.hh"

namespace nvdimmc::bench
{

/**
 * Parse @p text as a whole decimal integer of at least @p min, or fail
 * naming @p flag (no sign, no suffix, no overflow).
 */
inline std::uint64_t
parseCount(const std::string& flag, const std::string& text,
           std::uint64_t min = 0)
{
    std::uint64_t value = 0;
    const char* end = text.data() + text.size();
    auto [ptr, ec] = std::from_chars(text.data(), end, value);
    if (text.empty() || ec != std::errc{} || ptr != end || value < min)
        fatal(flag, ": expected an integer >= ", min, ", got '", text,
              "'");
    return value;
}

/**
 * A request may legitimately miss a few refresh windows (poll pacing,
 * queueing behind another op's DMA), but a span stuck waiting for
 * windows longer than this many tREFI periods indicates a detector or
 * window-accounting bug; the span auditor flags it.
 */
inline constexpr std::uint64_t kWindowWaitBudgetRefi = 32;

/** Arm the span auditor's window-wait bound for @p cfg's refresh
 *  cadence and ops of up to @p op_bytes: a span waits for windows once
 *  per 4 KB page it misses, so the budget is per page (call once per
 *  system build; idempotent). */
inline void
armSpanAuditor(const core::SystemConfig& cfg,
               std::uint64_t op_bytes = 4096)
{
    span::setWindowWaitCap(cfg.refresh.tREFI * kWindowWaitBudgetRefi *
                           ((op_bytes + 4095) / 4096));
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
 * The config factory every hybrid-device build goes through: scaled
 * bench preset, then the point's tweak (channel count, backend via
 * cfg.applyCxlBackend(), ablation knobs), and the span auditor armed
 * for the resulting refresh cadence.
 */
inline core::SystemConfig
benchSystemConfig(std::function<void(core::SystemConfig&)> tweak = {})
{
    core::SystemConfig cfg = core::SystemConfig::scaledBench();
    if (tweak)
        tweak(cfg);
    armSpanAuditor(cfg);
    return cfg;
}

/**
 * One device under test, whichever backend fronts it: the hybrid
 * transports build an NvdimmcSystem, the pmem backend builds the
 * BaselineSystem, and a point talks to either through the same
 * handful of calls. This is what lets one point helper run the same
 * load against all three backends for the head-to-head.
 */
struct BenchDevice
{
    std::unique_ptr<core::NvdimmcSystem> nvdc;
    std::unique_ptr<core::BaselineSystem> pmem;

    EventQueue& eq() { return nvdc ? nvdc->eq() : pmem->eq(); }

    backend::BackendKind kind() const
    {
        return nvdc ? nvdc->config().backendKind
                    : backend::BackendKind::Pmem;
    }

    workload::AccessFn access()
    {
        return nvdc ? nvdcAccess(*nvdc) : pmemAccess(*pmem);
    }

    /** Byte-moving access for the validating workloads (the
     *  closures hold the system, not this wrapper, so the device may
     *  move after the call). */
    workload::DataDevice data()
    {
        workload::DataDevice dev;
        core::NvdimmcSystem* n = nvdc.get();
        core::BaselineSystem* p = pmem.get();
        dev.capacityBytes = n ? n->driver().capacityBytes()
                              : p->driver().capacityBytes();
        dev.read = [n, p](Addr off, std::uint32_t len, std::uint8_t* buf,
                          std::function<void()> done) {
            if (n)
                n->driver().read(off, len, buf, std::move(done));
            else
                p->driver().read(off, len, buf, std::move(done));
        };
        dev.write = [n, p](Addr off, std::uint32_t len,
                           const std::uint8_t* bytes,
                           std::function<void()> done) {
            if (n)
                n->driver().write(off, len, bytes, std::move(done));
            else
                p->driver().write(off, len, bytes, std::move(done));
        };
        return dev;
    }

    bool hardwareClean() const
    {
        return nvdc ? nvdc->hardwareClean() : true;
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

    /** Region an all-hit load should target: the cache minus the 64
     *  slots per channel makeDevice() leaves free. */
    std::pair<Addr, std::uint64_t> cachedRegion()
    {
        if (nvdc)
            return {0, std::uint64_t{nvdc->totalSlotCount() -
                                     64 * nvdc->channelCount()} *
                           4096};
        return {0, std::min<std::uint64_t>(
                       pmem->driver().capacityBytes(), 2 * kGiB)};
    }

    /** Region an all-miss load should target: everything above the
     *  preconditioned low region. The pmem baseline has no cache to
     *  miss; it serves the cached region either way. */
    std::pair<Addr, std::uint64_t> missRegion()
    {
        if (!nvdc)
            return cachedRegion();
        Addr base = std::uint64_t{nvdc->totalSlotCount() +
                                  128 * nvdc->channelCount()} *
                    4096;
        return {base, nvdc->driver().capacityBytes() - base};
    }
};

/**
 * Build the device for one point: @p kind on @p channels modules, with
 * @p tweak applied after channel count and backend. A hybrid cache is
 * preconditioned all-cached, leaving 64 slots per channel free so hits
 * never evict (the NVDC-Cached series), or, with @p uncached, full of
 * dirty pages from a low region on a device whose blocks all hold
 * data, as the paper's FIO-preconditioned device does, so every access
 * above it pays a writeback plus a real NAND cachefill (the
 * NVDC-Uncached series).
 */
inline BenchDevice
makeDevice(backend::BackendKind kind, bool uncached,
           std::uint32_t channels = 1,
           std::function<void(core::SystemConfig&)> tweak = {})
{
    BenchDevice dev;
    if (kind == backend::BackendKind::Pmem) {
        core::BaselineConfig cfg = core::BaselineConfig::scaledBench();
        cfg.channels = channels;
        dev.pmem = std::make_unique<core::BaselineSystem>(cfg);
        return dev;
    }
    dev.nvdc = std::make_unique<core::NvdimmcSystem>(
        benchSystemConfig([&](core::SystemConfig& c) {
            c.channels = channels;
            if (kind == backend::BackendKind::CxlHybrid)
                c.applyCxlBackend();
            if (tweak)
                tweak(c);
        }));
    core::NvdimmcSystem& sys = *dev.nvdc;
    if (uncached) {
        sys.precondition(0, sys.totalSlotCount(), true);
        sys.driver().markEverWritten(
            0, sys.driver().capacityBytes() / 4096);
    } else {
        sys.precondition(0, sys.totalSlotCount() - 64 * sys.channelCount(),
                         true);
    }
    return dev;
}

/** Run one FIO measurement. */
inline workload::FioResult
runFio(EventQueue& eq, const workload::AccessFn& fn,
       workload::FioConfig cfg)
{
    workload::FioJob job(eq, fn, cfg);
    return job.run();
}

} // namespace nvdimmc::bench

#endif // NVDIMMC_BENCH_BENCH_SYSTEMS_HH
