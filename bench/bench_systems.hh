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

/** Device access function over @p drv, the nvdc or the pmem driver
 *  (timing-only). */
template <typename Driver>
workload::AccessFn
driverAccess(Driver& drv)
{
    return [&drv](Addr off, std::uint32_t len, bool is_write,
                  std::function<void()> done) {
        if (is_write)
            drv.write(off, len, nullptr, std::move(done));
        else
            drv.read(off, len, nullptr, std::move(done));
    };
}

/** Byte-moving access over @p drv for the validating workloads. */
template <typename Driver>
workload::DataDevice
driverData(Driver& drv)
{
    workload::DataDevice dev;
    dev.capacityBytes = drv.capacityBytes();
    dev.read = [&drv](Addr off, std::uint32_t len, std::uint8_t* buf,
                      std::function<void()> done) {
        drv.read(off, len, buf, std::move(done));
    };
    dev.write = [&drv](Addr off, std::uint32_t len,
                       const std::uint8_t* bytes,
                       std::function<void()> done) {
        drv.write(off, len, bytes, std::move(done));
    };
    return dev;
}

/**
 * The config factory every device build goes through: the scaled
 * bench preset of @p kind (SystemConfig::scaledPmem for the baseline,
 * scaledBench with cfg.applyCxlBackend() for the CXL hybrid), then the
 * point's tweak (channel count, ablation knobs), and the span auditor
 * armed for the resulting refresh cadence.
 */
inline core::SystemConfig
benchSystemConfig(std::function<void(core::SystemConfig&)> tweak = {},
                  backend::BackendKind kind = backend::BackendKind::Nvdimmc)
{
    core::SystemConfig cfg = kind == backend::BackendKind::Pmem
                                 ? core::SystemConfig::scaledPmem()
                                 : core::SystemConfig::scaledBench();
    if (kind == backend::BackendKind::CxlHybrid)
        cfg.applyCxlBackend();
    if (tweak)
        tweak(cfg);
    armSpanAuditor(cfg);
    return cfg;
}

/**
 * One device under test, whichever backend fronts it: one
 * NvdimmcSystem, which a point talks to through the same handful of
 * calls. The pmem baseline only changes which driver the access
 * functions call and which region a load targets. This is what lets
 * one point helper run the same load against all three backends for
 * the head-to-head.
 */
struct BenchDevice
{
    std::unique_ptr<core::NvdimmcSystem> sys;

    bool pmem() const
    {
        return sys->config().backendKind == backend::BackendKind::Pmem;
    }

    workload::AccessFn access()
    {
        return pmem() ? driverAccess(sys->pmemDriver())
                      : driverAccess(sys->driver());
    }

    /** Byte-moving access for the validating workloads (the
     *  closures hold the driver, not this wrapper, so the device may
     *  move after the call). */
    workload::DataDevice data()
    {
        return pmem() ? driverData(sys->pmemDriver())
                      : driverData(sys->driver());
    }

    /** Region an all-hit load should target: the cache minus the 64
     *  slots per channel makeDevice() leaves free. The pmem baseline
     *  serves its low 2 GiB. */
    std::pair<Addr, std::uint64_t> cachedRegion()
    {
        if (pmem())
            return {0, std::min<std::uint64_t>(
                           sys->pmemDriver().capacityBytes(), 2 * kGiB)};
        return {0, std::uint64_t{sys->totalSlotCount() -
                                 64 * sys->channelCount()} *
                       4096};
    }

    /** Region an all-miss load should target: everything above the
     *  preconditioned low region. The pmem baseline has no cache to
     *  miss; it serves the cached region either way. */
    std::pair<Addr, std::uint64_t> missRegion()
    {
        if (pmem())
            return cachedRegion();
        Addr base = std::uint64_t{sys->totalSlotCount() +
                                  128 * sys->channelCount()} *
                    4096;
        return {base, sys->driver().capacityBytes() - base};
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
 * NVDC-Uncached series). The pmem baseline has no cache to
 * precondition.
 */
inline BenchDevice
makeDevice(backend::BackendKind kind, bool uncached,
           std::uint32_t channels = 1,
           std::function<void(core::SystemConfig&)> tweak = {})
{
    BenchDevice dev;
    dev.sys = std::make_unique<core::NvdimmcSystem>(benchSystemConfig(
        [&](core::SystemConfig& c) {
            c.channels = channels;
            if (tweak)
                tweak(c);
        },
        kind));
    if (dev.pmem())
        return dev;
    core::NvdimmcSystem& sys = *dev.sys;
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
