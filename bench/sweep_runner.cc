/**
 * @file
 * The bench driver: every paper figure and study is a declared sweep
 * of independent simulation points, spread across a thread pool.
 *
 * Sweeps, in paper order: refresh (§VII-A detector aging test), fig7
 * ... fig13, cache_policy and mixedload (§VII-B5), ablation (§VII-C),
 * variants (§VIII), then channels, latency, telemetry, faults and
 * backends. Each paper point carries the paper's value as a paper_*
 * metric, and each figure sweep pins at least one metric as an exact
 * anchor: a point whose anchor drifts fails.
 *
 * Each point builds its own EventQueue and system and runs wholly on
 * one worker, whose span, trace, telemetry and flight recorders are
 * thread-local. Simulations therefore share no mutable state and the
 * results are byte-identical to a serial run regardless of --jobs;
 * `--verify` proves that by running every selected sweep serially
 * first and comparing the formatted results.
 *
 * The observability exports write one line (or series) per point,
 * labelled sweep/point, in declaration order:
 *
 *   --stats[=FILE]              system stat dump (stats.jsonl)
 *   --latency-breakdown[=FILE]  per-op-class per-phase span table on
 *                               stdout plus its JSON line
 *                               (latency_breakdown.jsonl)
 *   --telemetry[=FILE]          time-series telemetry every 4 x tREFI
 *                               (telemetry.jsonl); implies spans
 *   --trace[=FILE]              Chrome trace of the point
 *                               (trace.json)
 *   --flight-dump[=FILE]        arm the flight recorder, dump when
 *                               the point ends (flight.json)
 *   --trace-max-events=N        override the tracer's event cap
 *
 * Each worker resets its recorders before a point and renders the
 * point's export text while the point's device is alive; the driver
 * writes the text in declaration order. --trace and --flight-dump
 * capture one simulation, so they need --sweep to select exactly one
 * point. The verify pass runs without exports, so it never writes.
 *
 * Usage:
 *   sweep_runner [--sweep NAME|NAME/POINT-PREFIX|all]... [--jobs N]
 *                [--json FILE] [--verify] [--list] [exports...]
 */

#include <algorithm>
#include <atomic>
#include <chrono>
#include <cstdint>
#include <cstdlib>
#include <fstream>
#include <functional>
#include <iostream>
#include <memory>
#include <sstream>
#include <string>
#include <thread>
#include <tuple>
#include <utility>
#include <vector>

#include "bench_systems.hh"
#include "common/telemetry.hh"
#include "common/trace.hh"
#include "driver/dram_cache.hh"
#include "driver/nvdimmf_driver.hh"
#include "fault/campaign.hh"
#include "ftl/ftl.hh"
#include "workload/filecopy.hh"
#include "workload/ssd.hh"
#include "workload/stream.hh"
#include "workload/tpch.hh"

namespace nvdimmc::bench
{
namespace
{

using backend::BackendKind;
using workload::FioConfig;

using Metrics = std::vector<std::pair<std::string, double>>;

/**
 * One sweep point's outcome: named metrics plus host wall time. The
 * wall time lands in the JSON export only, never in formatPoint, so
 * the --verify serial-vs-parallel comparison stays deterministic.
 */
struct PointResult
{
    Metrics metrics;
    std::string error;
    double wallMs = 0.0;
    /** The point's device, kept alive until its worker has rendered
     *  its exports (null for points without one). */
    std::unique_ptr<BenchDevice> device;
    /** The point's export text, rendered on its worker. */
    std::string stats, breakdownTable, breakdown, telemetry;
    /** Events the point's trace capture dropped at its cap. */
    std::uint64_t traceDropped = 0;
};

struct SweepPoint
{
    std::string name;
    std::function<PointResult()> run;
    /** Metrics pinned to exact values; a drift fails the point. */
    Metrics anchors = {};
};

struct Sweep
{
    std::string name;
    std::vector<SweepPoint> points;
};

/** Pin @p anchors of point @p name to exact values. */
void
pin(Sweep& sweep, const std::string& name, Metrics anchors)
{
    for (SweepPoint& point : sweep.points) {
        if (point.name == name) {
            point.anchors = std::move(anchors);
            return;
        }
    }
    panic("sweep ", sweep.name, " has no point ", name);
}

std::unique_ptr<BenchDevice>
keep(BenchDevice dev)
{
    return std::make_unique<BenchDevice>(std::move(dev));
}

/**
 * Append the hierarchical observability stats the sweep reports
 * alongside throughput. Values are deterministic, so they take part
 * in the --verify serial-vs-parallel comparison.
 */
void
appendSystemStats(PointResult& out, const core::NvdimmcSystem& sys)
{
    static const char* const kReported[] = {
        "nvmc.window.utilization_pct",
        "nvmc.dma.bytes_moved",
        "imc.refresh.overhead_pct",
        "cache.hit_rate",
        "dram.refreshes",
    };
    StatRegistry reg;
    sys.registerStats(reg);
    for (const auto& [name, value] : reg.collect()) {
        for (const char* want : kReported) {
            if (name == want)
                out.metrics.emplace_back(name, value);
        }
        // Per-channel refresh overhead (ch<i>.imc.refresh.overhead_pct)
        // only exists on multi-channel topologies; report it so the
        // channels sweep shows the stagger across modules.
        if (name.rfind("ch", 0) == 0 &&
            name.find(".imc.refresh.overhead_pct") != std::string::npos)
            out.metrics.emplace_back(name, value);
    }
}

/**
 * One FIO measurement: the device (backend, cached or all-miss,
 * channel count, config tweak), the load, and the paper's values.
 * Field order is the designated-initializer order.
 */
struct FioSpec
{
    BackendKind backend = BackendKind::Nvdimmc;
    bool uncached = false;
    std::uint32_t channels = 1;
    FioConfig::Pattern pattern = FioConfig::Pattern::RandRead;
    std::uint32_t blockSize = 4096;
    unsigned threads = 1;
    Tick rampTime = 2 * kMs;
    Tick runTime = 25 * kMs;
    std::function<void(core::SystemConfig&)> tweak = {};
    double paperMBps = 0.0;
    double paperKiops = 0.0;
    /** Append the window/refresh/cache stats (appendSystemStats). */
    bool systemStats = false;
};

Metrics
fioMetrics(const workload::FioResult& res)
{
    return {{"MBps", res.mbps},
            {"KIOPS", res.kiops},
            {"lat_us", ticksToUs(res.meanLatency)},
            {"ops", static_cast<double>(res.ops)}};
}

/** The FIO point helper every figure shares: run @p spec's load on
 *  @p dev over its cached or miss region. */
PointResult
fioPoint(const FioSpec& spec, BenchDevice dev)
{
    FioConfig cfg;
    cfg.pattern = spec.pattern;
    cfg.blockSize = spec.blockSize;
    cfg.threads = spec.threads;
    cfg.rampTime = spec.rampTime;
    cfg.runTime = spec.runTime;
    std::tie(cfg.regionOffset, cfg.regionBytes) =
        spec.uncached ? dev.missRegion() : dev.cachedRegion();
    PointResult out;
    out.metrics = fioMetrics(runFio(dev.sys->eq(), dev.access(), cfg));
    if (spec.paperMBps > 0)
        out.metrics.emplace_back("paper_MBps", spec.paperMBps);
    if (spec.paperKiops > 0)
        out.metrics.emplace_back("paper_KIOPS", spec.paperKiops);
    if (spec.systemStats)
        appendSystemStats(out, *dev.sys);
    if (!dev.sys->hardwareClean())
        out.error = "bus conflict detected";
    out.device = keep(std::move(dev));
    return out;
}

PointResult
fioPoint(const FioSpec& spec)
{
    return fioPoint(spec, makeDevice(spec.backend, spec.uncached,
                                     spec.channels, spec.tweak));
}

void
addFio(Sweep& sweep, std::string name, FioSpec spec)
{
    sweep.points.push_back(
        {std::move(name), [spec] { return fioPoint(spec); }});
}

constexpr std::pair<FioConfig::Pattern, const char*> kRandPatterns[] = {
    {FioConfig::Pattern::RandRead, "rand_read"},
    {FioConfig::Pattern::RandWrite, "rand_write"},
};

/**
 * One TPC-H query @p qid storage replay (SAP HANA access trace) on
 * the all-miss device fronted by @p kind, normalized to the pmem
 * baseline run in the same point (the pmem backend anchors at 1.0).
 */
PointResult
runBackendTpchPoint(BackendKind kind, int qid)
{
    const auto& spec =
        workload::tpchQuerySpecs()[static_cast<std::size_t>(qid - 1)];
    workload::TpchRunConfig run_cfg;
    run_cfg.dbBytes = 3 * kGiB;
    run_cfg.maxAccesses = 6000;
    run_cfg.parallelism = 4;

    BenchDevice base = makeDevice(BackendKind::Pmem, /*uncached=*/false);
    Tick t_base = workload::runTpchQuery(base.sys->eq(), base.access(),
                                         spec, run_cfg);

    BenchDevice dev = makeDevice(kind, /*uncached=*/true);
    armSpanAuditor(dev.sys->config(), spec.accessBytes);
    Tick t_dev = workload::runTpchQuery(dev.sys->eq(), dev.access(), spec,
                                        run_cfg);

    PointResult out;
    out.metrics = {
        {"elapsed_us", ticksToUs(t_dev)},
        {"normalized_slowdown", static_cast<double>(t_dev) /
                                    static_cast<double>(t_base)},
    };
    out.device = keep(std::move(dev));
    return out;
}

/** A cold device moving real bytes end to end (detailed memcpy), as
 *  the validating mixed load needs. */
BenchDevice
makeMixedloadDevice(BackendKind kind, std::uint32_t channels)
{
    BenchDevice dev;
    dev.sys = std::make_unique<core::NvdimmcSystem>(benchSystemConfig(
        [=](core::SystemConfig& c) {
            c.channels = channels;
            c.memcpy.bulkMode = false;
        },
        kind));
    return dev;
}

workload::MixedLoadConfig
mixedLoad(unsigned users)
{
    workload::MixedLoadConfig mc;
    mc.users = users;
    mc.transactionsPerUser = 4;
    mc.recordBytes = 4096;
    mc.regionBytes = std::uint64_t{users} * 32 * 4096;
    return mc;
}

/**
 * One mixed-load point: @p users concurrent users running validating
 * transactions; failures must stay 0 on every backend (the
 * durable-on-ack contract is part of the seam).
 */
PointResult
runBackendMixedloadPoint(BackendKind kind, unsigned users)
{
    BenchDevice dev = makeMixedloadDevice(kind, 1);
    workload::MixedLoadResult res =
        workload::runMixedLoad(dev.sys->eq(), dev.data(), mixedLoad(users));

    PointResult out;
    out.metrics = {
        {"transactions", static_cast<double>(res.transactions)},
        {"validation_failures",
         static_cast<double>(res.validationFailures)},
        {"txn_per_sec", static_cast<double>(res.transactions) /
                            ticksToSec(res.elapsed)},
    };
    if (res.validationFailures != 0)
        out.error = "mixedload validation failures on " +
                    std::string(backend::toString(kind));
    else if (!dev.sys->hardwareClean())
        out.error = "bus conflict detected";
    out.device = keep(std::move(dev));
    return out;
}

/**
 * Paper §VII-A: the refresh-detection aging test. A validating
 * STREAM run with the detector always on and the NVMC touching the
 * DRAM behind every REFRESH must see zero inconsistencies and zero
 * memory errors (paper). With an injected false-fire rate of
 * @p false_permille / 1000, bus collisions and DRAM protocol
 * violations appear: the downside the paper argues qualitatively.
 */
PointResult
runAgingPoint(unsigned false_permille)
{
    const bool perfect = false_permille == 0;
    core::SystemConfig cfg = core::SystemConfig::scaledBench();
    cfg.memcpy.bulkMode = false; // Real data for validation.
    cfg.nvmc.detector.falseRate = false_permille / 1000.0;
    BenchDevice dev;
    dev.sys = std::make_unique<core::NvdimmcSystem>(cfg);

    workload::StreamConfig sc;
    sc.elements = perfect ? 65536 : 16384; // 512 KB / 128 KB arrays.
    sc.iterations = perfect ? 4 : 2;
    workload::StreamResult res =
        workload::runStream(dev.sys->eq(), dev.data(), sc);

    core::NvdimmcSystem& sys = *dev.sys;
    const auto conflicts = static_cast<double>(sys.bus().conflictCount());
    const auto violations = static_cast<double>(
        sys.dramDevice().stats().violations.value());
    PointResult out;
    if (perfect)
        out.metrics = {
            {"kernels_run", static_cast<double>(res.kernelsRun)},
            {"element_mismatches",
             static_cast<double>(res.elementMismatches)},
            {"bus_conflicts", conflicts},
            {"dram_violations", violations},
            {"nvmc_windows_used",
             static_cast<double>(sys.nvmc()->windowsGranted())},
            {"paper_mismatches", 0.0},
        };
    else
        out.metrics = {
            {"false_rate_permille", static_cast<double>(false_permille)},
            {"bus_conflicts", conflicts},
            {"dram_violations", violations},
        };
    out.device = keep(std::move(dev));
    return out;
}

Sweep
makeRefreshSweep()
{
    Sweep sweep{"refresh", {}};
    sweep.points.push_back({"perfect_detector",
                            [] { return runAgingPoint(0); }});
    for (unsigned permille : {1u, 10u, 100u}) {
        sweep.points.push_back(
            {"faulty_detector/" + std::to_string(permille) + "permille",
             [permille] { return runAgingPoint(permille); }});
    }
    pin(sweep, "perfect_detector", {{"element_mismatches", 0.0},
                                    {"bus_conflicts", 0.0},
                                    {"dram_violations", 0.0}});
    return sweep;
}

/**
 * Paper Fig 7: sequential-write bandwidth while copying a large file
 * from the SATA SSD into /dev/nvdc0: a plateau at the SSD's read speed
 * (paper: 518 MB/s) while free cache slots last, collapsing to the
 * writeback+cachefill rate (paper: 68 MB/s) once the cache is full.
 * Scaled: 1.25 GiB into a 512 MiB cache (paper: 20 GB into 16 GB).
 */
PointResult
runFileCopyPoint()
{
    BenchDevice dev;
    dev.sys = std::make_unique<core::NvdimmcSystem>(benchSystemConfig());
    core::NvdimmcSystem& sys = *dev.sys;
    workload::Ssd ssd(sys.eq(), workload::Ssd::Params{});

    workload::FileCopyConfig cfg;
    cfg.fileBytes = 1280 * kMiB;
    cfg.chunkBytes = 256 * 1024;
    cfg.sampleInterval = 50 * kMs;
    cfg.cacheBytes = std::uint64_t{sys.layout().slotCount()} * 4096;
    armSpanAuditor(sys.config(), cfg.chunkBytes);
    workload::FileCopyResult res =
        workload::runFileCopy(sys.eq(), ssd, dev.access(), cfg);

    PointResult out;
    out.metrics = {
        {"cached_MBps", res.cachedPhaseMBps},
        {"uncached_MBps", res.uncachedPhaseMBps},
        {"paper_cached_MBps", 518.0},
        {"paper_uncached_MBps", 68.0},
        {"elapsed_sim_s", ticksToSec(res.elapsed)},
    };
    if (!sys.hardwareClean())
        out.error = "bus conflict detected";
    out.device = keep(std::move(dev));
    return out;
}

Sweep
makeFig7Sweep()
{
    Sweep sweep{"fig7", {}};
    sweep.points.push_back({"filecopy", runFileCopyPoint});
    pin(sweep, "filecopy", {{"uncached_MBps", 56.500913007834185}});
    return sweep;
}

/**
 * Paper Fig 8: 4 KB random reads and writes with one thread at QD1 on
 * the baseline (/dev/pmem0), NVDC-Cached (footprint inside the DRAM
 * cache) and NVDC-Uncached (every access pays writeback + cachefill);
 * plus the 16-thread cached aggregate at 1 and 4 channels, bound by
 * per-channel resources (driver lock, iMC queues) rather than one
 * thread's latency. Paper: baseline 2606/2360 MB/s, 646/576 KIOPS;
 * cached 1835/1796 MB/s, 448/438 KIOPS; uncached 57.3/58.3 MB/s,
 * 13/14.2 KIOPS.
 */
Sweep
makeFig8Sweep()
{
    struct Series
    {
        const char* name;
        BackendKind backend;
        bool uncached;
        double paper[2][2]; ///< {MB/s, KIOPS} for read, write.
    };
    static constexpr Series kSeries[] = {
        {"baseline", BackendKind::Pmem, false, {{2606, 646}, {2360, 576}}},
        {"nvdc_cached", BackendKind::Nvdimmc, false,
         {{1835, 448}, {1796, 438}}},
        {"nvdc_uncached", BackendKind::Nvdimmc, true,
         {{57.3, 13}, {58.3, 14.2}}},
    };
    Sweep sweep{"fig8", {}};
    for (const Series& s : kSeries) {
        for (int w = 0; w < 2; ++w) {
            auto [pattern, tag] = kRandPatterns[w];
            FioSpec spec{.backend = s.backend,
                         .uncached = s.uncached,
                         .pattern = pattern,
                         .rampTime = s.uncached ? 5 * kMs : 2 * kMs,
                         .runTime = s.uncached ? 150 * kMs : 30 * kMs,
                         .paperMBps = s.paper[w][0],
                         .paperKiops = s.paper[w][1]};
            addFio(sweep, std::string(s.name) + "/" + tag + "_4k", spec);
        }
    }
    for (std::uint32_t channels : {1u, 4u}) {
        for (auto [pattern, tag] : kRandPatterns) {
            FioSpec spec{.channels = channels,
                         .pattern = pattern,
                         .threads = 16,
                         .runTime = 30 * kMs};
            sweep.points.push_back(
                {"nvdc_cached_aggregate/" + std::to_string(channels) +
                     "ch/" + tag + "_4k",
                 [spec] {
                     PointResult out = fioPoint(spec);
                     out.metrics.emplace_back("channels", spec.channels);
                     return out;
                 }});
        }
    }
    pin(sweep, "baseline/rand_read_4k", {{"KIOPS", 586.1}});
    pin(sweep, "nvdc_uncached/rand_read_4k", {{"KIOPS", 12.806666666666667}});
    return sweep;
}

/**
 * Paper Fig 9: 4 KB random performance vs thread count (closed-loop
 * workers, one op in flight each). The baseline saturates near the
 * channel limit (paper: 2123 KIOPS / 8694 MB/s at 8 threads);
 * NVDC-Cached lower (driver-lock bound; paper: 1060 KIOPS reads at 8,
 * 1127 KIOPS writes at 16); NVDC-Uncached by ~4 threads at ~100 MB/s
 * (paper: 24.3 KIOPS / 99.7 MB/s; CP queue depth 1).
 */
Sweep
makeFig9Sweep()
{
    Sweep sweep{"fig9", {}};
    for (const char* series : {"baseline", "nvdc_cached", "nvdc_uncached"}) {
        const std::string name = series;
        const bool uncached = name == "nvdc_uncached";
        for (auto [pattern, tag] : kRandPatterns) {
            const bool read = pattern == FioConfig::Pattern::RandRead;
            for (unsigned t : {1u, 2u, 4u, 8u, 16u}) {
                FioSpec spec{
                    .backend = name == "baseline" ? BackendKind::Pmem
                                                  : BackendKind::Nvdimmc,
                    .uncached = uncached,
                    .pattern = pattern,
                    .threads = t,
                    .rampTime = uncached ? 5 * kMs : 2 * kMs,
                    .runTime = uncached ? 120 * kMs : 25 * kMs};
                if (name == "baseline" && t == 8) {
                    spec.paperMBps = 8694.0;
                    spec.paperKiops = 2123.0;
                } else if (name == "nvdc_cached" && read && t == 8) {
                    spec.paperMBps = 4341.0;
                    spec.paperKiops = 1060.0;
                } else if (name == "nvdc_cached" && !read && t == 16) {
                    spec.paperMBps = 4615.0;
                    spec.paperKiops = 1127.0;
                } else if (uncached && t == 4) {
                    spec.paperMBps = 99.7;
                    spec.paperKiops = 24.3;
                }
                addFio(sweep, name + "/" + tag + "/" + std::to_string(t) + "t",
                       spec);
            }
        }
    }
    pin(sweep, "nvdc_uncached/rand_read/4t", {{"KIOPS", 16.058333333333334}});
    return sweep;
}

/**
 * Paper Fig 10: cached random reads/writes from 128 B to 64 KB, one
 * thread. At small sizes the cached device is IOPS-limited and
 * competitive with the baseline (paper: 2147 vs 1867 KIOPS at 128 B);
 * bandwidth jumps between 1 KB and 4 KB as the per-op software cost
 * amortizes over the driver's 4 KB mapping; 64 KB reads reach ~3 GB/s
 * (paper: 3050 MB/s). Plus the 8-thread 128 B anchor (paper: 10.9
 * MIOPS).
 */
Sweep
makeFig10Sweep()
{
    Sweep sweep{"fig10", {}};
    for (const char* series : {"nvdc_cached", "baseline"}) {
        const std::string name = series;
        const bool baseline = name == "baseline";
        for (auto [pattern, tag] : kRandPatterns) {
            const bool read = pattern == FioConfig::Pattern::RandRead;
            for (std::uint32_t bs : {128u, 256u, 1024u, 4096u, 16384u,
                                     65536u}) {
                FioSpec spec{.backend = baseline ? BackendKind::Pmem
                                                 : BackendKind::Nvdimmc,
                             .pattern = pattern,
                             .blockSize = bs};
                if (read && bs == 128)
                    spec.paperKiops = baseline ? 1867.0 : 2147.0;
                if (read && bs == 65536 && !baseline)
                    spec.paperMBps = 3050.0;
                addFio(sweep,
                       name + "/" + tag + "/" + std::to_string(bs) + "b",
                       spec);
            }
        }
    }
    addFio(sweep, "nvdc_cached/rand_read/128b/8t",
           {.blockSize = 128,
            .threads = 8,
            .runTime = 20 * kMs,
            .paperKiops = 10900.0});
    pin(sweep, "nvdc_cached/rand_read/128b", {{"KIOPS", 2179.52}});
    return sweep;
}

/**
 * Paper Fig 11: TPC-H query time on the NVDIMM-C device normalized to
 * the baseline. Scan-bound queries run a few times slower (paper Q1:
 * 3.3x); small-random queries one to two orders of magnitude slower
 * (paper Q20: 78x), because the LRC cache misses constantly and each
 * miss costs a writeback+cachefill pair over the CP channel. Scaled:
 * the database is ~6x the DRAM cache (paper: 100 GB vs 16 GB).
 */
Sweep
makeFig11Sweep()
{
    Sweep sweep{"fig11", {}};
    for (int q = 1; q <= 22; ++q) {
        sweep.points.push_back({"q" + std::to_string(q), [q] {
            PointResult out = runBackendTpchPoint(BackendKind::Nvdimmc, q);
            if (q == 1)
                out.metrics.emplace_back("paper_slowdown", 3.3);
            if (q == 20)
                out.metrics.emplace_back("paper_slowdown", 78.0);
            return out;
        }});
    }
    pin(sweep, "q1", {{"normalized_slowdown", 3.0351041225032245}});
    pin(sweep, "q20", {{"normalized_slowdown", 33.571909120965934}});
    return sweep;
}

/**
 * Paper Fig 12 (§VII-D1): uncached 4 KB random reads on the
 * hypothetical device, where a programmable delay tD replaces the NVM
 * and the modified driver bypasses the FPGA, waiting three delays per
 * access. Paper: tD = 0 -> 1503 MB/s; 1.85 us -> 914; 3.9 us -> 681;
 * 7.8 us -> 451. The literal 3 x tD wait cannot produce those
 * bandwidths for tD > 0 (EXPERIMENTS.md), so the shape is the target;
 * the mechanistic series makes tD the media latency and runs the
 * whole CP/window path with tREFI = max(tD, 1.95 us).
 */
Sweep
makeFig12Sweep()
{
    static constexpr std::pair<Tick, double> kTd[] = {
        {0, 1503.0}, {1850, 914.0}, {3900, 681.0}, {7800, 451.0}};
    Sweep sweep{"fig12", {}};
    for (auto [td_ns, paper] : kTd) {
        const Tick td = td_ns * kNs;
        addFio(sweep, "hypothetical/" + std::to_string(td_ns) + "ns",
               {.uncached = true,
                .runTime = 60 * kMs,
                .tweak = [td](core::SystemConfig& c) {
                    c.driver.hypothetical = true;
                    c.driver.hypotheticalTd = td;
                    c.nvmcEnabled = false;
                    c.media = core::MediaKind::Delay;
                    c.mediaBytes = 4 * kGiB;
                },
                .paperMBps = paper});
    }
    for (auto [td_ns, paper] : kTd) {
        const Tick td = td_ns * kNs;
        addFio(sweep, "mechanistic/" + std::to_string(td_ns) + "ns",
               {.uncached = true,
                .rampTime = 5 * kMs,
                .runTime = 100 * kMs,
                .tweak = [td](core::SystemConfig& c) {
                    c.media = core::MediaKind::Delay;
                    c.mediaBytes = 4 * kGiB;
                    c.delayMediaLatency = td;
                    if (td > 0)
                        c.refresh.tREFI = std::max(td, 1950 * kNs);
                    // No PoC software FSM on this device.
                    c.nvmc.firmware = nvmc::FirmwareConfig::asic();
                },
                .paperMBps = paper});
    }
    pin(sweep, "hypothetical/0ns", {{"MBps", 1312.8362666666669}});
    return sweep;
}

/**
 * Paper Fig 13 (§VII-D2): host-side cached random reads under a
 * faster refresh rate, which gives the NVMC more windows but steals
 * channel time from the CPU. Paper: 1835 MB/s at tREFI (7.8 us) ->
 * 1691 (-8%) at tREFI/2 -> 1530 (-17%) at tREFI/4, one thread; 3690
 * MB/s at 16 threads under tREFI/4.
 */
Sweep
makeFig13Sweep()
{
    struct Point
    {
        int trefiNs;
        unsigned threads;
        double paperMBps;
    };
    static constexpr Point kPoints[] = {{7800, 1, 1835.0},
                                        {3900, 1, 1691.0},
                                        {1950, 1, 1530.0},
                                        {7800, 16, 0.0},
                                        {1950, 16, 3690.0}};
    Sweep sweep{"fig13", {}};
    for (const Point& pt : kPoints) {
        const Tick trefi = static_cast<Tick>(pt.trefiNs) * kNs;
        addFio(sweep,
               "trefi_" + std::to_string(pt.trefiNs) + "ns/" +
                   std::to_string(pt.threads) + "t",
               {.threads = pt.threads,
                .tweak = [trefi](core::SystemConfig& c) {
                    c.refresh.tREFI = trefi;
                },
                .paperMBps = pt.paperMBps});
    }
    pin(sweep, "trefi_7800ns/1t", {{"MBps", 1575.3216}});
    return sweep;
}

/**
 * Paper §VII-B5 in-house simulation: DRAM-cache hit rate on the TPC-H
 * workload as the cache grows from 1 GB to 16 GB under LRU (paper:
 * 78.7% -> 99.3%), plus the PoC's LRC and the CLOCK and RANDOM
 * alternatives. Scaled: a 64 Ki-page DB stands in for SF100; cache
 * sizes sweep the same 1%..16% fractions.
 */
Sweep
makeCachePolicySweep()
{
    constexpr std::uint64_t kDbPages = 65536;
    Sweep sweep{"cache_policy", {}};
    for (const char* policy : {"lru", "lrc", "clock", "random"}) {
        for (std::uint32_t pct : {1u, 2u, 4u, 8u, 16u}) {
            std::string name =
                std::string(policy) + "/" + std::to_string(pct);
            sweep.points.push_back({name, [policy, pct] {
                auto slots =
                    static_cast<std::uint32_t>(kDbPages * pct / 100);
                driver::DramCache cache(
                    slots, kDbPages,
                    driver::ReplacementPolicy::create(policy));
                const auto& specs = workload::tpchQuerySpecs();
                for (int qidx : {0, 4, 8, 16, 19, 20}) {
                    workload::replayTpchOnCache(
                        cache,
                        specs[static_cast<std::size_t>(qidx)],
                        kDbPages, 60000, 11);
                }
                PointResult res;
                res.metrics.emplace_back(
                    "hit_rate_pct", cache.stats().hitRate() * 100.0);
                if (std::string(policy) == "lru" && pct == 1)
                    res.metrics.emplace_back("paper_hit_rate_pct", 78.7);
                if (std::string(policy) == "lru" && pct == 16)
                    res.metrics.emplace_back("paper_hit_rate_pct", 99.3);
                return res;
            }});
        }
    }
    pin(sweep, "lru/1", {{"hit_rate_pct", 26.933993555724033}});
    return sweep;
}

/**
 * Paper §VII-B5 mixed-load IMDB benchmark: N concurrent users running
 * validating transactions. The paper reports 500 users completing
 * with zero corruption; validation failures must stay 0.
 */
Sweep
makeMixedloadSweep()
{
    Sweep sweep{"mixedload", {}};
    for (unsigned users : {50u, 125u, 250u, 500u}) {
        sweep.points.push_back({std::to_string(users) + "users", [users] {
            PointResult out =
                runBackendMixedloadPoint(BackendKind::Nvdimmc, users);
            out.metrics.emplace_back("paper_failures", 0.0);
            return out;
        }});
    }
    pin(sweep, "125users", {{"txn_per_sec", 182201.40105589357},
                            {"validation_failures", 0.0}});
    return sweep;
}

/**
 * Paper §VII-C: the five changes an ASIC would make to fix the
 * Uncached slowdown, each a switch in this model, as an ablation of
 * 4 KB random uncached reads: (1) no CPU-controlled data paths
 * (FirmwareConfig::asic), (2) several CP commands at a time
 * (cpQueueDepth), (3) 8 KB per refresh window, (4) a merged
 * writeback+cachefill command, (5) faster media (STT-MRAM); plus dirty
 * tracking and next-page prefetch (ref [37]) as extensions.
 */
Sweep
makeAblationSweep()
{
    Sweep sweep{"ablation", {}};
    auto uncached = [](std::function<void(core::SystemConfig&)> tweak,
                       unsigned threads = 1) {
        return FioSpec{.uncached = true,
                       .threads = threads,
                       .rampTime = 5 * kMs,
                       .runTime = 120 * kMs,
                       .tweak = std::move(tweak),
                       .systemStats = true};
    };
    FioSpec poc = uncached({});
    poc.paperMBps = 57.3;
    poc.paperKiops = 13.0;
    addFio(sweep, "poc", poc);
    addFio(sweep, "asic_firmware", uncached([](core::SystemConfig& c) {
        c.nvmc.firmware = nvmc::FirmwareConfig::asic();
    }));
    for (std::uint32_t depth : {1u, 2u, 4u, 8u}) {
        addFio(sweep, "cp_depth/" + std::to_string(depth),
               uncached(
                   [depth](core::SystemConfig& c) {
                       c.driver.cpQueueDepth = depth;
                   },
                   /*threads=*/4));
    }
    addFio(sweep, "window_8k", uncached([](core::SystemConfig& c) {
        c.nvmc.bytesPerWindow = 8192;
    }));
    addFio(sweep, "merged_command", uncached([](core::SystemConfig& c) {
        c.driver.mergedWbCf = true;
    }));
    addFio(sweep, "stt_mram", uncached([](core::SystemConfig& c) {
        c.media = core::MediaKind::SttMram;
        c.mediaBytes = 4 * kGiB;
    }));
    // Read-only uncached load on a clean cache: dirty tracking removes
    // every writeback.
    sweep.points.push_back({"dirty_tracking", [] {
        core::SystemConfig cfg = core::SystemConfig::scaledBench();
        cfg.driver.trackDirty = true;
        BenchDevice dev;
        dev.sys = std::make_unique<core::NvdimmcSystem>(cfg);
        dev.sys->precondition(0, dev.sys->layout().slotCount(), false);
        return fioPoint({.uncached = true,
                         .rampTime = 5 * kMs,
                         .runTime = 120 * kMs},
                        std::move(dev));
    }});
    // Sequential uncached reads with the next-page prefetcher; needs CP
    // queue depth > 1 to overlap.
    for (bool enabled : {false, true}) {
        addFio(sweep, std::string("prefetch/") + (enabled ? "on" : "off"),
               {.uncached = true,
                .pattern = FioConfig::Pattern::SeqRead,
                .rampTime = 5 * kMs,
                .runTime = 120 * kMs,
                .tweak = [enabled](core::SystemConfig& c) {
                    c.driver.trackDirty = true;
                    c.driver.prefetchEnabled = enabled;
                    c.driver.cpQueueDepth = 4;
                }});
    }
    addFio(sweep, "everything",
           uncached(
               [](core::SystemConfig& c) {
                   c.nvmc.firmware = nvmc::FirmwareConfig::asic();
                   c.driver.cpQueueDepth = 4;
                   c.nvmc.bytesPerWindow = 8192;
                   c.driver.mergedWbCf = true;
                   c.media = core::MediaKind::SttMram;
                   c.mediaBytes = 4 * kGiB;
               },
               /*threads=*/4));
    pin(sweep, "poc", {{"KIOPS", 12.808333333333334}});
    return sweep;
}

/** NVDIMM-F: block-only NAND behind its own channel's iMC and an FTL,
 *  no DRAM cache, on a used device (reads hit real NAND pages). */
PointResult
runNvdimmFPoint(FioConfig::Pattern pattern)
{
    EventQueue eq;
    dram::AddressMap map(512 * kMiB);
    core::SystemConfig scfg = core::SystemConfig::scaledBench();
    auto nand = std::make_unique<nvm::ZNand>(eq, scfg.znand);
    auto ftl = std::make_unique<ftl::Ftl>(eq, *nand, scfg.ftl);
    ftl->preconditionSequentialFill(2 * kGiB / 4096);

    dram::DramDevice ch_dev(map, dram::Ddr4Timing::ddr4_1600(), false,
                            false);
    bus::MemoryBus bus(eq, ch_dev, false);
    imc::Imc imc(eq, bus, imc::ImcConfig{},
                 dram::RefreshSchedule::make(
                     dram::RefreshRegisters::standard(),
                     ch_dev.timing().tRFC, 0));

    driver::NvdimmFDriver drv(eq, *ftl, imc);

    FioConfig cfg;
    cfg.pattern = pattern;
    cfg.blockSize = 4096;
    cfg.threads = 1;
    cfg.regionBytes = 2 * kGiB;
    cfg.rampTime = 5 * kMs;
    cfg.runTime = 100 * kMs;
    workload::FioJob job(
        eq,
        [&drv](Addr off, std::uint32_t len, bool is_write,
               std::function<void()> done) {
            if (is_write)
                drv.write(off, len, nullptr, std::move(done));
            else
                drv.read(off, len, nullptr, std::move(done));
        },
        cfg);
    PointResult out;
    out.metrics = fioMetrics(job.run());
    return out;
}

/**
 * NVDIMM-variant comparison (paper §VIII) on 4 KB random reads and
 * writes: NVDIMM-C gives DRAM-class hits that NVDIMM-F (block-only
 * NAND, no DRAM cache) cannot.
 */
Sweep
makeVariantsSweep()
{
    Sweep sweep{"variants", {}};
    for (auto [pattern, tag] : kRandPatterns) {
        sweep.points.push_back({std::string("nvdimmf/") + tag,
                                [pattern] {
                                    return runNvdimmFPoint(pattern);
                                }});
    }
    for (auto [pattern, tag] : kRandPatterns)
        addFio(sweep, std::string("nvdc_cached/") + tag, {.pattern = pattern});
    pin(sweep, "nvdimmf/rand_read", {{"KIOPS", 38.849999999999994}});
    return sweep;
}

/**
 * The channel-scaling sweep: an N-module topology under a cached
 * random 4 KB load with enough threads that aggregate bandwidth is
 * bound by per-channel resources, not one thread's QD1 latency.
 */
Sweep
makeChannelsSweep()
{
    Sweep sweep{"channels", {}};
    for (std::uint32_t n : {1u, 2u, 4u}) {
        for (auto [pattern, tag] : kRandPatterns) {
            addFio(sweep, std::to_string(n) + "ch/" + tag,
                   {.channels = n,
                    .pattern = pattern,
                    .threads = 8,
                    .systemStats = true});
        }
    }
    return sweep;
}

/**
 * The random 4 KB read load the latency, telemetry and backends
 * sweeps drive: 8 threads over the cached region for 25 ms, or
 * @p miss_threads over the miss region for 40 ms.
 */
FioSpec
fig8Load(BackendKind kind, std::uint32_t channels, bool uncached,
         unsigned miss_threads)
{
    return {.backend = kind,
            .uncached = uncached,
            .channels = channels,
            .threads = uncached ? miss_threads : 8u,
            .runTime = uncached ? 40 * kMs : 25 * kMs};
}

/**
 * One latency-breakdown point: request spans on and a random 4 KB FIO
 * load on an N-channel machine; the span count and the audit verdict
 * are the result.
 */
PointResult
runLatencyPoint(std::uint32_t channels, bool uncached)
{
    span::enable();
    PointResult out =
        fioPoint(fig8Load(BackendKind::Nvdimmc, channels, uncached, 1));
    // Every span closed, phases tile end-to-end, window waits bounded.
    span::AuditResult audit = span::audit();
    out.metrics = {
        {"spans", static_cast<double>(audit.closed)},
        {"audit_ok", audit.ok() ? 1.0 : 0.0},
    };
    if (!audit.ok())
        out.error = "span audit failed";
    return out;
}

Sweep
makeLatencySweep()
{
    Sweep sweep{"latency", {}};
    auto& p = sweep.points;
    p.push_back({"1ch_cached", [] { return runLatencyPoint(1, false); }});
    p.push_back({"4ch_cached", [] { return runLatencyPoint(4, false); }});
    p.push_back({"1ch_uncached", [] { return runLatencyPoint(1, true); }});
    return sweep;
}

/**
 * Finish one telemetry point: write the collector's JSONL (the path
 * the --telemetry export drives) and report the interval count and
 * the span audit verdict (the windowed SLO percentiles drain the span
 * layer, so telemetry implies span recording).
 */
PointResult
finishTelemetryPoint(PointResult run, const char* label)
{
    const bool audit_ok = span::audit().ok();
    telemetry::Collector& collector =
        *run.device->sys->telemetryCollector();
    std::ostringstream os;
    collector.writeJsonl(os, label);
    const auto intervals = static_cast<double>(collector.records().size());

    run.metrics = {
        {"intervals", intervals},
        {"audit_ok", audit_ok ? 1.0 : 0.0},
    };
    if (!audit_ok)
        run.error = "span audit failed";
    else if (intervals == 0)
        run.error = "telemetry recorded no intervals";
    return run;
}

PointResult
runTelemetryFioPoint(std::uint32_t channels, bool uncached,
                     const char* label)
{
    telemetry::enable();
    span::enable();
    return finishTelemetryPoint(
        fioPoint(fig8Load(BackendKind::Nvdimmc, channels, uncached, 1)),
        label);
}

PointResult
runTelemetryMixedPoint(const char* label)
{
    telemetry::enable();
    span::enable();
    PointResult run;
    BenchDevice dev = makeMixedloadDevice(BackendKind::Nvdimmc, 2);
    workload::runMixedLoad(dev.sys->eq(), dev.data(), mixedLoad(125));
    run.device = keep(std::move(dev));
    return finishTelemetryPoint(std::move(run), label);
}

Sweep
makeTelemetrySweep()
{
    Sweep sweep{"telemetry", {}};
    auto& p = sweep.points;
    p.push_back({"1ch_cached", [] {
        return runTelemetryFioPoint(1, false, "fig8/1ch_cached");
    }});
    p.push_back({"4ch_cached", [] {
        return runTelemetryFioPoint(4, false, "fig8/4ch_cached");
    }});
    p.push_back({"1ch_uncached", [] {
        return runTelemetryFioPoint(1, true, "fig8/1ch_uncached");
    }});
    p.push_back({"mixedload", [] {
        return runTelemetryMixedPoint("mixedload/125users");
    }});
    return sweep;
}

/**
 * A campaign's FNV fingerprint as an exact metric: its top 52 bits fit
 * a double's mantissa, so --verify and the baseline guard compare it
 * like any counter.
 */
double
fingerprintMetric(const std::string& hex)
{
    return static_cast<double>(std::stoull(hex, nullptr, 16) >> 12);
}

/**
 * One power-fail point: cut workload @p seed at @p frac of its uncut
 * run, with or without ADR, and replay recovery. A committed record
 * corrupted under ADR fails the point.
 */
PointResult
runPowerFailPoint(std::uint64_t seed, double frac, bool adr)
{
    fault::PowerFailCampaignConfig cfg;
    cfg.seed = seed;
    cfg.adrWorks = adr;
    fault::PowerFailCampaignResult full = runPowerFailCampaign(cfg);
    cfg.haltAtTick = static_cast<Tick>(
        static_cast<double>(full.workloadElapsed) * frac);
    fault::PowerFailCampaignResult cut = runPowerFailCampaign(cfg);
    // The cut strands in-flight ops mid-span, which the span audit
    // would count as leaks; the integrity check below stands in for it.
    span::reset();

    PointResult out;
    out.metrics = {
        {"cut_tick_us", ticksToUs(cfg.haltAtTick)},
        {"transactions", static_cast<double>(cut.transactions)},
        {"committed", static_cast<double>(cut.committedRecords)},
        {"in_flight", static_cast<double>(cut.inFlightWrites)},
        {"corrupt", static_cast<double>(cut.corruptRecords)},
        {"wpq_flushed", static_cast<double>(cut.wpqFlushed)},
        {"wpq_lost", static_cast<double>(cut.wpqLost)},
        {"pages_dumped", static_cast<double>(cut.pagesDumped)},
        {"recovery_us", ticksToUs(cut.recoveryTicks)},
        {"fingerprint", fingerprintMetric(cut.fingerprint)},
    };
    if (adr && cut.corruptRecords != 0)
        out.error = "committed records corrupted despite ADR";
    return out;
}

/** One media-fault soak; a silent corruption or a broken FTL
 *  invariant fails the point. */
PointResult
runMediaPoint(const fault::MediaFaultCampaignConfig& cfg)
{
    fault::MediaFaultCampaignResult res = runMediaFaultCampaign(cfg);
    PointResult out;
    out.metrics = {
        {"reads", static_cast<double>(res.reads)},
        {"writes", static_cast<double>(res.writes)},
        {"read_errors", static_cast<double>(res.readErrorsInjected)},
        {"read_retries", static_cast<double>(res.readRetries)},
        {"retry_successes",
         static_cast<double>(res.readRetrySuccesses)},
        {"uncorrectable", static_cast<double>(res.uncorrectableReads)},
        {"program_fails",
         static_cast<double>(res.programFailsInjected)},
        {"grown_bad_blocks", static_cast<double>(res.grownBadBlocks)},
        {"gc_relocations", static_cast<double>(res.gcRelocations)},
        {"silent_corruptions",
         static_cast<double>(res.silentCorruptions)},
        {"invariants_ok", res.invariantsOk ? 1.0 : 0.0},
        {"fingerprint", fingerprintMetric(res.fingerprint)},
    };
    if (res.silentCorruptions != 0)
        out.error = "silent corruption (mismatch without an "
                    "uncorrectable-read report)";
    else if (!res.invariantsOk)
        out.error = "FTL invariants violated: " + res.invariantWhy;
    return out;
}

/** The 32-round compressed-time ageing run of workload @p seed; a
 *  divergent checkpoint-restored replay fails the point. */
PointResult
runAgeingCampaignPoint(std::uint64_t seed)
{
    fault::AgeingCampaignConfig cfg;
    cfg.seed = seed;
    cfg.rounds = 32;
    cfg.writesPerRound = 96;
    cfg.faults.readRberMean = 0.2;
    cfg.faults.wearRberSlope = 0.02;
    cfg.faults.programFailProb = 0.002;
    fault::AgeingCampaignResult res = runAgeingCampaign(cfg);
    PointResult out;
    out.metrics = {
        {"writes", static_cast<double>(res.writes)},
        {"gc_erases", static_cast<double>(res.gcErases)},
        {"gc_relocations", static_cast<double>(res.gcRelocations)},
        {"grown_bad_blocks", static_cast<double>(res.grownBadBlocks)},
        {"max_erase_count", static_cast<double>(res.maxEraseCount)},
        {"wear_spread", static_cast<double>(res.wearSpread)},
        {"silent_corruptions",
         static_cast<double>(res.silentCorruptions)},
        {"invariants_ok", res.invariantsOk ? 1.0 : 0.0},
        {"checkpoint_deterministic",
         res.checkpointDeterministic ? 1.0 : 0.0},
        {"checkpoint_kb",
         static_cast<double>(res.checkpointBytes) / 1024.0},
        {"fingerprint", fingerprintMetric(res.fingerprint)},
    };
    if (!res.checkpointDeterministic)
        out.error = "checkpoint-restored replay diverged";
    else if (res.silentCorruptions != 0 || !res.invariantsOk)
        out.error = "ageing campaign integrity failure";
    return out;
}

/**
 * The fault-campaign matrix (committed as BENCH_faults.json): for each
 * workload seed 29 + 17k, k = 0..7, power cuts at 25/50/80 % with ADR
 * and at 50 % without, the ECC soak (seed + 1000), the program-fail
 * soak (seed + 2000) and the ageing run. `--sweep faults/seed29`
 * selects one seed.
 */
Sweep
makeFaultsSweep()
{
    Sweep sweep{"faults", {}};
    auto& p = sweep.points;
    for (std::uint64_t k = 0; k < 8; ++k) {
        const std::uint64_t seed = 29 + 17 * k;
        const std::string tag = "seed" + std::to_string(seed) + "/";
        for (int pct : {25, 50, 80}) {
            p.push_back({tag + "powerfail/cut" + std::to_string(pct) +
                             "/adr",
                         [seed, pct] {
                             return runPowerFailPoint(seed, pct / 100.0,
                                                      true);
                         }});
        }
        p.push_back({tag + "powerfail/cut50/noadr", [seed] {
            return runPowerFailPoint(seed, 0.5, false);
        }});
        p.push_back({tag + "media/ecc", [seed] {
            fault::MediaFaultCampaignConfig cfg;
            cfg.seed = seed + 1000;
            cfg.faults.readRberMean = 0.9;
            cfg.faults.wearRberSlope = 0.03;
            return runMediaPoint(cfg);
        }});
        p.push_back({tag + "media/program_fail", [seed] {
            fault::MediaFaultCampaignConfig cfg;
            cfg.seed = seed + 2000;
            cfg.faults.programFailProb = 0.01;
            cfg.ops = 2500;
            return runMediaPoint(cfg);
        }});
        p.push_back({tag + "ageing",
                     [seed] { return runAgeingCampaignPoint(seed); }});
    }
    return sweep;
}

/**
 * One fig8-style head-to-head point: random 4 KB reads on an
 * @p channels-module machine fronted by @p kind, with the span-layer
 * breakdown folded into the metrics so the JSON export shows *where*
 * each interface spends the latency — the NVDIMM-C transport
 * accumulates window_wait + CP-channel time, the CXL transport zero
 * window_wait with link/device-copy time in its place, the pmem
 * baseline neither (no transport at all).
 */
PointResult
runBackendFig8Point(BackendKind kind, std::uint32_t channels,
                    bool uncached)
{
    span::enable();
    PointResult out = fioPoint(fig8Load(kind, channels, uncached, 4));
    span::AuditResult audit = span::audit();

    auto us = [](std::initializer_list<span::Phase> phases) {
        std::uint64_t ps = 0;
        for (span::Phase p : phases)
            ps += span::phaseSumPs(p);
        return static_cast<double>(ps) / 1e6;
    };
    using span::Phase;
    out.metrics.emplace_back("audit_ok", audit.ok() ? 1.0 : 0.0);
    out.metrics.emplace_back("window_wait_us", us({Phase::WindowWait}));
    out.metrics.emplace_back(
        "cp_channel_us", us({Phase::CpQueue, Phase::CpWrite, Phase::CpAck}));
    out.metrics.emplace_back(
        "link_us",
        us({Phase::LinkWait, Phase::LinkReq, Phase::LinkResp}));
    out.metrics.emplace_back("dev_copy_us", us({Phase::DevCopy}));
    if (!audit.ok())
        out.error = "span audit failed";
    return out;
}

/**
 * The backends sweep (the MediaBackend seam's head-to-head): per
 * backend, the fig8/fig11/mixedload comparison whose JSON export is
 * committed as BENCH_backends.json, plus a 4-channel fig8 smoke.
 */
Sweep
makeBackendsSweep()
{
    Sweep sweep{"backends", {}};
    auto& p = sweep.points;
    for (auto kind : {BackendKind::Nvdimmc, BackendKind::CxlHybrid,
                      BackendKind::Pmem}) {
        const std::string tag = backend::toString(kind);
        p.push_back({tag + "/fig8/cached", [kind] {
            return runBackendFig8Point(kind, 1, false);
        }});
        p.push_back({tag + "/fig8/uncached", [kind] {
            return runBackendFig8Point(kind, 1, true);
        }});
        p.push_back({tag + "/fig8/cached_4ch", [kind] {
            return runBackendFig8Point(kind, 4, false);
        }});
        for (int q : {1, 6, 20}) {
            p.push_back({tag + "/tpch/q" + std::to_string(q),
                         [kind, q] {
                             return runBackendTpchPoint(kind, q);
                         }});
        }
        p.push_back({tag + "/mixedload/125users", [kind] {
            return runBackendMixedloadPoint(kind, 125);
        }});
    }
    return sweep;
}

std::vector<Sweep>
allSweeps()
{
    std::vector<Sweep> all;
    for (auto make : {makeRefreshSweep, makeFig7Sweep, makeFig8Sweep,
                      makeFig9Sweep, makeFig10Sweep, makeFig11Sweep,
                      makeFig12Sweep, makeFig13Sweep, makeCachePolicySweep,
                      makeMixedloadSweep, makeAblationSweep,
                      makeVariantsSweep, makeChannelsSweep,
                      makeLatencySweep, makeTelemetrySweep,
                      makeFaultsSweep, makeBackendsSweep})
        all.push_back(make());
    return all;
}

/**
 * The sweeps and points @p wanted selects: "all", a sweep name, or a
 * sweep/point prefix of whole segments ("fig8/nvdc_cached" selects
 * fig8/nvdc_cached/rand_read_4k but not fig8/nvdc_cached_aggregate/...).
 */
std::vector<Sweep>
selectSweeps(const std::vector<std::string>& wanted)
{
    std::vector<bool> used(wanted.size(), false);
    std::vector<Sweep> out;
    for (Sweep& sweep : allSweeps()) {
        std::vector<SweepPoint> picked;
        for (SweepPoint& point : sweep.points) {
            const std::string path = sweep.name + "/" + point.name;
            bool hit = false;
            for (std::size_t i = 0; i < wanted.size(); ++i) {
                if (wanted[i] == "all" || path == wanted[i] ||
                    path.rfind(wanted[i] + "/", 0) == 0) {
                    used[i] = true;
                    hit = true;
                }
            }
            if (hit)
                picked.push_back(std::move(point));
        }
        if (!picked.empty()) {
            sweep.points = std::move(picked);
            out.push_back(std::move(sweep));
        }
    }
    for (std::size_t i = 0; i < wanted.size(); ++i) {
        if (!used[i])
            fatal("--sweep: no sweep or point matches '", wanted[i], "'");
    }
    return out;
}

std::ofstream
openOutput(const std::string& path)
{
    std::ofstream os(path);
    if (!os)
        fatal("cannot write ", path);
    return os;
}

/**
 * The observability exports. Each path is empty while its export is
 * off. Files open (truncated) before anything runs, so an unwritable
 * path fails fast. begin(), render() and end() run on the point's
 * worker and act on its thread-local recorders; open(), write() and
 * finish() run on the driver thread.
 */
struct Exports
{
    std::string statsPath;
    std::string breakdownPath;
    std::string telemetryPath;
    std::string tracePath;
    std::string flightPath;
    std::uint64_t traceMaxEvents = 0; ///< 0 = tracer default.
    std::ofstream stats, breakdown, telemetry;

    /** Spans back the breakdown, the windowed telemetry percentiles
     *  and the flight recorder's span ring. */
    bool spans() const
    {
        return !breakdownPath.empty() || !telemetryPath.empty() ||
               !flightPath.empty();
    }

    void open()
    {
        if (!statsPath.empty())
            stats = openOutput(statsPath);
        if (!breakdownPath.empty())
            breakdown = openOutput(breakdownPath);
        if (!telemetryPath.empty())
            telemetry = openOutput(telemetryPath);
        // The tracer and the flight recorder write when their point
        // ends; probe their paths now.
        for (const std::string& path : {tracePath, flightPath}) {
            if (!path.empty())
                openOutput(path);
        }
    }

    /** Set this worker's recorders up for a point: a fresh span
     *  registry, the recorders the exports read (everything off
     *  without exports), and the point's trace and flight captures. */
    void begin() const
    {
        span::reset();
        if (spans())
            span::enable();
        else
            span::disable();
        if (!telemetryPath.empty())
            telemetry::enable();
        else
            telemetry::disable();
        if (!tracePath.empty())
            trace::start(tracePath, traceMaxEvents);
        if (!flightPath.empty())
            telemetry::flightArm(flightPath);
    }

    /** Fail the point if its spans fail the audit, and render its
     *  export text while its device is alive. */
    void render(const std::string& label, PointResult& res) const
    {
        if (span::openedCount() > 0 && !span::audit().ok() &&
            res.error.empty())
            res.error = "span audit failed";
        if (res.device && !statsPath.empty()) {
            std::ostringstream os;
            os << "{\"bench\":\"" << label << "\",\"backend\":\""
               << backend::toString(res.device->sys->config().backendKind)
               << "\",\"_meta\":{\"schema_version\":"
               << telemetry::kSchemaVersion << "},\"stats\":";
            res.device->sys->dumpStatsJson(os);
            os << "}\n";
            res.stats = os.str();
        }
        if (res.device && !telemetryPath.empty() &&
            res.device->sys->telemetryCollector()) {
            std::ostringstream os;
            res.device->sys->telemetryCollector()->writeJsonl(os, label);
            res.telemetry = os.str();
        }
        if (!breakdownPath.empty() && span::openedCount() > 0) {
            std::ostringstream table, line;
            span::writeBreakdownTable(table, label);
            line << "{\"bench\":\"" << label << "\",\"breakdown\":";
            span::writeBreakdownJson(line);
            line << "}\n";
            res.breakdownTable = table.str();
            res.breakdown = line.str();
        }
    }

    /** Write the point's trace and flight dump once its device is
     *  gone. A dump the point already wrote (span audit, fault
     *  corruption) is the one worth keeping, so "flag" only writes
     *  when there is none. */
    void end(PointResult& res) const
    {
        if (!tracePath.empty()) {
            res.traceDropped = trace::droppedCount();
            if (!trace::stop())
                res.error = "cannot write " + tracePath;
        }
        if (!flightPath.empty() && telemetry::flightDumpCount() == 0 &&
            !telemetry::flightDump("flag"))
            res.error = "cannot write " + flightPath;
    }

    /** Write one point's rendered text. */
    void write(const PointResult& res)
    {
        std::cout << res.breakdownTable;
        if (stats.is_open())
            stats << res.stats;
        if (breakdown.is_open())
            breakdown << res.breakdown;
        if (telemetry.is_open())
            telemetry << res.telemetry;
    }

    /** Check every file once the last point is written. */
    void finish()
    {
        auto check = [](std::ofstream& os, const std::string& path) {
            if (os.is_open() && !os.flush())
                fatal("cannot write ", path);
        };
        check(stats, statsPath);
        check(breakdown, breakdownPath);
        check(telemetry, telemetryPath);
    }
};

/** Match "--name" (export to @p dflt) or "--name=PATH". */
bool
exportFlag(const std::string& arg, const std::string& name,
           const char* dflt, std::string& path)
{
    if (arg == name) {
        path = dflt;
        return true;
    }
    if (arg.rfind(name + "=", 0) != 0)
        return false;
    path = arg.substr(name.size() + 1);
    if (path.empty())
        fatal(name, "=: expected a path");
    return true;
}

void
checkAnchors(const SweepPoint& point, PointResult& res)
{
    for (const auto& [key, want] : point.anchors) {
        auto it = std::find_if(
            res.metrics.begin(), res.metrics.end(),
            [&key = key](const auto& m) { return m.first == key; });
        if (res.error.empty() &&
            (it == res.metrics.end() || it->second != want)) {
            std::ostringstream os;
            os.precision(17);
            os << "anchor " << key << "=" << want << " drifted to ";
            if (it == res.metrics.end())
                os << "nothing";
            else
                os << it->second;
            res.error = os.str();
        }
    }
}

/**
 * Run every point of @p sweep on up to @p jobs worker threads. Points
 * are claimed from an atomic counter and results land in a slot
 * indexed by point, so the output order (and content) never depends
 * on scheduling. A worker sets its recorders up before each point and
 * renders the point's exports before claiming the next.
 */
std::vector<PointResult>
runSweep(const Sweep& sweep, std::size_t jobs, const Exports& exports)
{
    std::vector<PointResult> results(sweep.points.size());
    std::atomic<std::size_t> next{0};

    auto work = [&] {
        for (;;) {
            std::size_t i = next.fetch_add(1);
            if (i >= sweep.points.size())
                return;
            const SweepPoint& point = sweep.points[i];
            PointResult& res = results[i];
            exports.begin();
            auto t0 = std::chrono::steady_clock::now();
            try {
                res = point.run();
            } catch (const std::exception& e) {
                res.error = e.what();
            }
            res.wallMs = std::chrono::duration<double, std::milli>(
                             std::chrono::steady_clock::now() - t0)
                             .count();
            exports.render(sweep.name + "/" + point.name, res);
            checkAnchors(point, res);
            res.device.reset();
            exports.end(res);
        }
    };

    std::vector<std::thread> pool;
    for (std::size_t t = 0; t < std::min(jobs, results.size()); ++t)
        pool.emplace_back(work);
    for (auto& th : pool)
        th.join();
    return results;
}

/** Deterministic text form of one point (wall time excluded). */
std::string
formatPoint(const SweepPoint& point, const PointResult& res)
{
    std::ostringstream os;
    os.precision(17);
    os << point.name << ":";
    if (!res.error.empty()) {
        os << " ERROR " << res.error;
        return os.str();
    }
    for (const auto& [key, value] : res.metrics)
        os << " " << key << "=" << value;
    return os.str();
}

void
writeJson(std::ostream& os, const std::vector<Sweep>& sweeps,
          const std::vector<std::vector<PointResult>>& all,
          std::size_t jobs)
{
    os.precision(17);
    os << "{\n  \"schema_version\": " << telemetry::kSchemaVersion
       << ",\n  \"jobs\": " << jobs << ",\n  \"host_cores\": "
       << std::thread::hardware_concurrency()
       << ",\n  \"sweeps\": [\n";
    for (std::size_t s = 0; s < all.size(); ++s) {
        const std::vector<PointResult>& results = all[s];
        os << "    {\"name\": \"" << sweeps[s].name
           << "\", \"points\": [\n";
        for (std::size_t i = 0; i < results.size(); ++i) {
            os << "      {\"name\": \"" << sweeps[s].points[i].name
               << "\", \"wall_ms\": " << results[i].wallMs;
            if (!results[i].error.empty()) {
                os << ", \"error\": \"" << results[i].error << "\"";
            } else {
                for (const auto& [key, value] : results[i].metrics)
                    os << ", \"" << key << "\": " << value;
            }
            os << "}" << (i + 1 < results.size() ? "," : "") << "\n";
        }
        os << "    ]}" << (s + 1 < all.size() ? "," : "") << "\n";
    }
    os << "  ]\n}\n";
}

int
sweepMain(int argc, char** argv)
{
    std::vector<std::string> wanted;
    std::size_t jobs = std::max(1u, std::thread::hardware_concurrency());
    std::string json_path;
    bool verify = false;
    bool list = false;
    Exports exports;

    for (int i = 1; i < argc; ++i) {
        std::string arg = argv[i];
        auto value = [&]() -> std::string {
            if (i + 1 >= argc)
                fatal("missing value for ", arg);
            return argv[++i];
        };
        if (arg == "--sweep") {
            wanted.push_back(value());
        } else if (arg == "--jobs") {
            jobs = parseCount(arg, value(), 1);
        } else if (arg == "--json") {
            json_path = value();
        } else if (arg == "--verify") {
            verify = true;
        } else if (arg == "--list") {
            list = true;
        } else if (exportFlag(arg, "--stats", "stats.jsonl",
                              exports.statsPath) ||
                   exportFlag(arg, "--latency-breakdown",
                              "latency_breakdown.jsonl",
                              exports.breakdownPath) ||
                   exportFlag(arg, "--telemetry", "telemetry.jsonl",
                              exports.telemetryPath) ||
                   exportFlag(arg, "--trace", "trace.json",
                              exports.tracePath) ||
                   exportFlag(arg, "--flight-dump", "flight.json",
                              exports.flightPath)) {
        } else if (arg.rfind("--trace-max-events=", 0) == 0) {
            exports.traceMaxEvents =
                parseCount("--trace-max-events", arg.substr(19));
        } else if (arg == "--help" || arg == "-h") {
            std::cout
                << "usage: sweep_runner [--sweep NAME|NAME/POINT|all]..."
                   " [--jobs N] [--json FILE]\n"
                   "                    [--verify] [--list]"
                   " [--stats[=FILE]] [--latency-breakdown[=FILE]]\n"
                   "                    [--telemetry[=FILE]]"
                   " [--trace[=FILE]] [--flight-dump[=FILE]]\n"
                   "                    [--trace-max-events=N]\n";
            return 0;
        } else {
            fatal("unknown argument ", arg);
        }
    }
    if (wanted.empty())
        wanted.push_back("all");
    const std::vector<Sweep> sweeps = selectSweeps(wanted);
    if (list) {
        for (const Sweep& sweep : sweeps) {
            for (const auto& point : sweep.points)
                std::cout << sweep.name << "/" << point.name << "\n";
        }
        return 0;
    }
    // A trace or flight dump holds one simulation: over several points
    // it would overlay unrelated runs that each start at tick 0.
    std::size_t selected = 0;
    for (const Sweep& sweep : sweeps)
        selected += sweep.points.size();
    if (selected != 1 && !(exports.tracePath + exports.flightPath).empty())
        fatal(exports.tracePath.empty() ? "--flight-dump" : "--trace",
              " takes one point, but --sweep selects ", selected);
    std::ofstream json_out;
    if (!json_path.empty())
        json_out = openOutput(json_path);
    exports.open();

    // Device models warn about injected hazards on some points;
    // keep worker output off the console.
    setLogLevel(LogLevel::Silent);

    // The reference pass runs without exports, so it never writes.
    std::vector<std::vector<PointResult>> serial;
    if (verify) {
        const Exports none;
        for (const Sweep& sweep : sweeps)
            serial.push_back(runSweep(sweep, 1, none));
    }

    int rc = 0;
    std::uint64_t traceDropped = 0;
    std::vector<std::vector<PointResult>> all;
    for (std::size_t s = 0; s < sweeps.size(); ++s) {
        const Sweep& sweep = sweeps[s];
        auto t0 = std::chrono::steady_clock::now();
        std::vector<PointResult> results = runSweep(sweep, jobs, exports);
        double wall = std::chrono::duration<double, std::milli>(
                          std::chrono::steady_clock::now() - t0)
                          .count();
        for (const PointResult& res : results) {
            exports.write(res);
            traceDropped += res.traceDropped;
        }

        if (verify) {
            bool same = true;
            for (std::size_t i = 0; i < results.size(); ++i) {
                std::string par =
                    formatPoint(sweep.points[i], results[i]);
                std::string ser =
                    formatPoint(sweep.points[i], serial[s][i]);
                if (par != ser) {
                    std::cerr << "VERIFY MISMATCH in " << sweep.name
                              << ":\n  parallel: " << par
                              << "\n  serial:   " << ser << "\n";
                    same = false;
                    rc = 1;
                }
            }
            if (same)
                std::cout << "verify " << sweep.name << ": parallel("
                          << jobs << ") == serial, "
                          << results.size() << " points\n";
        }

        std::cout << "== " << sweep.name << " (" << results.size()
                  << " points, jobs=" << jobs << ", "
                  << static_cast<std::uint64_t>(wall) << " ms) ==\n";
        for (std::size_t i = 0; i < results.size(); ++i) {
            std::cout << "  " << formatPoint(sweep.points[i],
                                             results[i])
                      << "\n";
            if (!results[i].error.empty())
                rc = 1;
        }
        all.push_back(std::move(results));
    }

    setLogLevel(LogLevel::Warn);
    if (traceDropped > 0)
        warn("trace: the capture hit its event cap; dropped ",
             traceDropped, " events (the written trace is truncated;"
             " raise it via --trace-max-events=)");
    exports.finish();
    if (json_out.is_open()) {
        writeJson(json_out, sweeps, all, jobs);
        if (!json_out.flush())
            fatal("cannot write ", json_path);
        std::cout << "wrote " << json_path << "\n";
    }
    return rc;
}

} // namespace
} // namespace nvdimmc::bench

int
main(int argc, char** argv)
{
    try {
        return nvdimmc::bench::sweepMain(argc, argv);
    } catch (const nvdimmc::FatalError&) {
        return 1; // fatal() already printed the message.
    } catch (const std::exception& e) {
        std::cerr << "sweep_runner: " << e.what() << "\n";
        return 1;
    }
}
