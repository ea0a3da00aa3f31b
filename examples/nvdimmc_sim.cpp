/**
 * @file
 * nvdimmc_sim — a configurable command-line front end to the whole
 * simulator, for exploring the design space without writing C++.
 *
 *   $ ./examples/nvdimmc_sim \
 *         "pattern=randread,bs=4096,threads=4,cached=0,media=znand"
 *
 * Accepted keys (comma-separated key=value; any other key is rejected):
 *   pattern   randread | randwrite | seqread | seqwrite   [randread]
 *   bs        access size in bytes                        [4096]
 *   threads   worker threads                              [1]
 *   cached    1 = footprint inside the DRAM cache         [1]
 *   media     znand | sttmram                             [znand]
 *   policy    lrc | lru | clock | random                  [lrc]
 *   trfc_ns   programmed tRFC                             [1250]
 *   trefi_ns  programmed tREFI                            [7800]
 *   cpdepth   CP queue depth                              [1]
 *   track_dirty / merged / prefetch   0|1                 [0]
 *   asic      1 = ASIC firmware timings                   [0]
 *   run_ms    measurement window (simulated)              [50]
 *   stats     1 = dump all per-layer statistics           [0]
 *
 * Exits 1 with a "fatal:" message naming the key or field when the
 * config is unusable: a malformed or unknown key, or refresh
 * registers the iMC and the NVMC cannot both honour (trfc_ns below
 * the DRAM's own 350 ns, or leaving no window after it; trfc_ns not
 * below trefi_ns).
 */

#include <cstdio>
#include <iostream>
#include <string>

#include "common/config.hh"
#include "common/logging.hh"
#include "core/system.hh"
#include "workload/fio.hh"

using namespace nvdimmc;

namespace
{

int
run(int argc, char** argv)
{
    Config overrides =
        argc > 1 ? Config::parse(argv[1]) : Config{};

    core::SystemConfig cfg = core::SystemConfig::scaledBench();

    std::string media = overrides.getString("media", "znand");
    if (media == "sttmram") {
        cfg.media = core::MediaKind::SttMram;
        cfg.mediaBytes = 4 * kGiB;
    } else if (media != "znand") {
        fatal("unknown media '", media, "'");
    }

    cfg.refresh.tRFC = overrides.getUint("trfc_ns", 1250) * kNs;
    cfg.refresh.tREFI = overrides.getUint("trefi_ns", 7800) * kNs;
    cfg.driver.policy = overrides.getString("policy", "lrc");
    cfg.driver.trackDirty = overrides.getBool("track_dirty", false);
    cfg.driver.mergedWbCf = overrides.getBool("merged", false);
    cfg.driver.prefetchEnabled = overrides.getBool("prefetch", false);
    if (overrides.getBool("asic", false))
        cfg.nvmc.firmware = nvmc::FirmwareConfig::asic();
    cfg.driver.cpQueueDepth = static_cast<std::uint32_t>(
        overrides.getUint("cpdepth", 1));

    bool cached = overrides.getBool("cached", true);
    bool dump_stats = overrides.getBool("stats", false);
    workload::FioConfig fio;
    std::string pattern = overrides.getString("pattern", "randread");
    if (pattern == "randread") {
        fio.pattern = workload::FioConfig::Pattern::RandRead;
    } else if (pattern == "randwrite") {
        fio.pattern = workload::FioConfig::Pattern::RandWrite;
    } else if (pattern == "seqread") {
        fio.pattern = workload::FioConfig::Pattern::SeqRead;
    } else if (pattern == "seqwrite") {
        fio.pattern = workload::FioConfig::Pattern::SeqWrite;
    } else {
        fatal("unknown pattern '", pattern, "'");
    }
    fio.blockSize =
        static_cast<std::uint32_t>(overrides.getUint("bs", 4096));
    fio.threads =
        static_cast<unsigned>(overrides.getUint("threads", 1));
    fio.rampTime = 2 * kMs;
    fio.runTime = overrides.getUint("run_ms", 50) * kMs;
    overrides.rejectUnreadKeys();

    core::NvdimmcSystem sys(cfg);

    std::uint32_t slots = sys.layout().slotCount();
    if (cached) {
        sys.precondition(0, slots - 64, true);
        fio.regionBytes = std::uint64_t{slots - 64} * 4096;
    } else {
        sys.precondition(0, slots, true);
        sys.driver().markEverWritten(0, sys.backend().pageCount());
        fio.regionOffset = std::uint64_t{slots + 128} * 4096;
        fio.regionBytes =
            sys.driver().capacityBytes() - fio.regionOffset;
    }

    std::printf("nvdimmc_sim: %s bs=%u threads=%u %s media=%s "
                "policy=%s tRFC=%.0fns tREFI=%.1fus\n",
                pattern.c_str(), fio.blockSize, fio.threads,
                cached ? "cached" : "uncached", media.c_str(),
                cfg.driver.policy.c_str(),
                ticksToNs(cfg.refresh.tRFC),
                ticksToUs(cfg.refresh.tREFI));

    workload::FioJob job(
        sys.eq(),
        [&sys](Addr off, std::uint32_t len, bool is_write,
               std::function<void()> done) {
            if (is_write)
                sys.driver().write(off, len, nullptr, std::move(done));
            else
                sys.driver().read(off, len, nullptr, std::move(done));
        },
        fio);
    workload::FioResult res = job.run();

    std::printf("\n  %10.1f MB/s   %8.1f KIOPS   mean %6.2f us   "
                "p99 %6.2f us\n\n",
                res.mbps, res.kiops, ticksToUs(res.meanLatency),
                ticksToUs(res.p99));
    std::printf("  NVMC windows used: %llu, CP acks: %llu, "
                "conflicts: %llu, violations: %llu\n",
                static_cast<unsigned long long>(
                    sys.nvmc()->windowsGranted()),
                static_cast<unsigned long long>(
                    sys.nvmc()->firmware().stats().acksWritten.value()),
                static_cast<unsigned long long>(
                    sys.bus().conflictCount()),
                static_cast<unsigned long long>(
                    sys.dramDevice().stats().violations.value()));
    if (sys.ftl()) {
        std::printf("  FTL: WA %.2f, GC runs %llu, wear spread %u\n",
                    sys.ftl()->stats().writeAmplification(),
                    static_cast<unsigned long long>(
                        sys.ftl()->stats().gcRuns.value()),
                    sys.ftl()->wearSpread());
    }
    if (dump_stats) {
        std::printf("\n-- full statistics --\n");
        sys.dumpStats(std::cout);
    }
    return sys.hardwareClean() ? 0 : 1;
}

} // namespace

int
main(int argc, char** argv)
{
    try {
        return run(argc, argv);
    } catch (const FatalError&) {
        return 1; // fatal() already printed the message.
    }
}
