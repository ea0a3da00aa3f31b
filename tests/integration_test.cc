/**
 * @file
 * Whole-system integration tests: the paper's key invariants
 * end-to-end — conflict-free tRFC serialization, coherence failure
 * injection, persistence and recovery, data integrity under load.
 */

#include <gtest/gtest.h>

#include <cstring>
#include <map>
#include <vector>

#include "core/power.hh"
#include "core/system.hh"
#include "workload/mixedload.hh"
#include "workload/stream.hh"

namespace nvdimmc
{
namespace
{

using core::NvdimmcSystem;
using core::SystemConfig;

std::unique_ptr<NvdimmcSystem>
makeSystem(std::function<void(SystemConfig&)> tweak = {})
{
    SystemConfig cfg = SystemConfig::scaledTest();
    if (tweak)
        tweak(cfg);
    return std::make_unique<NvdimmcSystem>(cfg);
}

void
syncWrite(NvdimmcSystem& sys, Addr off, std::uint32_t len,
          const std::uint8_t* data)
{
    bool done = false;
    sys.driver().write(off, len, data, [&] { done = true; });
    while (!done && sys.eq().runOne()) {
    }
    ASSERT_TRUE(done);
}

void
syncRead(NvdimmcSystem& sys, Addr off, std::uint32_t len,
         std::uint8_t* buf)
{
    bool done = false;
    sys.driver().read(off, len, buf, [&] { done = true; });
    while (!done && sys.eq().runOne()) {
    }
    ASSERT_TRUE(done);
}

workload::DataDevice
dataDevice(NvdimmcSystem& sys)
{
    workload::DataDevice dev;
    dev.capacityBytes = sys.driver().capacityBytes();
    dev.read = [&sys](Addr off, std::uint32_t len, std::uint8_t* buf,
                      std::function<void()> done) {
        sys.driver().read(off, len, buf, std::move(done));
    };
    dev.write = [&sys](Addr off, std::uint32_t len,
                       const std::uint8_t* data,
                       std::function<void()> done) {
        sys.driver().write(off, len, data, std::move(done));
    };
    return dev;
}

TEST(Integration, RandomOpsMatchReferenceModel)
{
    auto sys = makeSystem();
    Rng rng(2024);
    std::map<std::uint64_t, std::uint8_t> model;
    const std::uint64_t pages = 64;

    std::vector<std::uint8_t> buf(4096);
    for (int op = 0; op < 120; ++op) {
        std::uint64_t page = rng.below(pages);
        if (rng.chance(0.5)) {
            auto fill = static_cast<std::uint8_t>(rng.next() | 1);
            std::fill(buf.begin(), buf.end(), fill);
            syncWrite(*sys, page * 4096, 4096, buf.data());
            model[page] = fill;
        } else {
            std::fill(buf.begin(), buf.end(), 0xEE);
            syncRead(*sys, page * 4096, 4096, buf.data());
            auto it = model.find(page);
            std::uint8_t expect = it == model.end() ? 0 : it->second;
            ASSERT_EQ(buf[0], expect) << "page " << page;
            ASSERT_EQ(buf[2048], expect);
            ASSERT_EQ(buf[4095], expect);
        }
    }
    EXPECT_TRUE(sys->hardwareClean())
        << "tRFC serialization must be collision-free";
}

TEST(Integration, EvictionPressureKeepsIntegrity)
{
    // Working set bigger than the cache: continuous wb+cf churn.
    auto sys = makeSystem();
    std::uint32_t slots = sys->layout().slotCount();
    std::uint64_t pages = slots + 64;
    std::vector<std::uint8_t> buf(4096);

    // One full sweep (overflows the cache by 64 pages), then rewrite
    // the first 128 pages, which were evicted meanwhile.
    for (std::uint64_t p = 0; p < pages; ++p) {
        std::fill(buf.begin(), buf.end(),
                  static_cast<std::uint8_t>(p * 3 + 1));
        syncWrite(*sys, p * 4096, 4096, buf.data());
    }
    for (std::uint64_t p = 0; p < 128; ++p) {
        std::fill(buf.begin(), buf.end(),
                  static_cast<std::uint8_t>(p * 5 + 2));
        syncWrite(*sys, p * 4096, 4096, buf.data());
    }
    // Verify both regions against the model.
    for (std::uint64_t p = 0; p < 128; p += 9) {
        syncRead(*sys, p * 4096, 4096, buf.data());
        EXPECT_EQ(buf[0], static_cast<std::uint8_t>(p * 5 + 2))
            << "rewritten page " << p;
        EXPECT_EQ(buf[4095], static_cast<std::uint8_t>(p * 5 + 2));
    }
    for (std::uint64_t p = 256; p < pages; p += 97) {
        syncRead(*sys, p * 4096, 4096, buf.data());
        EXPECT_EQ(buf[0], static_cast<std::uint8_t>(p * 3 + 1))
            << "first-sweep page " << p;
    }
    EXPECT_GE(sys->driver().stats().writebacks.value() +
                  sys->driver().stats().mergedCommands.value(),
              64u);
    EXPECT_TRUE(sys->hardwareClean());
}

TEST(Integration, NvmcNeverDrivesOutsideWindows)
{
    auto sys = makeSystem();
    sys->driver().markEverWritten(0, 64);
    std::vector<std::uint8_t> buf(4096, 1);
    for (std::uint64_t p = 0; p < 32; ++p)
        syncWrite(*sys, p * 4096, 4096, buf.data());
    // Plenty of NVMC traffic happened:
    EXPECT_GT(sys->nvmc()->controller().stats().transfers.value(), 32u);
    // ... yet zero collisions and zero protocol violations.
    EXPECT_EQ(sys->bus().conflictCount(), 0u);
    EXPECT_EQ(sys->dramDevice().stats().violations.value(), 0u);
}

TEST(Integration, DisablingTheGateCausesViolations)
{
    // Failure injection: the NVMC starts driving at detection time,
    // during the DRAM's real refresh.
    auto sys = makeSystem([](SystemConfig& c) {
        c.nvmc.gateDisabled = true;
    });
    std::vector<std::uint8_t> buf(4096, 1);
    syncWrite(*sys, 0, 4096, buf.data());
    sys->eq().runFor(100 * kUs);
    EXPECT_GT(sys->dramDevice().stats().violations.value(), 0u)
        << "driving during the device's real tRFC must be caught";
}

TEST(Integration, FalsePositiveDetectorIsDangerous)
{
    // Paper §VII-A: a detector that fires on non-REF commands makes
    // the NVMC collide with the host. Inject a high false rate and
    // drive host traffic.
    auto sys = makeSystem([](SystemConfig& c) {
        c.nvmc.detector.falseRate = 0.2;
    });
    // NVMC needs queued work for a window to matter: fault a page.
    std::vector<std::uint8_t> buf(4096, 1);
    bool done = false;
    sys->driver().write(0, 4096, buf.data(), [&] { done = true; });
    // Meanwhile hammer the host side so CA traffic exists for false
    // fires, and collisions have a target.
    int remaining = 20000;
    std::function<void()> hammer = [&] {
        if (--remaining <= 0)
            return;
        sys->imc().readLine((static_cast<Addr>(remaining) * 64) %
                                (1 * kMiB),
                            nullptr, hammer);
    };
    hammer();
    sys->eq().runFor(5 * kMs);
    EXPECT_GT(sys->bus().conflictCount() +
                  sys->dramDevice().stats().violations.value(),
              0u);
    (void)done;
}

TEST(Integration, CoherenceSkipFlushPersistsStaleData)
{
    // The victim slot has CPU-cached dirty lines; without the
    // clflush-before-writeback discipline the FPGA persists stale
    // bytes (paper §V-B).
    auto run = [](bool flush_discipline) {
        auto sys = makeSystem([&](SystemConfig& c) {
            c.driver.flushBeforeWriteback = flush_discipline;
        });
        // Fill page 0 with 0x11 via the normal path.
        std::vector<std::uint8_t> buf(4096, 0x11);
        syncWrite(*sys, 0, 4096, buf.data());
        // Dirty its first line in the CPU cache only (cached store,
        // never flushed by the app).
        auto slot = sys->driver().cache().peek(0);
        EXPECT_TRUE(slot.has_value());
        Addr line = sys->layout().slotAddr(*slot);
        std::vector<std::uint8_t> newline(64, 0x22);
        sys->cpuCache().store(line, newline.data(), nullptr);
        sys->eq().runFor(1 * kUs);
        // Evict page 0 by filling the rest of the cache + one more.
        std::uint32_t slots = sys->layout().slotCount();
        sys->precondition(1, slots - 1, true);
        std::vector<std::uint8_t> other(4096, 0x33);
        bool done = false;
        sys->driver().write(static_cast<Addr>(slots) * 4096, 4096,
                            other.data(), [&] { done = true; });
        while (!done && sys->eq().runOne()) {
        }
        // What did the NAND get for page 0?
        std::vector<std::uint8_t> nand(4096, 0);
        bool rdone = false;
        sys->backend().readPage(0, nand.data(), [&] { rdone = true; });
        while (!rdone && sys->eq().runOne()) {
        }
        return nand[0];
    };

    EXPECT_EQ(run(true), 0x22)
        << "with the discipline, the fresh CPU byte is persisted";
    EXPECT_EQ(run(false), 0x11)
        << "without clflush, the FPGA read the stale DRAM byte";
}

TEST(Integration, CoherenceSkipInvalidateServesStaleReads)
{
    auto run = [](bool invalidate_discipline) {
        auto sys = makeSystem([&](SystemConfig& c) {
            c.driver.invalidateAfterFill = invalidate_discipline;
            c.driver.trackDirty = true;
        });
        // Write page 0 := 0x44, evict it, pull it back in, and read.
        std::vector<std::uint8_t> buf(4096, 0x44);
        syncWrite(*sys, 0, 4096, buf.data());
        // Warm the CPU cache with the slot's current contents... by
        // reading through the cache.
        std::vector<std::uint8_t> r(4096);
        syncRead(*sys, 0, 4096, r.data());
        EXPECT_EQ(r[0], 0x44);

        // Evict page 0 (fill cache, touch one more page).
        std::uint32_t slots = sys->layout().slotCount();
        sys->precondition(1, slots - 1, false);
        std::vector<std::uint8_t> other(4096, 0x55);
        syncWrite(*sys, static_cast<Addr>(slots) * 4096, 4096,
                  other.data());
        // Page 0 must re-fill into the SAME slot it used before (the
        // only one that cycles); its old bytes are still in the CPU
        // cache.
        syncRead(*sys, 0, 4096, r.data());
        return r[0];
    };

    // With the discipline the data is correct either way; the stale
    // case manifests when the slot is reused for a DIFFERENT page.
    EXPECT_EQ(run(true), 0x44);
    EXPECT_EQ(run(false), 0x44);
}

TEST(Integration, StaleSlotReuseHazard)
{
    // Page A is cached & CPU-cached; page A is evicted; page B (whose
    // bytes already live in the NAND) fills the same slot via the
    // FPGA, *behind the CPU cache's back*. Reading B without the
    // invalidate-after-fill discipline returns A's bytes. Note that
    // NT stores are coherent, so only the FPGA's fill creates the
    // hazard — the trigger must be a first-touch READ of B.
    auto run = [](bool discipline) {
        auto sys = makeSystem([&](SystemConfig& c) {
            c.driver.invalidateAfterFill = discipline;
            c.driver.flushBeforeWriteback = discipline;
            c.driver.trackDirty = true;
        });
        // Seed page B's bytes directly in the NVM backend.
        std::uint64_t page_b = 1800;
        std::vector<std::uint8_t> b(4096, 0xB2);
        bool seeded = false;
        sys->backend().writePage(page_b, b.data(),
                                 [&] { seeded = true; });
        while (!seeded && sys->eq().runOne()) {
        }

        sys->driver().markEverWritten(page_b, 1);
        std::vector<std::uint8_t> a(4096, 0xA1);
        syncWrite(*sys, 0, 4096, a.data());
        std::vector<std::uint8_t> r(4096);
        syncRead(*sys, 0, 4096, r.data()); // CPU cache now holds A.
        EXPECT_EQ(r[0], 0xA1);

        std::uint32_t slots = sys->layout().slotCount();
        sys->precondition(1, slots - 1, false);

        // First-touch read of B: evicts page 0's slot (the LRC head)
        // and the FPGA fills B's bytes into it.
        syncRead(*sys, page_b * 4096, 4096, r.data());
        auto slot_b = sys->driver().cache().peek(page_b);
        EXPECT_TRUE(slot_b.has_value());
        EXPECT_EQ(*slot_b, 0u) << "must reuse page A's slot";
        return r[0];
    };

    EXPECT_EQ(run(true), 0xB2);
    EXPECT_EQ(run(false), 0xA1)
        << "without invalidation the CPU serves the old page's bytes";
}

TEST(Integration, PowerFailureRecoversDirtyPages)
{
    auto sys = makeSystem();
    std::vector<std::uint8_t> buf(4096, 0x77);
    syncWrite(*sys, 5 * 4096, 4096, buf.data());
    // Let metadata stores drain into the DRAM array.
    sys->eq().runFor(100 * kUs);

    auto report = core::simulatePowerFailure(
        *sys, core::PowerFailureScenario{});
    EXPECT_GE(report.pagesDumped, 1u);

    // Recovery: the NAND must hold the page.
    std::vector<std::uint8_t> r(4096, 0);
    bool done = false;
    sys->backend().readPage(5, r.data(), [&] { done = true; });
    while (!done && sys->eq().runOne()) {
    }
    EXPECT_EQ(r[0], 0x77);
    EXPECT_EQ(r[4095], 0x77);
}

TEST(Integration, WpqIsAWeakPersistenceDomain)
{
    // Paper §V-C: stores still in the WPQ when the dump races ahead
    // are lost even though ADR saved them to DRAM afterwards.
    auto run = [](bool race) {
        auto sys = makeSystem();
        std::vector<std::uint8_t> buf(4096, 0x10);
        syncWrite(*sys, 0, 4096, buf.data());
        sys->eq().runFor(100 * kUs);

        // Update one line; it reaches the WPQ but not the array.
        auto slot = sys->driver().cache().peek(0);
        EXPECT_TRUE(slot.has_value());
        std::vector<std::uint8_t> line(64, 0x20);
        sys->cpuCache().storeNt(sys->layout().slotAddr(*slot),
                                line.data());
        // Fail *now*, without letting the WPQ drain.
        core::PowerFailureScenario sc;
        sc.adrWorks = true;
        sc.raceWindow = race;
        core::simulatePowerFailure(*sys, sc);

        std::vector<std::uint8_t> r(4096, 0);
        bool done = false;
        sys->backend().readPage(0, r.data(), [&] { done = true; });
        while (!done && sys->eq().runOne()) {
        }
        return r[0];
    };

    EXPECT_EQ(run(false), 0x20) << "ADR before dump: store survives";
    EXPECT_EQ(run(true), 0x10) << "dump raced ahead: store lost";
}

TEST(Integration, PowerFailureWithoutAdrLosesWpq)
{
    auto sys = makeSystem();
    std::vector<std::uint8_t> buf(4096, 0x31);
    syncWrite(*sys, 0, 4096, buf.data());
    sys->eq().runFor(100 * kUs);
    auto slot = sys->driver().cache().peek(0);
    ASSERT_TRUE(slot.has_value());
    std::vector<std::uint8_t> line(64, 0x42);
    sys->cpuCache().storeNt(sys->layout().slotAddr(*slot), line.data());
    core::PowerFailureScenario sc;
    sc.adrWorks = false;
    auto report = core::simulatePowerFailure(*sys, sc);
    EXPECT_GE(report.wpqLost, 1u);
}

TEST(Integration, MixedLoadValidatesWithoutCorruption)
{
    auto sys = makeSystem();
    workload::MixedLoadConfig cfg;
    cfg.users = 16;
    cfg.transactionsPerUser = 6;
    cfg.recordBytes = 4096;
    cfg.regionBytes = 2 * kMiB;
    auto res = workload::runMixedLoad(sys->eq(), dataDevice(*sys), cfg);
    EXPECT_EQ(res.transactions, 16u * 6u);
    EXPECT_EQ(res.validationFailures, 0u);
    EXPECT_TRUE(sys->hardwareClean());
    // Pooled-allocation audit: no simulator hot-path callable may
    // spill EventQueue's small-buffer inline storage — a spill is a
    // heap round-trip per event. If this fires, shrink the offending
    // lambda's captures (see sboOverflows() in event_queue.hh).
    EXPECT_EQ(sys->eq().sboOverflows(), 0u);
}

TEST(Integration, MixedLoadConservesEveryStoredLine)
{
    // Enough users that the WPQ rejects NT stores (memcpy is
    // detailed here): every accepted store or dirty writeback must
    // enter the WPQ exactly once, and a rejected store is not a store.
    // The CPU cache holds the whole region, so no capacity eviction
    // writes a line back behind the counters' backs.
    auto sys = makeSystem([](SystemConfig& c) {
        c.cpuCache.capacityLines = 512 * 1024;
    });
    workload::MixedLoadConfig cfg;
    cfg.users = 125;
    cfg.transactionsPerUser = 4;
    cfg.recordBytes = 4096;
    cfg.regionBytes = 4 * kMiB;
    auto res = workload::runMixedLoad(sys->eq(), dataDevice(*sys), cfg);
    EXPECT_EQ(res.transactions, 125u * 4u);
    EXPECT_EQ(res.validationFailures, 0u);

    const cpu::CacheStats& cpu = sys->cpuCache().stats();
    ASSERT_EQ(cpu.capacityEvictions.value(), 0u);
    EXPECT_EQ(sys->imc().stats().writesAccepted.value(),
              cpu.ntStores.value() + cpu.flushWritebacks.value());
    EXPECT_EQ(cpu.ntStores.value(),
              64u * sys->driver().stats().writeOps.value());
}

TEST(Integration, StreamAgingTestIsClean)
{
    // Paper §VII-A: STREAM with per-iteration validation while the
    // NVMC exploits every refresh window.
    auto sys = makeSystem();
    workload::StreamConfig cfg;
    cfg.elements = 8192; // 64 KB per array.
    cfg.iterations = 2;
    auto res = workload::runStream(sys->eq(), dataDevice(*sys), cfg);
    EXPECT_EQ(res.elementMismatches, 0u);
    EXPECT_EQ(res.kernelsRun, 8u);
    EXPECT_TRUE(sys->hardwareClean());
    EXPECT_GT(sys->nvmc()->windowsGranted(), 0u);
}

TEST(Integration, BaselineSystemServesReadsAndWrites)
{
    core::SystemConfig cfg = core::SystemConfig::scaledPmem();
    cfg.dramCacheBytes = 64 * kMiB;
    cfg.memcpy.bulkMode = false;
    core::NvdimmcSystem sys(cfg);

    std::vector<std::uint8_t> w(4096, 0x66), r(4096, 0);
    bool done = false;
    sys.pmemDriver().write(0x3000, 4096, w.data(), [&] { done = true; });
    while (!done && sys.eq().runOne()) {
    }
    ASSERT_TRUE(done);
    sys.eq().runFor(100 * kUs); // Drain the WPQ.
    done = false;
    sys.pmemDriver().read(0x3000, 4096, r.data(), [&] { done = true; });
    while (!done && sys.eq().runOne()) {
    }
    ASSERT_TRUE(done);
    EXPECT_EQ(std::memcmp(w.data(), r.data(), 4096), 0);
}

TEST(Integration, CachedLatencyFarBelowUncached)
{
    auto sys = makeSystem();
    sys->driver().markEverWritten(0, 1);
    std::vector<std::uint8_t> buf(4096, 1);
    Tick t0 = sys->eq().now();
    syncWrite(*sys, 0, 4096, buf.data()); // Miss.
    Tick miss_lat = sys->eq().now() - t0;
    t0 = sys->eq().now();
    syncWrite(*sys, 0, 4096, buf.data()); // Hit.
    Tick hit_lat = sys->eq().now() - t0;
    EXPECT_GT(miss_lat, 5 * hit_lat)
        << "the cached/uncached gap is the paper's core result";
}

} // namespace
} // namespace nvdimmc
