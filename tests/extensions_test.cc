/**
 * @file
 * Tests for the extension features beyond the paper's PoC: sequential
 * prefetch, CP queue depth > 1, the zero-fill write-allocate fast
 * path, NVDIMM-F, and the related edge cases (phase wraparound,
 * clean-victim scans).
 */

#include <gtest/gtest.h>

#include "common/logging.hh"

#include <cstring>
#include <sstream>
#include <string>
#include <vector>

#include "bus/memory_bus.hh"
#include "core/system.hh"
#include "driver/nvdimmf_driver.hh"
#include "workload/fio.hh"

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

// --- CP queue depth > 1 ---

TEST(CpQueueDepth, ConcurrentMissesUseMultipleSlots)
{
    auto sys = makeSystem([](SystemConfig& c) {
        c.driver.cpQueueDepth = 4;
    });
    sys->driver().markEverWritten(0, 16);

    int done = 0;
    for (int i = 0; i < 8; ++i) {
        sys->driver().read(static_cast<Addr>(i) * 4096, 4096, nullptr,
                           [&] { ++done; });
    }
    while (done < 8 && sys->eq().runOne()) {
    }
    EXPECT_EQ(done, 8);
    EXPECT_EQ(sys->nvmc()->firmware().stats().cachefills.value(), 8u);
    EXPECT_TRUE(sys->hardwareClean());
}

TEST(CpQueueDepth, DepthFourBeatsDepthOneOnConcurrentMisses)
{
    auto measure = [](std::uint32_t depth) {
        auto sys = makeSystem([&](SystemConfig& c) {
            c.driver.cpQueueDepth = depth;
        });
        sys->driver().markEverWritten(0, 16);
        int done = 0;
        Tick start = sys->eq().now();
        for (int i = 0; i < 8; ++i) {
            sys->driver().read(static_cast<Addr>(i) * 4096, 4096,
                               nullptr, [&] { ++done; });
        }
        while (done < 8 && sys->eq().runOne()) {
        }
        return sys->eq().now() - start;
    };
    Tick d1 = measure(1);
    Tick d4 = measure(4);
    EXPECT_LT(d4 * 3, d1 * 2) << "depth 4 must be at least 1.5x faster";
}

TEST(CpQueueDepth, DataIntegrityAtDepthFour)
{
    auto sys = makeSystem([](SystemConfig& c) {
        c.driver.cpQueueDepth = 4;
    });
    // Write distinct patterns concurrently (first touch = zero-fill),
    // then force eviction traffic and read everything back.
    std::vector<std::vector<std::uint8_t>> bufs;
    for (int i = 0; i < 6; ++i)
        bufs.emplace_back(4096, static_cast<std::uint8_t>(0x40 + i));
    int done = 0;
    for (int i = 0; i < 6; ++i) {
        sys->driver().write(static_cast<Addr>(i) * 4096, 4096,
                            bufs[static_cast<std::size_t>(i)].data(),
                            [&] { ++done; });
    }
    while (done < 6 && sys->eq().runOne()) {
    }
    std::vector<std::uint8_t> r(4096);
    for (int i = 0; i < 6; ++i) {
        syncRead(*sys, static_cast<Addr>(i) * 4096, 4096, r.data());
        EXPECT_EQ(r[0], 0x40 + i);
        EXPECT_EQ(r[4095], 0x40 + i);
    }
    EXPECT_TRUE(sys->hardwareClean());
}

TEST(SerialKernel, NonzeroThreadsRejectedAtConstruction)
{
    // The serial event kernel is the only machine model; a config
    // asking for simulation threads must fail loudly, not silently
    // run something else.
    EXPECT_THROW(makeSystem([](SystemConfig& c) { c.threads = 1; }),
                 PanicError);
}

// --- CP phase wraparound ---

TEST(CpPhase, SurvivesWraparound)
{
    // More than 255 commands through the single CP slot: the phase
    // field wraps and every command must still be decoded exactly
    // once.
    auto sys = makeSystem();
    sys->driver().markEverWritten(0, 600);
    std::uint32_t slots = sys->layout().slotCount();
    (void)slots;
    // 300 first-touch reads -> 300 cachefill commands (free slots).
    int done = 0;
    std::function<void(int)> next = [&](int i) {
        if (i >= 300)
            return;
        sys->driver().read(static_cast<Addr>(i) * 4096, 4096, nullptr,
                           [&, i] {
                               ++done;
                               next(i + 1);
                           });
    };
    next(0);
    while (done < 300 && sys->eq().runOne()) {
    }
    EXPECT_EQ(done, 300);
    EXPECT_EQ(sys->nvmc()->firmware().stats().commandsAccepted.value(),
              300u);
}

// --- Zero-fill write-allocate fast path ---

TEST(ZeroFill, FirstTouchReadIsFastAndZero)
{
    auto sys = makeSystem();
    std::vector<std::uint8_t> r(4096, 0xcc);
    Tick start = sys->eq().now();
    syncRead(*sys, 0x20000, 4096, r.data());
    EXPECT_LT(sys->eq().now() - start, sys->config().refresh.tREFI);
    EXPECT_EQ(r[0], 0x00);
    EXPECT_EQ(sys->driver().stats().cachefills.value(), 0u);
}

TEST(ZeroFill, EvictionPathStillPaysThePair)
{
    auto sys = makeSystem();
    std::uint32_t slots = sys->layout().slotCount();
    sys->precondition(0, slots, true);
    // First touch of a fresh page with a FULL cache: the write pays
    // the writeback of the victim AND (per the paper) the cachefill.
    std::vector<std::uint8_t> b(4096, 1);
    Tick start = sys->eq().now();
    syncWrite(*sys, static_cast<Addr>(slots + 5) * 4096, 4096,
              b.data());
    EXPECT_GE(sys->eq().now() - start,
              3 * sys->config().refresh.tREFI);
    EXPECT_GE(sys->driver().stats().writebacks.value(), 1u);
}

// --- Sequential prefetch ---

TEST(Prefetch, SequentialMissStreamTriggersPrefetch)
{
    auto sys = makeSystem([](SystemConfig& c) {
        c.driver.prefetchEnabled = true;
        c.driver.cpQueueDepth = 4;
        c.driver.trackDirty = true;
    });
    sys->driver().markEverWritten(0, 64);
    std::vector<std::uint8_t> r(4096);
    for (int i = 0; i < 8; ++i)
        syncRead(*sys, static_cast<Addr>(i) * 4096, 4096, r.data());
    EXPECT_GT(sys->driver().stats().prefetchesIssued.value(), 0u);
    EXPECT_GT(sys->driver().stats().prefetchHits.value() +
                  sys->driver().cache().stats().hits.value(),
              0u);
    EXPECT_TRUE(sys->hardwareClean());
}

TEST(Prefetch, PrefetchedDataIsCorrect)
{
    auto sys = makeSystem([](SystemConfig& c) {
        c.driver.prefetchEnabled = true;
        c.driver.cpQueueDepth = 4;
        c.driver.trackDirty = true;
    });
    // Seed NAND pages 0..7 with distinct contents via the backend.
    for (int i = 0; i < 8; ++i) {
        std::vector<std::uint8_t> page(
            4096, static_cast<std::uint8_t>(0x70 + i));
        bool done = false;
        sys->backend().writePage(static_cast<std::uint64_t>(i),
                                 page.data(), [&] { done = true; });
        while (!done && sys->eq().runOne()) {
        }
    }
    sys->driver().markEverWritten(0, 8);

    std::vector<std::uint8_t> r(4096);
    for (int i = 0; i < 8; ++i) {
        syncRead(*sys, static_cast<Addr>(i) * 4096, 4096, r.data());
        EXPECT_EQ(r[0], 0x70 + i) << "page " << i;
        EXPECT_EQ(r[4095], 0x70 + i);
    }
    EXPECT_TRUE(sys->hardwareClean());
}

TEST(Prefetch, RandomAccessesDoNotPrefetch)
{
    auto sys = makeSystem([](SystemConfig& c) {
        c.driver.prefetchEnabled = true;
        c.driver.cpQueueDepth = 2;
    });
    sys->driver().markEverWritten(0, 1200);
    std::vector<std::uint8_t> r(4096);
    // Strided pattern: never page+1.
    for (int i = 0; i < 6; ++i)
        syncRead(*sys, static_cast<Addr>(i * 37) * 4096, 4096, r.data());
    EXPECT_EQ(sys->driver().stats().prefetchesIssued.value(), 0u);
}

// --- NVDIMM-F ---

struct NvdimmFFixture : public ::testing::Test
{
    NvdimmFFixture()
        : nand(eq, nvm::ZNandParams::tiny()),
          ftl(eq, nand, ftl::FtlConfig{}),
          map(64 * kMiB),
          dev(map, dram::Ddr4Timing::ddr4_1600(), false, false),
          bus(eq, dev, false),
          imc(eq, bus, imc::ImcConfig{},
              dram::RefreshSchedule::make(
                  dram::RefreshRegisters::standard(),
                  dev.timing().tRFC, 0)),
          drv(eq, ftl, imc)
    {
    }

    EventQueue eq;
    nvm::ZNand nand;
    ftl::Ftl ftl;
    dram::AddressMap map;
    dram::DramDevice dev;
    bus::MemoryBus bus;
    imc::Imc imc;
    driver::NvdimmFDriver drv;
};

TEST_F(NvdimmFFixture, BlockWriteReadRoundTrip)
{
    std::vector<std::uint8_t> w(8192), r(8192, 0);
    for (std::size_t i = 0; i < w.size(); ++i)
        w[i] = static_cast<std::uint8_t>(i * 3 + 1);
    bool done = false;
    drv.write(0x4000, 8192, w.data(), [&] { done = true; });
    while (!done && eq.runOne()) {
    }
    ASSERT_TRUE(done);
    done = false;
    drv.read(0x4000, 8192, r.data(), [&] { done = true; });
    while (!done && eq.runOne()) {
    }
    ASSERT_TRUE(done);
    EXPECT_EQ(std::memcmp(w.data(), r.data(), 8192), 0);
}

TEST_F(NvdimmFFixture, EveryAccessPaysTheNand)
{
    // No DRAM cache: a re-read is exactly as slow as the first read.
    std::vector<std::uint8_t> w(4096, 0x5f);
    bool done = false;
    drv.write(0, 4096, w.data(), [&] { done = true; });
    while (!done && eq.runOne()) {
    }
    auto timed_read = [&] {
        Tick start = eq.now();
        bool rd = false;
        drv.read(0, 4096, nullptr, [&] { rd = true; });
        while (!rd && eq.runOne()) {
        }
        return eq.now() - start;
    };
    Tick first = timed_read();
    Tick second = timed_read();
    EXPECT_GE(first, nvm::ZNand::kTR);
    EXPECT_NEAR(static_cast<double>(second),
                static_cast<double>(first),
                static_cast<double>(first) * 0.2);
}

TEST_F(NvdimmFFixture, RejectsSubBlockAccess)
{
    EXPECT_THROW(drv.read(64, 64, nullptr, [] {}), PanicError);
}

// --- Clean-victim scan (prefetch support) ---

TEST(CleanVictim, AllDirtyMeansNoCleanVictim)
{
    driver::DramCache cache(4, 4,
                            driver::ReplacementPolicy::create("lrc"));
    for (std::uint64_t p = 0; p < 4; ++p) {
        auto s = cache.allocate(p);
        cache.finishFill(s);
        cache.markDirty(s);
    }
    EXPECT_FALSE(cache.pickCleanVictim().has_value());
    // And the scan must not have corrupted the policy: a regular
    // victim pick still works.
    EXPECT_LT(cache.pickVictim(), 4u);
}

TEST(CleanVictim, FindsTheCleanOne)
{
    driver::DramCache cache(4, 4,
                            driver::ReplacementPolicy::create("lrc"));
    for (std::uint64_t p = 0; p < 4; ++p) {
        auto s = cache.allocate(p);
        cache.finishFill(s);
        if (p != 2)
            cache.markDirty(s);
    }
    auto v = cache.pickCleanVictim();
    ASSERT_TRUE(v.has_value());
    EXPECT_EQ(cache.slot(*v).page, 2u);
}

// --- System stats dump & the Fig 2b command interleaving ---

TEST(StatsDump, EmitsAllLayers)
{
    auto sys = makeSystem();
    std::vector<std::uint8_t> buf(4096, 1);
    syncWrite(*sys, 0, 4096, buf.data());
    std::ostringstream os;
    sys->dumpStats(os);
    std::string out = os.str();
    for (const char* key :
         {"dram.refreshes", "imc.reads_accepted", "nvdc.page_faults",
          "cache.hit_rate", "fw.acks", "ftl.user_writes",
          "znand.page_programs", "bus.conflicts"}) {
        EXPECT_NE(out.find(key), std::string::npos) << key;
    }
}

/** Records every command on the bus as (tick, op). */
struct CommandLog : bus::CaSnooper
{
    std::vector<std::pair<Tick, dram::Ddr4Op>> cmds;

    void observeFrame(const dram::CaFrame& frame, Tick now) override
    {
        cmds.emplace_back(now, dram::decodeFrame(frame).op);
    }
};

TEST(BusTracerTest, WindowInterleavingMatchesFig2b)
{
    // The bus around an uncached op must show the Fig 2b pattern:
    // REF, then NVMC commands strictly inside
    // [REF + device tRFC, REF + programmed tRFC).
    auto sys = makeSystem();
    sys->driver().markEverWritten(0, 4);
    CommandLog seen;
    sys->bus().addSnooper(&seen);
    std::vector<std::uint8_t> r(4096);
    syncRead(*sys, 0, 4096, r.data());

    Tick device_trfc = sys->dramDevice().timing().tRFC;
    Tick prog_trfc = sys->config().refresh.tRFC;
    Tick last_ref = 0;
    std::size_t nvmc_cmds = 0;
    for (const auto& [tick, op] : seen.cmds) {
        if (op == dram::Ddr4Op::Refresh) {
            last_ref = tick;
            continue;
        }
        if (last_ref == 0)
            continue;
        if (tick < last_ref + prog_trfc) {
            // Inside the programmed blackout: only the NVMC may
            // drive, and only after the device's real refresh.
            EXPECT_GE(tick, last_ref + device_trfc)
                << dram::toString(op);
            ++nvmc_cmds;
        }
    }
    EXPECT_GT(nvmc_cmds, 0u);
}

} // namespace
} // namespace nvdimmc
