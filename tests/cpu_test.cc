/**
 * @file
 * CPU-side tests: cache model (including the paper's §V-B coherence
 * hazards), memcpy engine, worker threads.
 */

#include <gtest/gtest.h>

#include <array>
#include <cstring>
#include <vector>

#include "bus/memory_bus.hh"
#include "common/event_queue.hh"
#include "cpu/cache_model.hh"
#include "cpu/memcpy_engine.hh"
#include "cpu/thread.hh"
#include "imc/host_port.hh"
#include "imc/imc.hh"

namespace nvdimmc::cpu
{
namespace
{

/** A lone iMC's schedule: standard registers at phase 0. */
dram::RefreshSchedule
loneSchedule(const dram::DramDevice& dev)
{
    return dram::RefreshSchedule::make(dram::RefreshRegisters::standard(),
                                       dev.timing().tRFC, 0);
}

struct CpuFixture : public ::testing::Test
{
    CpuFixture()
        : map(16 * kMiB),
          dev(map, dram::Ddr4Timing::ddr4_1600(), true, false),
          bus(eq, dev, false),
          imc(eq, bus, imc::ImcConfig{}, loneSchedule(dev)),
          port(imc),
          cache(eq, port, cacheParams())
    {
    }

    static CpuCacheModel::Params
    cacheParams()
    {
        CpuCacheModel::Params p;
        p.capacityLines = 128;
        return p;
    }

    void
    drain()
    {
        eq.runFor(20 * kUs);
    }

    EventQueue eq;
    dram::AddressMap map;
    dram::DramDevice dev;
    bus::MemoryBus bus;
    imc::Imc imc;
    imc::HostPort port;
    CpuCacheModel cache;
};

TEST_F(CpuFixture, LoadMissFillsLine)
{
    std::array<std::uint8_t, 64> seed{};
    seed.fill(0x44);
    dev.writeBurst(map.decompose(0x1000), seed.data());

    std::array<std::uint8_t, 64> buf{};
    bool done = false;
    cache.load(0x1000, buf.data(), [&] { done = true; });
    drain();
    ASSERT_TRUE(done);
    EXPECT_EQ(buf[0], 0x44);
    EXPECT_TRUE(cache.contains(0x1000));
    EXPECT_EQ(cache.stats().loadMisses.value(), 1u);
}

TEST_F(CpuFixture, SecondLoadHits)
{
    bool d1 = false, d2 = false;
    cache.load(0x2000, nullptr, [&] { d1 = true; });
    drain();
    Tick before = eq.now();
    cache.load(0x2000, nullptr, [&] { d2 = true; });
    eq.runFor(cacheParams().hitLatency + 1);
    EXPECT_TRUE(d1);
    EXPECT_TRUE(d2);
    EXPECT_EQ(cache.stats().loadHits.value(), 1u);
    (void)before;
}

TEST_F(CpuFixture, StoreDirtiesLine)
{
    std::array<std::uint8_t, 64> w{};
    w.fill(0x13);
    cache.store(0x3000, w.data(), nullptr);
    drain();
    EXPECT_TRUE(cache.isDirty(0x3000));
    // The DRAM has NOT seen it yet.
    std::array<std::uint8_t, 64> r{};
    dev.readBurst(map.decompose(0x3000), r.data());
    EXPECT_EQ(r[0], 0x00);
}

TEST_F(CpuFixture, ClflushWritesBackAndDrops)
{
    std::array<std::uint8_t, 64> w{};
    w.fill(0x27);
    cache.store(0x4000, w.data(), nullptr);
    bool flushed = false;
    cache.clflush(0x4000, [&] { flushed = true; });
    drain();
    ASSERT_TRUE(flushed);
    EXPECT_FALSE(cache.contains(0x4000));
    std::array<std::uint8_t, 64> r{};
    dev.readBurst(map.decompose(0x4000), r.data());
    EXPECT_EQ(r[0], 0x27);
    EXPECT_EQ(cache.stats().flushWritebacks.value(), 1u);
}

TEST_F(CpuFixture, ClflushOfAbsentLineIsCheap)
{
    bool flushed = false;
    cache.clflush(0x5000, [&] { flushed = true; });
    eq.runFor(cacheParams().flushCost + 1);
    EXPECT_TRUE(flushed);
    EXPECT_EQ(cache.stats().flushWritebacks.value(), 0u);
}

TEST_F(CpuFixture, StaleReadHazardWithoutInvalidate)
{
    // CPU caches a line, then "the FPGA" updates DRAM behind its
    // back (paper §V-B). Without invalidation the CPU reads stale
    // data; after invalidation it sees the new bytes.
    bool ignore = false;
    cache.load(0x6000, nullptr, [&] { ignore = true; });
    drain();

    std::array<std::uint8_t, 64> fresh{};
    fresh.fill(0xAB);
    dev.writeBurst(map.decompose(0x6000), fresh.data());

    std::array<std::uint8_t, 64> buf{};
    cache.load(0x6000, buf.data(), nullptr);
    drain();
    EXPECT_EQ(buf[0], 0x00) << "stale cached copy expected";

    cache.invalidate(0x6000);
    cache.load(0x6000, buf.data(), nullptr);
    drain();
    EXPECT_EQ(buf[0], 0xAB);
}

TEST_F(CpuFixture, NtStoreBypassesCache)
{
    std::array<std::uint8_t, 64> w{};
    w.fill(0x66);
    ASSERT_TRUE(cache.storeNt(0x7000, w.data()));
    drain();
    EXPECT_FALSE(cache.contains(0x7000));
    std::array<std::uint8_t, 64> r{};
    dev.readBurst(map.decompose(0x7000), r.data());
    EXPECT_EQ(r[0], 0x66);
}

TEST_F(CpuFixture, LoadsSurviveReadQueueRejection)
{
    // Regression: when the iMC read queue rejects a miss, the retry
    // must keep the caller's completion alive (a moved-from callback
    // here once silently killed whole op chains under load).
    imc::ImcConfig small;
    small.readQueueCap = 2;
    imc::Imc tiny_imc(eq, bus, small, loneSchedule(dev));
    imc::HostPort tiny_port(tiny_imc);
    CpuCacheModel tiny_cache(eq, tiny_port, cacheParams());

    int done = 0;
    const int n = 64;
    for (int i = 0; i < n; ++i) {
        tiny_cache.load(static_cast<Addr>(i) * 4096, nullptr,
                        [&] { ++done; });
    }
    eq.runFor(2 * kMs);
    EXPECT_EQ(done, n);
}

TEST_F(CpuFixture, ParkedLoadsDeliverTheirOwnLines)
{
    // Each miss stages its line in a pooled record that the iMC fills
    // through a raw pointer. On a one-entry read queue every load but
    // the first parks, and retries reuse the records freed by earlier
    // misses; each load must still return its own line's bytes.
    imc::ImcConfig small;
    small.readQueueCap = 1;
    imc::Imc tiny_imc(eq, bus, small, loneSchedule(dev));
    imc::HostPort tiny_port(tiny_imc);
    CpuCacheModel tiny_cache(eq, tiny_port, cacheParams());

    const int n = 8;
    for (int i = 0; i < n; ++i) {
        std::array<std::uint8_t, 64> line;
        line.fill(static_cast<std::uint8_t>(0x10 + i));
        dev.writeBurst(map.decompose(static_cast<Addr>(i) * 4096),
                       line.data());
    }
    std::vector<std::array<std::uint8_t, 64>> bufs(n);
    std::vector<int> done(n, 0);
    for (int i = 0; i < n; ++i) {
        tiny_cache.load(static_cast<Addr>(i) * 4096, bufs[i].data(),
                        [&done, i] { ++done[i]; });
    }
    ASSERT_EQ(tiny_imc.stats().readsAccepted.value(), 1u)
        << "the other loads were not parked";
    eq.runFor(100 * kUs);

    for (int i = 0; i < n; ++i) {
        EXPECT_EQ(done[i], 1) << "load " << i;
        std::array<std::uint8_t, 64> want;
        want.fill(static_cast<std::uint8_t>(0x10 + i));
        EXPECT_EQ(bufs[i], want) << "load " << i;
    }
    EXPECT_EQ(tiny_cache.stats().loadMisses.value(),
              static_cast<std::uint64_t>(n));
}

TEST_F(CpuFixture, ParkedLoadCountsOneMiss)
{
    // Regression: a load rejected by a full read queue counted a miss
    // on every attempt, because its retry runs load() again.
    imc::ImcConfig small;
    small.readQueueCap = 1;
    imc::Imc tiny_imc(eq, bus, small, loneSchedule(dev));
    imc::HostPort tiny_port(tiny_imc);
    CpuCacheModel tiny_cache(eq, tiny_port, cacheParams());

    ASSERT_TRUE(tiny_imc.readLine(0x1000, nullptr, nullptr));
    bool loaded = false;
    tiny_cache.load(0x2000, nullptr, [&] { loaded = true; });
    ASSERT_EQ(tiny_imc.stats().readsAccepted.value(), 1u)
        << "the load was not parked";
    eq.runFor(20 * kUs);

    ASSERT_TRUE(loaded);
    EXPECT_EQ(tiny_imc.stats().readsAccepted.value(), 2u);
    EXPECT_EQ(tiny_cache.stats().loadMisses.value(), 1u);
}

/**
 * A channel whose WPQ holds one line, with a detailed NT copy parked
 * on it. A dirty line flushed now parks behind the copy, whose retry
 * takes the next freed entry, so the writeback's first retry finds
 * the WPQ full again.
 */
struct ContendedWpq
{
    explicit ContendedWpq(const dram::AddressMap& map)
        : dev(map, dram::Ddr4Timing::ddr4_1600(), true, false),
          bus(eq, dev, false),
          imc(eq, bus, oneEntry(), loneSchedule(dev)),
          port(imc),
          cache(eq, port, CpuFixture::cacheParams()),
          engine(eq, port, &cache),
          src(4096, 0x3d)
    {
        engine.writeNt(0x10000, 4096, src.data(), [this] { copied = true; });
        // The first line fills the WPQ; the copy's second store (10 ns
        // later) is rejected and parks long before the first line's
        // CAS frees the entry.
        eq.runFor(11 * kNs);
    }

    static imc::ImcConfig
    oneEntry()
    {
        imc::ImcConfig c;
        c.wpqCap = 1;
        c.wpqWatermark = 1;
        return c;
    }

    EventQueue eq;
    dram::DramDevice dev;
    bus::MemoryBus bus;
    imc::Imc imc;
    imc::HostPort port;
    CpuCacheModel cache;
    MemcpyEngine engine;
    std::vector<std::uint8_t> src;
    bool copied = false;
};

TEST_F(CpuFixture, ParkedWritebackRetriesUntilTheWpqTakesIt)
{
    // Regression: a dirty writeback parked on a full WPQ got a single
    // retry; when a writer parked ahead of it took the freed slot, the
    // line was dropped although clflush had reported completion.
    ContendedWpq ch(map);
    ASSERT_EQ(ch.imc.wpqDepth(), 1u);
    std::array<std::uint8_t, 64> w{};
    w.fill(0xc5);
    ch.cache.store(0x40000, w.data(), nullptr);
    bool flushed = false;
    ch.cache.clflush(0x40000, [&] { flushed = true; });
    ch.eq.runFor(100 * kUs);

    ASSERT_TRUE(ch.copied);
    ASSERT_TRUE(flushed);
    EXPECT_EQ(ch.imc.wpqDepth(), 0u);
    std::array<std::uint8_t, 64> r{};
    ch.dev.readBurst(map.decompose(0x40000), r.data());
    EXPECT_EQ(r, w) << "the parked writeback never reached DRAM";
    ch.dev.readBurst(map.decompose(0x10000 + 4032), r.data());
    EXPECT_EQ(r[0], 0x3d);
    // Only accepted stores count, and every accepted line entered the
    // WPQ exactly once.
    EXPECT_EQ(ch.cache.stats().ntStores.value(), 64u);
    EXPECT_EQ(ch.imc.stats().writesAccepted.value(), 65u);
}

TEST_F(CpuFixture, ClflushCompletesOnlyOnceTheWpqHoldsItsLine)
{
    // A power cut right after clflush reports completion must find
    // the line in the ADR domain (the WPQ or a burst on the wires).
    // Completing after the flush cost alone, while the writeback was
    // still parked, lost it.
    ContendedWpq ch(map);
    ASSERT_EQ(ch.imc.wpqDepth(), 1u);
    std::array<std::uint8_t, 64> w{};
    w.fill(0xc5);
    ch.cache.store(0x40000, w.data(), nullptr);
    bool flushed = false;
    ch.cache.clflush(0x40000, [&] { flushed = true; });
    const Tick give_up = ch.eq.now() + 100 * kUs;
    while (!flushed && ch.eq.now() < give_up && ch.eq.runOne()) {
    }
    ASSERT_TRUE(flushed);

    ch.imc.adrFlushWpq();
    std::array<std::uint8_t, 64> r{};
    ch.dev.readBurst(map.decompose(0x40000), r.data());
    EXPECT_EQ(r, w) << "clflush completed before the WPQ took its line";
}

TEST_F(CpuFixture, CapacityEvictionWritesDirtyVictims)
{
    std::array<std::uint8_t, 64> w{};
    w.fill(0x31);
    // Fill beyond capacity with dirty lines.
    for (std::uint64_t i = 0; i < 200; ++i)
        cache.store(i * 64, w.data(), nullptr);
    drain();
    EXPECT_LE(cache.residentLines(), cacheParams().capacityLines);
    EXPECT_GT(cache.stats().capacityEvictions.value(), 0u);
}

TEST_F(CpuFixture, MemcpyEngineReadMatchesArray)
{
    std::array<std::uint8_t, 64> seed{};
    for (std::uint32_t i = 0; i < 16; ++i) {
        seed.fill(static_cast<std::uint8_t>(i + 1));
        dev.writeBurst(map.decompose(0x8000 + i * 64), seed.data());
    }
    MemcpyEngine engine(eq, port, &cache);
    std::vector<std::uint8_t> buf(1024, 0);
    bool done = false;
    engine.read(0x8000, 1024, buf.data(), true, [&] { done = true; });
    drain();
    ASSERT_TRUE(done);
    for (std::uint32_t i = 0; i < 16; ++i)
        EXPECT_EQ(buf[i * 64], i + 1);
}

TEST_F(CpuFixture, MemcpyEngineWriteLandsInArray)
{
    MemcpyEngine engine(eq, port, &cache);
    std::vector<std::uint8_t> src(4096, 0x3d);
    bool done = false;
    engine.writeNt(0x10000, 4096, src.data(), [&] { done = true; });
    drain();
    ASSERT_TRUE(done);
    std::array<std::uint8_t, 64> r{};
    dev.readBurst(map.decompose(0x10000 + 4032), r.data());
    EXPECT_EQ(r[0], 0x3d);
}

TEST_F(CpuFixture, MemcpyReadLatencyScalesWithMlp)
{
    MemcpyParams p1;
    p1.parallelism = 1;
    MemcpyParams p10;
    p10.parallelism = 10;
    MemcpyEngine slow(eq, port, nullptr, p1);
    MemcpyEngine fast(eq, port, nullptr, p10);

    Tick t_slow = 0, t_fast = 0;
    Tick start = eq.now();
    bool done = false;
    slow.read(0, 4096, nullptr, false, [&] {
        t_slow = eq.now() - start;
        done = true;
    });
    drain();
    ASSERT_TRUE(done);

    start = eq.now();
    done = false;
    fast.read(0, 4096, nullptr, false, [&] {
        t_fast = eq.now() - start;
        done = true;
    });
    drain();
    ASSERT_TRUE(done);
    EXPECT_LT(t_fast * 3, t_slow) << "MLP must speed reads up a lot";
}

TEST_F(CpuFixture, NtWritePacingLimitsSingleThreadRate)
{
    MemcpyParams p;
    p.ntIssueGap = 10 * kNs;
    MemcpyEngine engine(eq, port, nullptr, p);
    Tick start = eq.now();
    bool done = false;
    engine.writeNt(0, 4096, nullptr, [&] { done = true; });
    drain();
    ASSERT_TRUE(done);
    // 64 lines at one per 10 ns: at least 640 ns.
    EXPECT_GE(eq.now() - start, 640 * kNs);
}

TEST_F(CpuFixture, BulkModeAgreesWithDetailedOnThroughput)
{
    // Stream many 4 KB reads both ways; rates should be in the same
    // ballpark (the bulk model is calibrated against the detailed
    // path).
    auto measure = [&](bool bulk) {
        EventQueue local_eq;
        dram::DramDevice local_dev(map, dram::Ddr4Timing::ddr4_1600(),
                                   false, false);
        bus::MemoryBus local_bus(local_eq, local_dev, false);
        imc::Imc local_imc(local_eq, local_bus, imc::ImcConfig{},
                           loneSchedule(local_dev));
        MemcpyParams p;
        p.bulkMode = bulk;
        imc::HostPort local_port(local_imc);
        MemcpyEngine engine(local_eq, local_port, nullptr, p);

        std::uint64_t ops = 0;
        Addr next = 0;
        std::function<void()> loop = [&] {
            ++ops;
            next = (next + 4096) % (8 * kMiB);
            engine.read(next, 4096, nullptr, false, loop);
        };
        engine.read(0, 4096, nullptr, false, loop);
        Tick window = 2 * kMs;
        local_eq.runFor(window);
        return bytesPerTickToMBps(ops * 4096, window);
    };
    double detailed = measure(false);
    double bulk = measure(true);
    EXPECT_GT(detailed, 1000.0);
    EXPECT_GT(bulk, 1000.0);
    EXPECT_NEAR(bulk / detailed, 1.0, 0.5);
}

TEST(WorkerThreadTest, RunsOpsAndCollectsStats)
{
    EventQueue eq;
    int launched = 0;
    WorkerThread w(eq, "t0", [&](std::function<void(std::uint64_t)> done) {
        ++launched;
        eq.scheduleAfter(1 * kUs, [done] { done(4096); });
    });
    w.start();
    eq.runFor(10 * kUs + 1);
    w.stop();
    eq.runFor(2 * kUs);
    EXPECT_FALSE(w.running());
    EXPECT_GE(w.opsCompleted(), 9u);
    EXPECT_EQ(w.bytesMoved(), w.opsCompleted() * 4096);
    EXPECT_NEAR(ticksToUs(w.opLatency().percentile(50)), 1.0, 0.2);
}

TEST(WorkerThreadTest, ResetStatsClearsWindow)
{
    EventQueue eq;
    WorkerThread w(eq, "t0", [&](std::function<void(std::uint64_t)> done) {
        eq.scheduleAfter(kUs, [done] { done(64); });
    });
    w.start();
    eq.runFor(5 * kUs);
    EXPECT_GT(w.opsCompleted(), 0u);
    w.resetStats();
    EXPECT_EQ(w.opsCompleted(), 0u);
    w.stop();
    eq.runFor(2 * kUs);
}

} // namespace
} // namespace nvdimmc::cpu
