/**
 * @file
 * Workload generator tests: FIO job mechanics, SSD rate model, TPC-H
 * specs and cache replay, file copy phases, the record pattern.
 */

#include <gtest/gtest.h>

#include <set>
#include <string>
#include <vector>

#include "common/event_queue.hh"
#include "common/logging.hh"
#include "common/random.hh"
#include "driver/dram_cache.hh"
#include "workload/fio.hh"
#include "workload/filecopy.hh"
#include "workload/mixedload.hh"
#include "workload/ssd.hh"
#include "workload/tpch.hh"

namespace nvdimmc::workload
{
namespace
{

/** Instant-completion device that records the requests it saw. */
struct RecordingDevice
{
    struct Op
    {
        Addr offset;
        std::uint32_t len;
        bool isWrite;
    };

    EventQueue& eq;
    Tick serviceTime;
    std::vector<Op> ops;

    AccessFn
    fn()
    {
        return [this](Addr off, std::uint32_t len, bool wr,
                      std::function<void()> done) {
            ops.push_back({off, len, wr});
            eq.scheduleAfter(serviceTime, std::move(done));
        };
    }
};

TEST(FioJobTest, RandReadStaysInRegionAndAligned)
{
    EventQueue eq;
    RecordingDevice dev{eq, 1 * kUs, {}};
    FioConfig cfg;
    cfg.pattern = FioConfig::Pattern::RandRead;
    cfg.blockSize = 4096;
    cfg.regionOffset = 1 * kMiB;
    cfg.regionBytes = 4 * kMiB;
    cfg.rampTime = 100 * kUs;
    cfg.runTime = 1 * kMs;
    FioJob job(eq, dev.fn(), cfg);
    FioResult res = job.run();

    EXPECT_GT(res.ops, 500u);
    for (const auto& op : dev.ops) {
        EXPECT_GE(op.offset, cfg.regionOffset);
        EXPECT_LT(op.offset, cfg.regionOffset + cfg.regionBytes);
        EXPECT_EQ(op.offset % 4096, 0u);
        EXPECT_FALSE(op.isWrite);
    }
}

TEST(FioJobTest, ThroughputMatchesServiceTime)
{
    EventQueue eq;
    RecordingDevice dev{eq, 2 * kUs, {}};
    FioConfig cfg;
    cfg.pattern = FioConfig::Pattern::RandWrite;
    cfg.blockSize = 4096;
    cfg.regionBytes = 16 * kMiB;
    cfg.rampTime = 50 * kUs;
    cfg.runTime = 2 * kMs;
    FioJob job(eq, dev.fn(), cfg);
    FioResult res = job.run();
    // 1 thread, 2 us/op => ~500 kiops/1000 = 500 IOPS/ms => 500 KIOPS?
    // 2 us per op = 500 ops/ms = 500 KIOPS * 1e-3... compute directly:
    EXPECT_NEAR(res.kiops, 500.0, 25.0);
    EXPECT_NEAR(res.mbps, 500.0 * 4096.0 / 1000.0, 100.0);
    EXPECT_NEAR(ticksToUs(res.meanLatency), 2.0, 0.3);
}

TEST(FioJobTest, ThreadsScaleClosedLoop)
{
    EventQueue eq;
    RecordingDevice dev{eq, 2 * kUs, {}};
    FioConfig cfg;
    cfg.pattern = FioConfig::Pattern::RandRead;
    cfg.blockSize = 4096;
    cfg.regionBytes = 16 * kMiB;
    cfg.rampTime = 50 * kUs;
    cfg.runTime = 1 * kMs;
    cfg.threads = 4;
    FioJob job(eq, dev.fn(), cfg);
    FioResult res = job.run();
    EXPECT_NEAR(res.kiops, 2000.0, 150.0)
        << "independent service means linear scaling";
}

TEST(FioJobTest, SequentialPatternAdvancesAndWraps)
{
    EventQueue eq;
    RecordingDevice dev{eq, 1 * kUs, {}};
    FioConfig cfg;
    cfg.pattern = FioConfig::Pattern::SeqRead;
    cfg.blockSize = 4096;
    cfg.regionBytes = 64 * 4096;
    cfg.rampTime = 0;
    cfg.runTime = 200 * kUs;
    FioJob job(eq, dev.fn(), cfg);
    job.run();
    ASSERT_GT(dev.ops.size(), 70u) << "must wrap the region";
    for (std::size_t i = 1; i < 64 && i < dev.ops.size(); ++i) {
        EXPECT_EQ(dev.ops[i].offset,
                  dev.ops[i - 1].offset + 4096);
    }
    // Wrap-around back to 0.
    EXPECT_EQ(dev.ops[64].offset, 0u);
}

TEST(FioJobTest, RejectsZeroAndUnalignedBlockSize)
{
    // Regression: blockSize 0 passed construction and later divided by
    // zero in pickOffset (SIGFPE); 100 reached the driver and panicked
    // at the first op. Both now fail at construction, naming the field.
    EventQueue eq;
    RecordingDevice dev{eq, 1 * kUs, {}};
    for (std::uint32_t bs : {0u, 100u, 32u}) {
        FioConfig cfg;
        cfg.blockSize = bs;
        cfg.regionBytes = 4 * kMiB;
        try {
            FioJob job(eq, dev.fn(), cfg);
            ADD_FAILURE() << "blockSize " << bs << " was accepted";
        } catch (const FatalError& e) {
            EXPECT_NE(std::string(e.what()).find("blockSize"),
                      std::string::npos)
                << e.what();
        }
    }
    FioConfig ok;
    ok.blockSize = 128;
    ok.regionBytes = 4 * kMiB;
    EXPECT_NO_THROW(FioJob(eq, dev.fn(), ok));
    EXPECT_TRUE(dev.ops.empty());
}

TEST(SsdTest, SequentialReadRateIsHonoured)
{
    EventQueue eq;
    Ssd ssd(eq, Ssd::Params{});
    // 52 MB at 520 MB/s = 100 ms.
    bool done = false;
    Tick finish = 0;
    ssd.read(52 * 1000 * 1000, [&] {
        done = true;
        finish = eq.now();
    });
    eq.runAll();
    ASSERT_TRUE(done);
    EXPECT_NEAR(ticksToSec(finish), 0.1, 0.005);
}

TEST(SsdTest, RequestsSerialize)
{
    EventQueue eq;
    Ssd ssd(eq, Ssd::Params{});
    Tick t1 = 0, t2 = 0;
    ssd.read(1000000, [&] { t1 = eq.now(); });
    ssd.read(1000000, [&] { t2 = eq.now(); });
    eq.runAll();
    EXPECT_GE(t2, 2 * t1 - 100 * kNs);
}

TEST(TpchSpecTest, AllTwentyTwoQueriesPresentAndSane)
{
    const auto& specs = tpchQuerySpecs();
    ASSERT_EQ(specs.size(), 22u);
    std::set<int> ids;
    for (const auto& q : specs) {
        ids.insert(q.id);
        EXPECT_GT(q.footprintFraction, 0.0);
        EXPECT_LE(q.footprintFraction, 1.0);
        EXPECT_GE(q.seqFraction, 0.0);
        EXPECT_LE(q.seqFraction, 1.0);
        EXPECT_GE(q.accessBytes, 4096u);
        EXPECT_GT(q.passes, 0.0);
    }
    EXPECT_EQ(ids.size(), 22u);
    // The paper's two anchors.
    EXPECT_DOUBLE_EQ(specs[0].seqFraction, 1.0) << "Q1 is a scan";
    EXPECT_LT(specs[19].seqFraction, 0.1) << "Q20 is random";
    EXPECT_EQ(specs[19].accessBytes, 4096u);
}

TEST(TpchReplayTest, LruBeatsLrcOnHotJoinQuery)
{
    // Paper §VII-B5 reports LRU hit rates of 78.7-99.3% for caches
    // of 1-16% of the database. We assert (a) LRU is at least as good
    // as the PoC's LRC up to sampling noise, and (b) LRU at a ~3%
    // cache fraction already clears the paper's 1 GB operating point
    // on a locality-bearing query (Q9, the big join).
    const auto& q9 = tpchQuerySpecs()[8];
    const std::uint64_t db_pages = 65536;
    const std::uint32_t slots = 2048;

    driver::DramCache lrc(slots, db_pages,
                          driver::ReplacementPolicy::create("lrc"));
    driver::DramCache lru(slots, db_pages,
                          driver::ReplacementPolicy::create("lru"));
    double hr_lrc = replayTpchOnCache(lrc, q9, db_pages, 120000, 3);
    double hr_lru = replayTpchOnCache(lru, q9, db_pages, 120000, 3);
    // Both policies must exploit the join's hot set; the paper's
    // LRU-beats-LRC margin depends on HANA-internal reuse patterns
    // our storage-level trace cannot carry (see EXPERIMENTS.md), so
    // we only require rough parity here. The strict LRU > LRC
    // property is asserted below on a recency-structured workload.
    EXPECT_GE(hr_lru, hr_lrc - 0.10);
    EXPECT_GE(hr_lru, 0.45);
    EXPECT_GE(hr_lrc, 0.45);
}

TEST(TpchReplayTest, LruBeatsLrcOnRecencyWorkload)
{
    // A workload with genuine recency (re-reference one of the last
    // K touched pages) is where LRU must beat least-recently-cached:
    // LRC evicts by install order even if the page was touched a
    // moment ago.
    auto run = [](const char* policy) {
        const std::uint32_t slots = 512;
        const std::uint64_t pages = 8192;
        driver::DramCache cache(
            slots, pages, driver::ReplacementPolicy::create(policy));
        Rng rng(31);
        std::vector<std::uint64_t> recent;
        for (int i = 0; i < 200000; ++i) {
            std::uint64_t page;
            if (!recent.empty() && rng.chance(0.6)) {
                page = recent[recent.size() - 1 -
                              rng.below(std::min<std::size_t>(
                                  recent.size(), 256))];
            } else {
                page = rng.below(pages);
            }
            recent.push_back(page);
            if (recent.size() > 256)
                recent.erase(recent.begin());
            if (cache.lookup(page))
                continue;
            std::uint32_t slot;
            if (cache.hasFree()) {
                slot = cache.allocate(page);
            } else {
                std::uint32_t victim = cache.pickVictim();
                cache.beginEvict(victim);
                cache.rebind(victim, page);
                slot = victim;
            }
            cache.finishFill(slot);
        }
        return cache.stats().hitRate();
    };
    double lru = run("lru");
    double lrc = run("lrc");
    EXPECT_GT(lru, lrc + 0.005)
        << "LRU must beat FIFO when references are recency-driven";
}

TEST(TpchReplayTest, HitRateGrowsWithCacheSize)
{
    const auto& q9 = tpchQuerySpecs()[8];
    const std::uint64_t db_pages = 8192;
    double prev = -1.0;
    for (std::uint32_t slots : {256u, 1024u, 4096u}) {
        driver::DramCache cache(
            slots, db_pages, driver::ReplacementPolicy::create("lru"));
        double hr = replayTpchOnCache(cache, q9, db_pages, 60000, 5);
        EXPECT_GT(hr, prev);
        prev = hr;
    }
    EXPECT_GT(prev, 0.4);
}

TEST(TpchRunTest, ComputeModelSetsScanOverRandomRatio)
{
    // Against a fixed-latency device, wall time per access is
    // service + compute; Q1's big compute-heavy accesses vs Q20's
    // small cheap ones must land near the analytic ratio.
    EventQueue eq;
    const Tick service = 20 * kUs;
    auto device = [&eq, service](Addr, std::uint32_t, bool,
                                 std::function<void()> done) {
        eq.scheduleAfter(service, std::move(done));
    };
    TpchRunConfig cfg;
    cfg.dbBytes = 256 * kMiB;
    cfg.maxAccesses = 1000; // Both queries cap here -> equal op count.
    const auto& q1 = tpchQuerySpecs()[0];
    const auto& q20 = tpchQuerySpecs()[19];
    Tick t1 = runTpchQuery(eq, device, q1, cfg);
    Tick t20 = runTpchQuery(eq, device, q20, cfg);
    double per1 = ticksToUs(service) +
                  q1.computeNsPerByte * q1.accessBytes / 1000.0;
    double per20 = ticksToUs(service) +
                   q20.computeNsPerByte * q20.accessBytes / 1000.0;
    EXPECT_NEAR(static_cast<double>(t1) / static_cast<double>(t20),
                per1 / per20, 0.3 * per1 / per20);
}

TEST(FileCopyTest, PhasesSplitAroundCacheCapacity)
{
    EventQueue eq;
    Ssd ssd(eq, Ssd::Params{});

    // Device: fast while total written < "cache", then 10x slower.
    std::uint64_t written = 0;
    const std::uint64_t cache_bytes = 32 * kMiB;
    auto device = [&](Addr, std::uint32_t len, bool,
                      std::function<void()> done) {
        Tick cost = written < cache_bytes ? 100 * kNs : 50 * kUs;
        written += len;
        eq.scheduleAfter(cost * (len / 4096), std::move(done));
    };

    FileCopyConfig cfg;
    cfg.fileBytes = 64 * kMiB;
    cfg.chunkBytes = 256 * 1024;
    cfg.sampleInterval = 10 * kMs;
    cfg.cacheBytes = cache_bytes;
    FileCopyResult res = runFileCopy(eq, ssd, device, cfg);

    EXPECT_GT(res.cachedPhaseMBps, res.uncachedPhaseMBps * 2);
    EXPECT_GT(res.bandwidth.points().size(), 2u);
    EXPECT_GT(res.elapsed, 0u);
}

/** The record bytes as one serial xorshift64 walk, the definition. */
void
serialRecord(std::uint8_t* buf, std::uint32_t len, std::uint64_t seed)
{
    std::uint64_t x = seed * 0x9e3779b97f4a7c15ull + 1;
    for (std::uint32_t i = 0; i < len; ++i) {
        x ^= x << 13;
        x ^= x >> 7;
        x ^= x << 17;
        buf[i] = static_cast<std::uint8_t>(x);
    }
}

TEST(RecordPattern, MatchesSerialReference)
{
    std::vector<std::uint64_t> seeds = {0, 1, ~std::uint64_t{0}};
    Rng rng(97, 5);
    for (int i = 0; i < 6; ++i)
        seeds.push_back(rng.next64());

    // Short records, lane boundaries and tails.
    for (std::uint32_t len : {0u, 1u, 15u, 16u, 17u, 1023u, 1024u, 4095u,
                              4096u, 4097u, 65536u}) {
        const RecordPattern pattern(len);
        // The first and last byte, and the first and last of each lane.
        std::set<std::uint32_t> probes;
        if (len > 0)
            probes = {0, len - 1};
        const std::uint32_t lane = len / RecordPattern::kLanes;
        for (std::uint32_t j = 0; lane > 0 && j < RecordPattern::kLanes;
             ++j) {
            probes.insert(j * lane);
            probes.insert((j + 1) * lane - 1);
        }

        std::vector<std::uint8_t> want(len), got(len);
        for (std::uint64_t seed : seeds) {
            serialRecord(want.data(), len, seed);
            for (std::uint32_t i = 0; i < len; ++i)
                got[i] = static_cast<std::uint8_t>(~want[i]);
            pattern.fill(got.data(), seed);
            ASSERT_EQ(got, want) << "len " << len << " seed " << seed;

            EXPECT_TRUE(pattern.check(want.data(), seed))
                << "len " << len << " seed " << seed;
            for (std::uint32_t at : probes) {
                const auto bit = static_cast<std::uint8_t>(1u << (at % 8));
                want[at] ^= bit;
                EXPECT_FALSE(pattern.check(want.data(), seed))
                    << "len " << len << " seed " << seed
                    << " flipped byte " << at;
                want[at] ^= bit;
            }
        }
    }
}

} // namespace
} // namespace nvdimmc::workload
