/**
 * @file
 * Driver-layer tests: replacement policies, the DRAM cache directory
 * (which is also the DAX page table), and nvdc driver behaviour on a
 * full system.
 */

#include <gtest/gtest.h>

#include "common/logging.hh"

#include <cstring>
#include <vector>

#include "core/system.hh"
#include "driver/dram_cache.hh"
#include "driver/replacement_policy.hh"

namespace nvdimmc::driver
{
namespace
{

// --- Replacement policies ---

TEST(LrcPolicyTest, EvictsInInstallOrderIgnoringAccesses)
{
    LrcPolicy p;
    p.reset(8);
    p.onInstall(3);
    p.onInstall(1);
    p.onInstall(5);
    p.onAccess(3); // LRC ignores accesses (paper §IV-B).
    p.onAccess(3);
    EXPECT_EQ(p.pickVictim(), 3u);
    p.onEvict(3);
    EXPECT_EQ(p.pickVictim(), 1u);
    p.onEvict(1);
    EXPECT_EQ(p.pickVictim(), 5u);
}

TEST(LruPolicyTest, AccessesRefreshRecency)
{
    LruPolicy p;
    p.reset(8);
    p.onInstall(0);
    p.onInstall(1);
    p.onInstall(2);
    p.onAccess(0); // 0 becomes MRU; victim should be 1.
    EXPECT_EQ(p.pickVictim(), 1u);
    p.onEvict(1);
    EXPECT_EQ(p.pickVictim(), 2u);
    p.onEvict(2);
    EXPECT_EQ(p.pickVictim(), 0u);
}

TEST(ClockPolicyTest, SecondChance)
{
    ClockPolicy p;
    p.reset(4);
    p.onInstall(0);
    p.onInstall(1);
    p.onInstall(2);
    // All have the reference bit; the first sweep clears them and the
    // second sweep evicts 0 first.
    EXPECT_EQ(p.pickVictim(), 0u);
}

TEST(RandomPolicyTest, PicksOnlyInstalledSlots)
{
    RandomPolicy p(123);
    p.reset(16);
    p.onInstall(4);
    p.onInstall(9);
    p.onInstall(12);
    p.onEvict(9);
    for (int i = 0; i < 50; ++i) {
        std::uint32_t v = p.pickVictim();
        EXPECT_TRUE(v == 4 || v == 12);
    }
}

TEST(PolicyFactoryTest, CreatesAllKnownPolicies)
{
    for (const char* name : {"lrc", "lru", "clock", "random"}) {
        auto p = ReplacementPolicy::create(name);
        ASSERT_NE(p, nullptr);
        EXPECT_STREQ(p->name(), name);
    }
    EXPECT_THROW(ReplacementPolicy::create("mru"), FatalError);
}

/** Every policy must only ever return installed slots. */
class PolicyProperty
    : public ::testing::TestWithParam<std::string>
{
};

TEST_P(PolicyProperty, VictimsAreAlwaysInstalled)
{
    auto p = ReplacementPolicy::create(GetParam(), 5);
    const std::uint32_t slots = 32;
    p->reset(slots);
    Rng rng(99);
    std::vector<bool> installed(slots, false);
    std::uint32_t count = 0;
    for (int step = 0; step < 2000; ++step) {
        if (count < slots && (count == 0 || rng.chance(0.55))) {
            // Install a random free slot.
            std::uint32_t s;
            do {
                s = static_cast<std::uint32_t>(rng.below(slots));
            } while (installed[s]);
            installed[s] = true;
            ++count;
            p->onInstall(s);
        } else {
            std::uint32_t v = p->pickVictim();
            ASSERT_TRUE(installed[v])
                << GetParam() << " step " << step;
            installed[v] = false;
            --count;
            p->onEvict(v);
        }
        if (count > 0 && rng.chance(0.3)) {
            // Touch a random installed slot.
            std::uint32_t s;
            do {
                s = static_cast<std::uint32_t>(rng.below(slots));
            } while (!installed[s]);
            p->onAccess(s);
        }
    }
}

INSTANTIATE_TEST_SUITE_P(AllPolicies, PolicyProperty,
                         ::testing::Values("lrc", "lru", "clock",
                                           "random"));

// --- DramCache directory ---

TEST(DramCacheTest, AllocateLookupEvictCycle)
{
    DramCache cache(4, 128, ReplacementPolicy::create("lrc"));
    EXPECT_TRUE(cache.hasFree());
    std::uint32_t s = cache.allocate(100);
    EXPECT_FALSE(cache.lookup(100).has_value())
        << "busy slots are not hits";
    cache.finishFill(s);
    ASSERT_TRUE(cache.lookup(100).has_value());
    EXPECT_EQ(*cache.lookup(100), s);

    cache.markDirty(s);
    CacheSlot prior = cache.beginEvict(s);
    EXPECT_TRUE(prior.dirty);
    EXPECT_EQ(prior.page, 100u);
    EXPECT_FALSE(cache.lookup(100).has_value());
    cache.finishEvict(s);
    EXPECT_EQ(cache.usedSlots(), 0u);
}

TEST(DramCacheTest, RebindReusesSlotForNewPage)
{
    DramCache cache(2, 4, ReplacementPolicy::create("lrc"));
    std::uint32_t s = cache.allocate(1);
    cache.finishFill(s);
    cache.beginEvict(s);
    cache.rebind(s, 2);
    cache.finishFill(s);
    EXPECT_FALSE(cache.lookup(1).has_value());
    ASSERT_TRUE(cache.lookup(2).has_value());
    EXPECT_EQ(*cache.lookup(2), s);
}

TEST(DramCacheTest, FillsToCapacityThenEvicts)
{
    DramCache cache(3, 3, ReplacementPolicy::create("lrc"));
    for (std::uint64_t p = 0; p < 3; ++p)
        cache.finishFill(cache.allocate(p));
    EXPECT_FALSE(cache.hasFree());
    std::uint32_t v = cache.pickVictim();
    EXPECT_EQ(cache.slot(v).page, 0u) << "LRC evicts oldest install";
}

TEST(DramCacheTest, HitRateAccounting)
{
    DramCache cache(2, 4, ReplacementPolicy::create("lru"));
    cache.finishFill(cache.allocate(1));
    cache.lookup(1);
    cache.lookup(2);
    EXPECT_DOUBLE_EQ(cache.stats().hitRate(), 0.5);
}

TEST(DramCacheTest, FreedSlotsAreReusedBeforeFreshOnes)
{
    // The slot a page lands in is its DRAM address and metadata line,
    // so allocation order is part of every simulated result: freed
    // slots come back most recently freed first, then never-used
    // slots in ascending order.
    DramCache cache(4, 16, ReplacementPolicy::create("lrc"));
    for (std::uint32_t s = 0; s < 3; ++s) {
        EXPECT_EQ(cache.allocate(s), s);
        cache.finishFill(s);
    }
    for (std::uint32_t s : {1u, 0u}) {
        cache.beginEvict(s);
        cache.finishEvict(s);
    }
    EXPECT_EQ(cache.usedSlots(), 1u);
    EXPECT_TRUE(cache.hasFree());
    const std::uint32_t expected[] = {0, 1, 3};
    for (std::uint32_t i = 0; i < 3; ++i) {
        std::uint32_t s = cache.allocate(10 + i);
        EXPECT_EQ(s, expected[i]) << "allocation " << i;
        cache.finishFill(s);
        EXPECT_EQ(cache.usedSlots(), 2u + i);
        EXPECT_EQ(cache.hasFree(), i < 2) << "allocation " << i;
    }
    EXPECT_THROW(cache.allocate(13), PanicError);

    // Pins nest, and a pinned slot is never the victim. LRC would
    // pick slot 2, the oldest install.
    cache.pin(2);
    cache.pin(2);
    cache.unpin(2);
    EXPECT_TRUE(cache.pinned(2));
    EXPECT_NE(cache.pickVictim(), 2u);
    cache.unpin(2);
    EXPECT_FALSE(cache.pinned(2));
    EXPECT_THROW(cache.unpin(2), PanicError);
}

TEST(DramCacheTest, SparseDirectoryEdges)
{
    // Pages [0, high] are the cache's to serve; none is held yet.
    const std::uint64_t high = std::uint64_t{1} << 20;
    DramCache cache(2, high + 1, ReplacementPolicy::create("lrc"));
    // A page far above any page held misses without making a
    // directory leaf to reach it.
    const std::uint64_t far = std::uint64_t{1} << 40;
    EXPECT_FALSE(cache.lookup(far).has_value());
    EXPECT_EQ(cache.stats().misses.value(), 1u);
    EXPECT_FALSE(cache.peek(far).has_value());
    EXPECT_EQ(cache.stats().misses.value(), 1u) << "peek counts nothing";
    EXPECT_THROW(cache.allocate(high + 1), PanicError);
    EXPECT_EQ(cache.usedSlots(), 0u);
    EXPECT_EQ(cache.directoryBytes(), 0u);

    std::uint32_t s = cache.allocate(3);
    cache.finishFill(s);
    ASSERT_TRUE(cache.lookup(3).has_value());

    // Rebind the slot to a page above any held: the directory only
    // names it once the fill finishes.
    cache.beginEvict(s);
    EXPECT_THROW(cache.rebind(s, high + 1), PanicError);
    EXPECT_FALSE(cache.peek(3).has_value());
    cache.rebind(s, high);
    EXPECT_FALSE(cache.lookup(high).has_value()) << "busy slots miss";
    cache.finishFill(s);
    ASSERT_TRUE(cache.lookup(high).has_value());
    EXPECT_EQ(*cache.lookup(high), s);
    EXPECT_FALSE(cache.peek(3).has_value());
    EXPECT_FALSE(cache.peek(far).has_value());

    cache.beginEvict(s);
    EXPECT_FALSE(cache.lookup(high).has_value());
    EXPECT_FALSE(cache.peek(high).has_value());
    EXPECT_EQ(cache.stats().misses.value(), 3u);
}

TEST(DramCacheTest, DirectoryHoldsLeavesOnlyForPagesHeld)
{
    // Filling the first and the last page of a module's range holds
    // two small directory leaves, not the range between them.
    const std::uint64_t pages = 983040;
    DramCache cache(4, pages, ReplacementPolicy::create("lrc"));
    EXPECT_FALSE(cache.peek(pages - 1).has_value());
    EXPECT_EQ(cache.directoryBytes(), 0u) << "lookups make no leaf";
    std::uint32_t first = cache.allocate(0);
    std::uint32_t last = cache.allocate(pages - 1);
    EXPECT_EQ(cache.directoryBytes(), 0u) << "busy slots are not PTEs";
    cache.finishFill(first);
    cache.finishFill(last);
    const std::uint64_t leaf_bytes = kTableLeafLen * sizeof(std::uint32_t);
    EXPECT_EQ(cache.directoryBytes(), 2 * leaf_bytes);
    EXPECT_EQ(cache.peek(0), first);
    EXPECT_EQ(cache.peek(pages - 1), last);
    EXPECT_FALSE(cache.peek(1).has_value());
}

TEST(DramCacheTest, ManyConcurrentPinsNeverYieldAPinnedVictim)
{
    // More accesses in flight than any bench reaches: 300 pins over
    // four slots. No victim is ever pinned, and each unpin releases
    // exactly one pin.
    DramCache cache(8, 64, ReplacementPolicy::create("lrc"));
    for (std::uint64_t p = 0; p < 8; ++p)
        cache.finishFill(cache.allocate(p));
    const std::uint32_t pinned_slots[] = {0, 1, 2, 5};
    std::vector<std::uint32_t> held(8, 0);
    for (std::uint32_t k = 0; k < 300; ++k) {
        std::uint32_t s = pinned_slots[k % 4];
        cache.pin(s);
        ++held[s];
    }
    auto check = [&](const char* when) {
        for (std::uint32_t s = 0; s < 8; ++s)
            ASSERT_EQ(cache.pinned(s), held[s] != 0) << when << " slot " << s;
        std::uint32_t v = cache.pickVictim();
        EXPECT_EQ(held[v], 0u) << when << ": victim " << v << " is pinned";
        auto clean = cache.pickCleanVictim();
        ASSERT_TRUE(clean.has_value());
        EXPECT_EQ(held[*clean], 0u) << when << ": clean victim " << *clean;
    };
    check("all pinned");
    // Release slot by slot, so each slot is seen with 1 pin left and
    // with none.
    for (std::uint32_t s : pinned_slots) {
        while (held[s] > 0) {
            cache.unpin(s);
            --held[s];
            if (held[s] <= 1)
                check("releasing");
        }
        EXPECT_THROW(cache.unpin(s), PanicError) << "slot " << s;
    }
    check("none pinned");
}

// --- NvdcDriver on a full system ---

struct DriverFixture : public ::testing::Test
{
    void
    build(std::function<void(core::SystemConfig&)> tweak = {})
    {
        auto cfg = core::SystemConfig::scaledTest();
        if (tweak)
            tweak(cfg);
        sys = std::make_unique<core::NvdimmcSystem>(cfg);
    }

    void
    write(Addr off, std::uint32_t len, const std::uint8_t* data)
    {
        bool done = false;
        sys->driver().write(off, len, data, [&] { done = true; });
        while (!done && sys->eq().runOne()) {
        }
        ASSERT_TRUE(done);
    }

    void
    read(Addr off, std::uint32_t len, std::uint8_t* buf)
    {
        bool done = false;
        sys->driver().read(off, len, buf, [&] { done = true; });
        while (!done && sys->eq().runOne()) {
        }
        ASSERT_TRUE(done);
    }

    std::unique_ptr<core::NvdimmcSystem> sys;
};

TEST_F(DriverFixture, WriteReadRoundTripThroughWholeStack)
{
    build();
    std::vector<std::uint8_t> w(4096), r(4096, 0);
    for (std::size_t i = 0; i < w.size(); ++i)
        w[i] = static_cast<std::uint8_t>(i * 7 + 1);
    write(0x4000, 4096, w.data());
    read(0x4000, 4096, r.data());
    EXPECT_EQ(std::memcmp(w.data(), r.data(), 4096), 0);
    EXPECT_TRUE(sys->hardwareClean());
}

TEST_F(DriverFixture, FirstTouchFaultsThenHits)
{
    build();
    std::vector<std::uint8_t> buf(4096, 1);
    write(0, 4096, buf.data());
    auto faults_after_first = sys->driver().stats().pageFaults.value();
    EXPECT_GE(faults_after_first, 1u);
    write(0, 4096, buf.data());
    EXPECT_EQ(sys->driver().stats().pageFaults.value(),
              faults_after_first);
    EXPECT_GE(sys->driver().cache().stats().hits.value(), 1u);
}

TEST_F(DriverFixture, MissLatencyIsAtLeastThreeRefreshWindows)
{
    build();
    // Make the block hold data so the fill is a real NAND cachefill
    // (a never-written block takes the zero-fill fast path instead).
    sys->driver().markEverWritten(0, 1);
    std::vector<std::uint8_t> buf(4096, 1);
    Tick start = sys->eq().now();
    write(0, 4096, buf.data());
    Tick lat = sys->eq().now() - start;
    // Paper §V-A: a cachefill needs >= 3 tREFI (23.4 us).
    EXPECT_GE(lat, 3 * sys->config().refresh.tREFI);
    EXPECT_GE(sys->nvmc()->windowsGranted(), 3u);
}

TEST_F(DriverFixture, EvictionWritesBackThroughCp)
{
    build();
    auto slots = sys->layout().slotCount();
    std::vector<std::uint8_t> buf(4096, 2);
    // Fill the cache via preconditioning (dirty), then one more write
    // must evict + write back.
    sys->precondition(0, slots, true);
    sys->driver().markEverWritten(0, slots + 8);
    write(static_cast<Addr>(slots) * 4096, 4096, buf.data());
    EXPECT_GE(sys->driver().stats().writebacks.value(), 1u);
    EXPECT_GE(sys->driver().stats().cachefills.value(), 1u);
    EXPECT_GE(sys->nvmc()->firmware().stats().writebacks.value(), 1u);
}

TEST_F(DriverFixture, NeverWrittenBlockSkipsCachefill)
{
    build();
    std::vector<std::uint8_t> buf(4096, 0xEE);
    Tick start = sys->eq().now();
    read(0x9000, 4096, buf.data());
    Tick lat = sys->eq().now() - start;
    EXPECT_EQ(sys->driver().stats().cachefills.value(), 0u)
        << "zero-fill fast path must not touch the CP channel";
    EXPECT_LT(lat, sys->config().refresh.tREFI);
    EXPECT_EQ(buf[0], 0x00);
}

TEST_F(DriverFixture, DirtyTrackingSkipsCleanWritebacks)
{
    build([](core::SystemConfig& c) { c.driver.trackDirty = true; });
    auto slots = sys->layout().slotCount();
    // Precondition CLEAN pages.
    sys->precondition(0, slots, false);
    sys->driver().markEverWritten(0, slots + 8);
    std::vector<std::uint8_t> buf(4096, 3);
    write(static_cast<Addr>(slots) * 4096, 4096, buf.data());
    EXPECT_EQ(sys->driver().stats().writebacks.value(), 0u)
        << "clean victim must not be written back";
    EXPECT_GE(sys->driver().stats().cachefills.value(), 1u);
}

TEST_F(DriverFixture, MergedCommandAblation)
{
    build([](core::SystemConfig& c) { c.driver.mergedWbCf = true; });
    auto slots = sys->layout().slotCount();
    sys->precondition(0, slots, true);
    sys->driver().markEverWritten(0, slots + 8);
    std::vector<std::uint8_t> buf(4096, 4);
    write(static_cast<Addr>(slots) * 4096, 4096, buf.data());
    EXPECT_GE(sys->driver().stats().mergedCommands.value(), 1u);
    EXPECT_GE(sys->nvmc()->firmware().stats().mergedOps.value(), 1u);
    // Data written back must be recoverable: read the evicted page.
    std::vector<std::uint8_t> r(4096, 0xff);
    read(0, 4096, r.data());
    // Preconditioned pages had no data written; zeros expected, and
    // crucially no hang or hardware violation.
    EXPECT_TRUE(sys->hardwareClean());
}

TEST_F(DriverFixture, HypotheticalModeUsesNoCp)
{
    build([](core::SystemConfig& c) {
        c.driver.hypothetical = true;
        c.driver.hypotheticalTd = 1850 * kNs;
        c.nvmcEnabled = false;
        c.media = core::MediaKind::Delay;
        c.mediaBytes = 64 * kMiB;
    });
    std::vector<std::uint8_t> buf(4096, 5);
    Tick start = sys->eq().now();
    write(0, 4096, buf.data());
    Tick lat = sys->eq().now() - start;
    EXPECT_GE(lat, 3 * 1850 * kNs) << "waits 3x tD";
    EXPECT_LT(lat, 20 * kUs) << "no refresh-window serialization";
    EXPECT_EQ(sys->driver().stats().cachefills.value(), 0u);
}

TEST_F(DriverFixture, ConcurrentFaultsToSamePageFillOnce)
{
    build();
    sys->driver().markEverWritten(0, 1);
    std::vector<std::uint8_t> b1(4096, 0), b2(4096, 0);
    bool d1 = false, d2 = false;
    sys->driver().read(0, 4096, b1.data(), [&] { d1 = true; });
    sys->driver().read(0, 4096, b2.data(), [&] { d2 = true; });
    while (!(d1 && d2) && sys->eq().runOne()) {
    }
    ASSERT_TRUE(d1 && d2);
    EXPECT_EQ(sys->nvmc()->firmware().stats().cachefills.value(), 1u)
        << "second fault must piggyback on the first fill";
}

TEST_F(DriverFixture, ConcurrentVictimFlushesEachFlushTheirOwnSlot)
{
    // Two dirty misses on two modules at one tick: each clflushes its
    // victim slot's 64 lines in its own chain record, both chains in
    // flight at once. The CPU holds every victim line dirty with bytes
    // of its own, so a chain that completed early, twice, or over the
    // other chain's slot would write stale bytes to NAND.
    build([](core::SystemConfig& c) { c.channels = 2; });
    NvdcDriver& drv = sys->driver();
    const std::uint32_t slots = sys->totalSlotCount();
    sys->precondition(0, slots, true);
    drv.markEverWritten(0, drv.capacityBytes() / 4096);

    auto pattern = [](std::uint64_t page, std::uint32_t line) {
        return static_cast<std::uint8_t>(0x40 + page * 64 + line);
    };
    // LRC evicts in install order: device page 0 on module 0, page 1
    // on module 1.
    for (std::uint64_t page : {0, 1}) {
        std::uint32_t ch = drv.channelOf(page);
        std::uint32_t slot = *drv.cache(ch).peek(drv.localPage(page));
        for (std::uint32_t l = 0; l < 64; ++l) {
            std::vector<std::uint8_t> line(64, pattern(page, l));
            Addr flat = sys->hostPort().interleave().flatten(
                ch, drv.layout(ch).slotAddr(slot) + l * 64);
            sys->cpuCache().store(flat, line.data(), nullptr);
        }
    }
    const auto flushes = sys->cpuCache().stats().flushWritebacks.value();

    int done0 = 0, done1 = 0;
    drv.write(static_cast<Addr>(slots) * 4096, 4096, nullptr,
              [&] { ++done0; });
    drv.write(static_cast<Addr>(slots + 1) * 4096, 4096, nullptr,
              [&] { ++done1; });
    // Bounded: a lost completion must fail, not spin on refresh.
    const Tick limit = sys->eq().now() + 1 * kMs;
    while (!(done0 && done1) && sys->eq().now() < limit &&
           sys->eq().runOne()) {
    }
    sys->eq().runFor(10 * kUs);
    EXPECT_EQ(done0, 1);
    EXPECT_EQ(done1, 1);
    EXPECT_EQ(drv.stats().writebacks.value(), 2u);
    EXPECT_FALSE(drv.cache(0).peek(drv.localPage(0)));
    EXPECT_FALSE(drv.cache(1).peek(drv.localPage(1)));
    EXPECT_GE(sys->cpuCache().stats().flushWritebacks.value() - flushes,
              128u);

    for (std::uint64_t page : {0, 1}) {
        std::vector<std::uint8_t> buf(4096, 0);
        read(page * 4096, 4096, buf.data());
        for (std::uint32_t l = 0; l < 64; ++l) {
            ASSERT_EQ(buf[l * 64], pattern(page, l))
                << "page " << page << " line " << l;
        }
    }
    EXPECT_TRUE(sys->hardwareClean());
}

TEST_F(DriverFixture, MultiPageAccessSpansSegments)
{
    build();
    std::vector<std::uint8_t> w(3 * 4096);
    for (std::size_t i = 0; i < w.size(); ++i)
        w[i] = static_cast<std::uint8_t>(i / 4096 + 1);
    write(0x2000, static_cast<std::uint32_t>(w.size()), w.data());
    std::vector<std::uint8_t> r(w.size(), 0);
    read(0x2000, static_cast<std::uint32_t>(r.size()), r.data());
    EXPECT_EQ(std::memcmp(w.data(), r.data(), w.size()), 0);
}

TEST_F(DriverFixture, MetadataMatchesDriverStateForPowerDump)
{
    build();
    std::vector<std::uint8_t> buf(4096, 6);
    write(0x7000, 4096, buf.data());
    // The metadata line for the slot holding page 7 must say
    // valid+dirty with the right NAND page.
    auto slot = sys->driver().cache().peek(7);
    ASSERT_TRUE(slot.has_value());
    // Let the metadata store drain through the WPQ.
    sys->eq().runFor(50 * kUs);

    Addr maddr = sys->layout().metadataAddr(*slot);
    std::vector<std::uint8_t> line(64);
    Addr line_addr = maddr & ~Addr{63};
    for (std::uint32_t off = 0; off < 64; off += 64) {
        sys->dramDevice().readBurst(
            sys->dramDevice().addressMap().decompose(line_addr + off),
            line.data() + off);
    }
    auto meta = nvmc::decodeSlotMetadata(line.data() +
                                         (maddr - line_addr));
    EXPECT_TRUE(meta.valid);
    EXPECT_TRUE(meta.dirty);
    EXPECT_EQ(meta.nandPage, 7u);
}

TEST_F(DriverFixture, RejectsOutOfRangeAccess)
{
    build();
    std::vector<std::uint8_t> buf(4096, 0);
    EXPECT_THROW(
        sys->driver().read(sys->driver().capacityBytes(), 4096,
                           buf.data(), [] {}),
        PanicError);
}

TEST_F(DriverFixture, MarkEverWrittenRejectsRangePastDevice)
{
    build();
    const std::uint64_t pages = sys->driver().capacityBytes() / 4096;
    sys->driver().markEverWritten(pages - 1, 1); // The last page is fine.
    EXPECT_THROW(sys->driver().markEverWritten(pages - 1, 2), PanicError);
}

TEST_F(DriverFixture, PreconditionRejectsRangePastDevice)
{
    build();
    const std::uint64_t pages = sys->driver().capacityBytes() / 4096;
    EXPECT_THROW(sys->precondition(pages - 2, 4, true), PanicError);
    EXPECT_EQ(sys->driver().cache().usedSlots(), 0u)
        << "a rejected range must leave the cache untouched";
    EXPECT_FALSE(sys->driver().cache().peek(pages + 1).has_value());
    sys->precondition(pages - 2, 2, true); // Ends on the last page.
    EXPECT_TRUE(sys->driver().cache().peek(pages - 1).has_value());
}

} // namespace
} // namespace nvdimmc::driver
