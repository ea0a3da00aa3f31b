/**
 * @file
 * NVM media tests: Z-NAND geometry/timing/discipline, simple media
 * presets, and the programmable-delay media.
 */

#include <gtest/gtest.h>

#include <cstring>
#include <vector>

#include "common/event_queue.hh"
#include "common/logging.hh"
#include "common/serialize.hh"
#include "nvm/delay_media.hh"
#include "nvm/nvm_media.hh"
#include "nvm/pram.hh"
#include "nvm/sttmram.hh"
#include "nvm/znand.hh"

namespace nvdimmc::nvm
{
namespace
{

TEST(ZNandParams, PocGeometryIs128GiB)
{
    auto p = ZNandParams::poc128GB();
    EXPECT_EQ(p.capacityBytes(), 128 * kGiB);
    EXPECT_EQ(p.channels, 2u);
}

TEST(ZNandParams, TinyGeometryIsSmall)
{
    auto p = ZNandParams::tiny();
    EXPECT_LE(p.capacityBytes(), 64 * kMiB);
    EXPECT_GE(p.totalBlocks(), 16u);
}

struct ZNandFixture : public ::testing::Test
{
    ZNandFixture() : nand(eq, ZNandParams::tiny()) {}

    EventQueue eq;
    ZNand nand;
};

TEST_F(ZNandFixture, FlatPageRoundTrip)
{
    const auto& p = nand.params();
    for (std::uint64_t page : {std::uint64_t{0}, std::uint64_t{1},
                               p.totalPages() / 2,
                               p.totalPages() - 1}) {
        NandAddr a = nand.fromFlatPage(page);
        EXPECT_EQ(nand.flatPage(a), page);
        EXPECT_LT(a.channel, p.channels);
        EXPECT_LT(a.die, p.diesPerChannel);
        EXPECT_LT(a.plane, p.planesPerDie);
        EXPECT_LT(a.block, p.blocksPerPlane);
        EXPECT_LT(a.page, p.pagesPerBlock);
    }
}

TEST_F(ZNandFixture, ProgramThenReadReturnsData)
{
    std::vector<std::uint8_t> w(4096, 0xc3), r(4096, 0);
    bool pdone = false, rdone = false;
    nand.programPage(0, w.data(), [&] { pdone = true; });
    eq.runAll();
    ASSERT_TRUE(pdone);
    nand.readPage(0, r.data(), [&] { rdone = true; });
    eq.runAll();
    ASSERT_TRUE(rdone);
    EXPECT_EQ(std::memcmp(w.data(), r.data(), 4096), 0);
}

TEST_F(ZNandFixture, ErasedPageReadsAllOnes)
{
    std::vector<std::uint8_t> r(4096, 0);
    nand.readPage(5, r.data(), [] {});
    eq.runAll();
    EXPECT_EQ(r[0], 0xff);
    EXPECT_EQ(r[4095], 0xff);
}

TEST_F(ZNandFixture, ReadLatencyIncludesArrayAndTransfer)
{
    bool done = false;
    Tick finish = 0;
    nand.readPage(0, nullptr, [&] {
        done = true;
        finish = eq.now();
    });
    eq.runAll();
    ASSERT_TRUE(done);
    const auto& p = nand.params();
    // tR plus ~20.5 us of transfer at 200 MB/s.
    Tick xfer = static_cast<Tick>(p.pageBytes / (p.channelMBps * 1e6) *
                                  1e12);
    EXPECT_GE(finish, p.tR + xfer);
    EXPECT_LE(finish, p.tR + xfer + kUs);
}

TEST_F(ZNandFixture, ProgramOccupiesDieForTprog)
{
    bool done = false;
    Tick finish = 0;
    nand.programPage(0, nullptr, [&] {
        done = true;
        finish = eq.now();
    });
    eq.runAll();
    ASSERT_TRUE(done);
    EXPECT_GE(finish, nand.params().tPROG);
}

TEST_F(ZNandFixture, DieSerializationAndChannelParallelism)
{
    const auto& p = nand.params();
    // Two reads to the same die serialize; reads to different
    // channels overlap.
    std::uint64_t same_die_a = 0;
    std::uint64_t same_die_b = 1;
    std::uint64_t other_channel =
        nand.flatPage({1, 0, 0, 0, 0});

    Tick t_a = 0, t_b = 0, t_c = 0;
    nand.readPage(same_die_a, nullptr, [&] { t_a = eq.now(); });
    nand.readPage(same_die_b, nullptr, [&] { t_b = eq.now(); });
    nand.readPage(other_channel, nullptr, [&] { t_c = eq.now(); });
    eq.runAll();
    EXPECT_GE(t_b, t_a + p.tR) << "same-die reads serialize on tR";
    EXPECT_LT(t_c, t_b) << "other-channel read overlaps";
}

TEST_F(ZNandFixture, ProgramTwiceWithoutEraseIsViolation)
{
    nand.programPage(0, nullptr, [] {});
    eq.runAll();
    nand.programPage(0, nullptr, [] {});
    eq.runAll();
    EXPECT_EQ(nand.stats().disciplineViolations.value(), 1u);
}

TEST_F(ZNandFixture, OutOfOrderProgramIsViolation)
{
    nand.programPage(3, nullptr, [] {}); // Page 3 before 0.
    eq.runAll();
    EXPECT_EQ(nand.stats().disciplineViolations.value(), 1u);
}

TEST_F(ZNandFixture, EraseResetsBlockAndCountsWear)
{
    const auto& p = nand.params();
    for (std::uint32_t i = 0; i < p.pagesPerBlock; ++i) {
        nand.programPage(i, nullptr, [] {});
        eq.runAll();
    }
    EXPECT_TRUE(nand.pageProgrammed(0));
    nand.eraseBlock(0, [] {});
    eq.runAll();
    EXPECT_FALSE(nand.pageProgrammed(0));
    EXPECT_EQ(nand.eraseCount(0), 1u);
    EXPECT_EQ(nand.maxEraseCount(), 1u);
    // Reprogramming page 0 is now legal.
    nand.programPage(0, nullptr, [] {});
    eq.runAll();
    EXPECT_EQ(nand.stats().disciplineViolations.value(), 0u);
}

TEST_F(ZNandFixture, EraseForgetsPageData)
{
    const auto& p = nand.params();
    std::vector<std::uint8_t> w(4096, 0x5a), r(4096, 0);
    nand.programPage(p.pagesPerBlock, w.data(), [] {}); // Block 1.
    eq.runAll();
    nand.eraseBlock(1, [] {});
    eq.runAll();
    // Programmed without data after the erase: the page reads erased,
    // not the bytes it held before.
    nand.programPage(p.pagesPerBlock, nullptr, [] {});
    nand.readPage(p.pagesPerBlock, r.data(), [] {});
    eq.runAll();
    EXPECT_EQ(r[0], 0xff);
    EXPECT_EQ(r[4095], 0xff);
}

TEST_F(ZNandFixture, CheckpointHoldsProgrammedPagesInOrder)
{
    // Pages programmed with data, out of page order across blocks,
    // one block erased again: the stream lists the pages that still
    // hold data, ascending, and restores them.
    const auto& p = nand.params();
    const std::uint64_t b5 = 5 * std::uint64_t{p.pagesPerBlock};
    const std::uint64_t b2 = 2 * std::uint64_t{p.pagesPerBlock};
    const std::uint64_t b3 = 3 * std::uint64_t{p.pagesPerBlock};
    for (std::uint64_t page : {b5, b2, b5 + 1, b3, b2 + 1}) {
        std::vector<std::uint8_t> w(4096, static_cast<std::uint8_t>(page));
        nand.programPage(page, w.data(), [] {});
    }
    nand.programPage(b5 + 2, nullptr, [] {}); // Timing only: no data.
    eq.runAll();
    nand.eraseBlock(3, [] {});
    eq.runAll();

    ByteWriter w;
    nand.saveState(w);
    ByteReader r(w.data());
    r.expectTag(0x314e445a); // "ZDN1"
    EXPECT_EQ(r.u64(), p.totalPages());
    std::uint64_t nblocks = r.u64();
    for (std::uint64_t i = 0; i < nblocks; ++i) {
        r.u64();
        r.u32();
        r.u32();
        for (std::uint32_t pg = 0; pg < p.pagesPerBlock; ++pg)
            r.u8();
    }
    const std::vector<std::uint64_t> want = {b2, b2 + 1, b5, b5 + 1};
    ASSERT_EQ(r.u64(), want.size());
    std::vector<std::uint8_t> page(p.pageBytes);
    for (std::uint64_t expect : want) {
        EXPECT_EQ(r.u64(), expect);
        r.bytes(page.data(), page.size());
        EXPECT_EQ(page[0], static_cast<std::uint8_t>(expect));
        EXPECT_EQ(page[4095], static_cast<std::uint8_t>(expect));
    }

    EventQueue eq2;
    ZNand restored(eq2, p);
    ByteReader all(w.data());
    restored.loadState(all);
    EXPECT_EQ(all.remaining(), 0u);
    for (std::uint64_t pg : {b2 + 1, b3, b5 + 2}) {
        std::vector<std::uint8_t> got(4096, 0);
        restored.readPage(pg, got.data(), [] {});
        eq2.runAll();
        EXPECT_EQ(got[0], pg == b2 + 1 ? static_cast<std::uint8_t>(pg)
                                       : std::uint8_t{0xff})
            << "page " << pg;
    }

    // A stream naming a page past the device is refused.
    ByteWriter bad;
    bad.tag(0x314e445a);
    bad.u64(p.totalPages());
    bad.u64(0); // No blocks.
    bad.u64(1);
    bad.u64(p.totalPages());
    std::vector<std::uint8_t> zeros(p.pageBytes, 0);
    bad.bytes(zeros.data(), zeros.size());
    bad.u64(0); // No bad blocks.
    ZNand fresh(eq2, p);
    ByteReader rb(bad.data());
    EXPECT_THROW(fresh.loadState(rb), FatalError);
}

TEST_F(ZNandFixture, BadBlockMarking)
{
    EXPECT_FALSE(nand.isBadBlock(3));
    nand.markBadBlock(3);
    EXPECT_TRUE(nand.isBadBlock(3));
}

TEST(SimpleMediaTest, LatencyAndBandwidthModel)
{
    EventQueue eq;
    SimpleMedia::Params p;
    p.readLatency = 100 * kNs;
    p.writeLatency = 200 * kNs;
    p.bandwidthMBps = 1000.0; // 1 GB/s -> 4 KB in ~4.1 us.
    SimpleMedia m(eq, "test", 1 * kGiB, p);

    Tick finish = 0;
    m.readRange(0, 4096, nullptr, [&] { finish = eq.now(); });
    eq.runAll();
    EXPECT_NEAR(ticksToUs(finish), 0.1 + 4.096, 0.05);

    // Back-to-back ops pipeline through busyUntil.
    Tick f2 = 0;
    m.writeRange(0, 4096, nullptr, [&] { f2 = eq.now(); });
    eq.runAll();
    EXPECT_GT(f2, finish);
}

TEST(SimpleMediaTest, DataRoundTrip)
{
    EventQueue eq;
    Pram m(eq, 64 * kMiB);
    std::vector<std::uint8_t> w(8192, 0x42), r(8192, 0);
    m.writeRange(4096, 8192, w.data(), [] {});
    eq.runAll();
    m.readRange(4096, 8192, r.data(), [] {});
    eq.runAll();
    EXPECT_EQ(std::memcmp(w.data(), r.data(), 8192), 0);
}

TEST(SimpleMediaTest, UnwrittenReadsZero)
{
    EventQueue eq;
    SttMram m(eq, 64 * kMiB);
    std::vector<std::uint8_t> r(4096, 0xaa);
    m.readRange(0, 4096, r.data(), [] {});
    eq.runAll();
    EXPECT_EQ(r[0], 0);
}

TEST(SimpleMediaTest, PresetLatenciesOrdered)
{
    // STT-MRAM must be much faster than PRAM (paper §III-A).
    EXPECT_LT(SttMram::defaultParams().readLatency,
              Pram::defaultParams().readLatency);
    EXPECT_LT(SttMram::defaultParams().writeLatency,
              Pram::defaultParams().writeLatency);
}

TEST(DelayMediaTest, ProgrammableDelay)
{
    EventQueue eq;
    DelayMedia m(eq, 64 * kMiB, 1850 * kNs);
    Tick finish = 0;
    m.readRange(0, 4096, nullptr, [&] { finish = eq.now(); });
    eq.runAll();
    EXPECT_EQ(finish, 1850 * kNs);

    m.setDelay(0);
    Tick f2 = kTickNever;
    m.readRange(0, 4096, nullptr, [&] { f2 = eq.now(); });
    eq.runAll();
    EXPECT_EQ(f2, finish) << "tD = 0 completes immediately";
}

TEST(DirectBackendTest, PageInterface)
{
    EventQueue eq;
    DelayMedia m(eq, 64 * kMiB, 10 * kNs);
    DirectBackend backend(m);
    EXPECT_EQ(backend.pageCount(), 64 * kMiB / 4096);

    std::vector<std::uint8_t> w(4096, 0x77), r(4096, 0);
    backend.writePage(3, w.data(), [] {});
    eq.runAll();
    backend.readPage(3, r.data(), [] {});
    eq.runAll();
    EXPECT_EQ(std::memcmp(w.data(), r.data(), 4096), 0);
}

TEST(RawZNandBackendTest, WrapsWithoutTranslation)
{
    EventQueue eq;
    ZNand nand(eq, ZNandParams::tiny());
    RawZNandBackend backend(nand);
    EXPECT_EQ(backend.pageCount(), nand.params().totalPages());
    std::vector<std::uint8_t> w(4096, 0x12), r(4096, 0);
    backend.writePage(0, w.data(), [] {});
    eq.runAll();
    backend.readPage(0, r.data(), [] {});
    eq.runAll();
    EXPECT_EQ(std::memcmp(w.data(), r.data(), 4096), 0);
}

/** Media stats accumulate. */
TEST(MediaStatsTest, CountsOps)
{
    EventQueue eq;
    Pram m(eq, 64 * kMiB);
    m.readRange(0, 4096, nullptr, [] {});
    m.writeRange(0, 4096, nullptr, [] {});
    eq.runAll();
    EXPECT_EQ(m.stats().reads.value(), 1u);
    EXPECT_EQ(m.stats().writes.value(), 1u);
    EXPECT_GT(m.stats().readLatency.max(), 0u);
}

} // namespace
} // namespace nvdimmc::nvm
