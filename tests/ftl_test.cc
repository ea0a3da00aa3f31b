/**
 * @file
 * FTL tests: mapping integrity, GC liveness, wear leveling, bad
 * blocks, overprovisioning and ECC.
 */

#include <gtest/gtest.h>

#include "common/logging.hh"

#include <cstring>
#include <map>
#include <string>
#include <vector>

#include "common/event_queue.hh"
#include "common/random.hh"
#include "ftl/ftl.hh"

namespace nvdimmc::ftl
{
namespace
{

nvm::ZNandParams
tinyParams()
{
    return nvm::ZNandParams::tiny();
}

FtlConfig
testConfig()
{
    FtlConfig cfg;
    cfg.gcLowWaterBlocks = 2;
    cfg.gcHighWaterBlocks = 4;
    return cfg;
}

struct FtlFixture : public ::testing::Test
{
    FtlFixture()
        : nand(eq, tinyParams()), ftl(eq, nand, testConfig())
    {
    }

    void
    writePage(std::uint64_t lpn, std::uint8_t fill)
    {
        std::vector<std::uint8_t> buf(4096, fill);
        bool done = false;
        ftl.writePage(lpn, buf.data(), [&] { done = true; });
        eq.runAll();
        ASSERT_TRUE(done);
    }

    std::uint8_t
    readPageFirstByte(std::uint64_t lpn)
    {
        std::vector<std::uint8_t> buf(4096, 0xcd);
        bool done = false;
        ftl.readPage(lpn, buf.data(), [&] { done = true; });
        eq.runAll();
        EXPECT_TRUE(done);
        return buf[0];
    }

    EventQueue eq;
    nvm::ZNand nand;
    Ftl ftl;
};

TEST_F(FtlFixture, ExposesOverprovisionedCapacity)
{
    // 120/128 of the physical pages.
    auto physical = nand.params().totalPages();
    EXPECT_EQ(ftl.pageCount(),
              static_cast<std::uint64_t>(physical * 120.0 / 128.0));
}

TEST_F(FtlFixture, WriteReadRoundTrip)
{
    writePage(7, 0x3c);
    EXPECT_EQ(readPageFirstByte(7), 0x3c);
}

TEST_F(FtlFixture, UnwrittenPageReadsZero)
{
    EXPECT_EQ(readPageFirstByte(9), 0x00);
    EXPECT_EQ(ftl.stats().unmappedReads.value(), 1u);
}

TEST_F(FtlFixture, OverwriteRemapsAndInvalidates)
{
    writePage(5, 0x01);
    std::uint64_t ppn1 = ftl.mapping().lookup(5);
    writePage(5, 0x02);
    std::uint64_t ppn2 = ftl.mapping().lookup(5);
    EXPECT_NE(ppn1, ppn2) << "out-of-place update";
    EXPECT_EQ(readPageFirstByte(5), 0x02);
    EXPECT_EQ(ftl.mapping().reverseLookup(ppn1), kUnmapped);
}

TEST_F(FtlFixture, GcReclaimsSpaceWithoutLosingData)
{
    // Overwrite a small working set far more times than the device
    // has free blocks: forces repeated GC.
    // tiny() has 2048 physical pages; 32 x 80 = 2560 programs must
    // wrap the device and force GC.
    const std::uint64_t working_set = 32;
    const int rounds = 80;
    for (int round = 0; round < rounds; ++round) {
        for (std::uint64_t p = 0; p < working_set; ++p) {
            writePage(p,
                      static_cast<std::uint8_t>((round + p) & 0xff));
        }
    }
    EXPECT_GT(ftl.stats().gcRuns.value(), 0u);
    EXPECT_GT(ftl.stats().gcErases.value(), 0u);
    // Every page must still read back its latest value.
    for (std::uint64_t p = 0; p < working_set; ++p) {
        EXPECT_EQ(readPageFirstByte(p),
                  static_cast<std::uint8_t>((rounds - 1 + p) & 0xff))
            << "page " << p;
    }
    EXPECT_GE(ftl.freeBlockCount(), 1u);
}

TEST_F(FtlFixture, WriteAmplificationAccounting)
{
    const std::uint64_t working_set = 32;
    for (int round = 0; round < 30; ++round) {
        for (std::uint64_t p = 0; p < working_set; ++p)
            writePage(p, 0x11);
    }
    double wa = ftl.stats().writeAmplification();
    EXPECT_GE(wa, 1.0);
    EXPECT_LT(wa, 5.0);
}

TEST_F(FtlFixture, SequentialFillNoGcRelocations)
{
    // Writing unique pages below the exposed capacity never needs a
    // relocation (every block GC'd would be fully valid).
    for (std::uint64_t p = 0; p < 128; ++p)
        writePage(p, 0x22);
    EXPECT_EQ(ftl.stats().gcRelocations.value(), 0u);
}

TEST_F(FtlFixture, ReadsGoThroughEcc)
{
    writePage(0, 0x55);
    readPageFirstByte(0);
    // Default error rate is tiny; no uncorrectables expected.
    EXPECT_EQ(ftl.stats().uncorrectableReads.value(), 0u);
}

TEST(FtlEcc, InjectedErrorsBecomeUncorrectable)
{
    EventQueue eq;
    nvm::ZNand nand(eq, tinyParams());
    FtlConfig cfg = testConfig();
    cfg.ecc.correctableBits = 2;
    cfg.ecc.rawBitErrorMean = 8.0; // Far beyond the capability.
    Ftl ftl(eq, nand, cfg);

    std::vector<std::uint8_t> buf(4096, 0x1);
    bool done = false;
    ftl.writePage(0, buf.data(), [&] { done = true; });
    eq.runAll();
    for (int i = 0; i < 20; ++i) {
        ftl.readPage(0, buf.data(), [] {});
        eq.runAll();
    }
    EXPECT_GT(ftl.stats().uncorrectableReads.value(), 10u);
    (void)done;
}

TEST(FtlBadBlocks, FactoryBadBlocksAreNeverUsed)
{
    EventQueue eq;
    nvm::ZNand nand(eq, tinyParams());
    nand.markBadBlock(0);
    nand.markBadBlock(5);
    Ftl ftl(eq, nand, testConfig());
    EXPECT_EQ(ftl.badBlocks().badCount(), 2u);

    std::vector<std::uint8_t> buf(4096, 0x9);
    for (std::uint64_t p = 0; p < 64; ++p) {
        ftl.writePage(p, buf.data(), [] {});
        eq.runAll();
    }
    // No page of a bad block may hold a mapping.
    for (std::uint64_t p = 0; p < 64; ++p) {
        std::uint64_t ppn = ftl.mapping().lookup(p);
        ASSERT_NE(ppn, kUnmapped);
        std::uint64_t blk = nand.flatBlockOfPage(ppn);
        EXPECT_NE(blk, 0u);
        EXPECT_NE(blk, 5u);
    }
}

TEST(FtlBadBlocks, TooManyBadBlocksIsFatal)
{
    EventQueue eq;
    nvm::ZNand nand(eq, tinyParams());
    for (std::uint64_t b = 0; b < nand.params().totalBlocks(); ++b)
        nand.markBadBlock(b);
    EXPECT_THROW(Ftl(eq, nand, testConfig()), FatalError);
}

TEST(FtlWear, HotWorkloadKeepsWearSpreadBounded)
{
    EventQueue eq;
    nvm::ZNand nand(eq, tinyParams());
    FtlConfig cfg = testConfig();
    cfg.wearThreshold = 8;
    Ftl ftl(eq, nand, cfg);

    // Cold data: fill a third of the device once.
    std::uint64_t cold_pages = ftl.pageCount() / 3;
    std::vector<std::uint8_t> buf(4096, 0xaa);
    for (std::uint64_t p = 0; p < cold_pages; ++p) {
        ftl.writePage(p, buf.data(), [] {});
        eq.runAll();
    }
    // Hot data: hammer a few pages.
    for (int round = 0; round < 400; ++round) {
        for (std::uint64_t p = 0; p < 8; ++p) {
            ftl.writePage(cold_pages + p, buf.data(), [] {});
            eq.runAll();
        }
    }
    // Cold data intact.
    std::vector<std::uint8_t> r(4096, 0);
    ftl.readPage(3, r.data(), [] {});
    eq.runAll();
    EXPECT_EQ(r[0], 0xaa);
    // Wear spread stays bounded (static WL recycles cold blocks).
    EXPECT_LE(ftl.wearSpread(), 3 * cfg.wearThreshold);
}

TEST(FtlGrownBad, ProgramFailureRetiresBlockAndRetries)
{
    EventQueue eq;
    nvm::ZNand nand(eq, tinyParams());
    Ftl ftl(eq, nand, testConfig());

    // Writes round-robin across the two dies; write pages 0 and 1 to
    // discover both active blocks, then poison page 0's block — page
    // 2 goes back to that die and hits the failure.
    std::vector<std::uint8_t> buf(4096, 0x6d);
    bool done = false;
    ftl.writePage(0, buf.data(), [&] { done = true; });
    eq.runAll();
    ftl.writePage(1, buf.data(), [&] { done = true; });
    eq.runAll();
    std::uint64_t first_ppn = ftl.mapping().lookup(0);
    std::uint64_t blk = nand.flatBlockOfPage(first_ppn);

    nand.failNextProgramIn(blk);
    std::fill(buf.begin(), buf.end(), 0x6e);
    done = false;
    ftl.writePage(2, buf.data(), [&] { done = true; });
    eq.runAll();
    ASSERT_TRUE(done);

    EXPECT_EQ(ftl.stats().grownBadBlocks.value(), 1u);
    EXPECT_TRUE(ftl.badBlocks().isBad(blk));
    EXPECT_EQ(nand.stats().programFailures.value(), 1u);
    // The retried write landed on a healthy block with correct data.
    std::uint64_t ppn = ftl.mapping().lookup(2);
    ASSERT_NE(ppn, kUnmapped);
    EXPECT_NE(nand.flatBlockOfPage(ppn), blk);
    std::vector<std::uint8_t> r(4096, 0);
    ftl.readPage(2, r.data(), [] {});
    eq.runAll();
    EXPECT_EQ(r[0], 0x6e);

    // The retired block is never allocated again.
    for (std::uint64_t p = 3; p < 200; ++p) {
        ftl.writePage(p, buf.data(), [] {});
        eq.runAll();
        std::uint64_t pp = ftl.mapping().lookup(p);
        EXPECT_NE(nand.flatBlockOfPage(pp), blk) << "page " << p;
    }
}

TEST(FtlPrecondition, SequentialFillMapsInstantly)
{
    EventQueue eq;
    nvm::ZNand nand(eq, tinyParams());
    Ftl ftl(eq, nand, testConfig());
    ftl.preconditionSequentialFill(256);
    EXPECT_EQ(eq.now(), 0u) << "no simulated time may pass";
    for (std::uint64_t p = 0; p < 256; ++p) {
        std::uint64_t ppn = ftl.mapping().lookup(p);
        ASSERT_NE(ppn, kUnmapped);
        EXPECT_TRUE(nand.pageProgrammed(ppn));
    }
    // A read of a preconditioned page pays real NAND latency.
    bool done = false;
    Tick start = eq.now();
    ftl.readPage(5, nullptr, [&] { done = true; });
    eq.runAll();
    ASSERT_TRUE(done);
    EXPECT_GE(eq.now() - start, nand.params().tR);
}

TEST(MappingTableUnit, MapRemapReverse)
{
    MappingTable mt(100, 4096);
    EXPECT_EQ(mt.lookup(5), kUnmapped);
    EXPECT_EQ(mt.map(5, 1000), kUnmapped);
    EXPECT_EQ(mt.lookup(5), 1000u);
    EXPECT_EQ(mt.reverseLookup(1000), 5u);
    EXPECT_EQ(mt.map(5, 2000), 1000u);
    EXPECT_EQ(mt.reverseLookup(1000), kUnmapped);
    EXPECT_EQ(mt.reverseLookup(2000), 5u);
    EXPECT_EQ(mt.mappedCount(), 1u);
}

TEST(MappingTableUnit, RejectsOutOfRange)
{
    // An L2P entry is 32 bits wide, so a device whose physical page
    // numbers it cannot all name is refused, by its page count.
    try {
        MappingTable too_big(16, std::uint64_t{1} << 32);
        ADD_FAILURE() << "2^32 physical pages accepted";
    } catch (const PanicError& e) {
        EXPECT_NE(std::string(e.what()).find("4294967296"),
                  std::string::npos)
            << e.what();
    }
    MappingTable widest(16, ~std::uint32_t{0});
    widest.map(0, std::uint64_t{~std::uint32_t{0}} - 1);
    EXPECT_EQ(widest.lookup(0), std::uint64_t{~std::uint32_t{0}} - 1);

    MappingTable mt(16, 64);
    EXPECT_THROW(mt.map(16, 0), PanicError);
    EXPECT_THROW(mt.map(std::uint64_t{1} << 20, 0), PanicError);
    EXPECT_THROW(mt.map(0, 64), PanicError);
    EXPECT_EQ(mt.mappedCount(), 0u);
    EXPECT_EQ(mt.lookup(15), kUnmapped);
    EXPECT_EQ(mt.lookup(std::uint64_t{1} << 40), kUnmapped);
    EXPECT_EQ(mt.map(15, 63), kUnmapped) << "last lpn, last ppn";
    EXPECT_EQ(mt.lookup(15), 63u);

    // A checkpoint naming a ppn past the device is refused.
    ByteWriter w;
    w.tag(0x3150324c); // "L2P1"
    w.u64(16);
    for (std::uint64_t lpn = 0; lpn < 16; ++lpn)
        w.u64(lpn == 5 ? 64 : kUnmapped);
    MappingTable fresh(16, 64);
    ByteReader r(w.data());
    EXPECT_THROW(fresh.loadState(r), FatalError);
}

TEST(MappingTableUnit, HoldsLeavesOnlyWhereMapped)
{
    // A module's worth of logical pages: mapping the first and the last
    // lpn holds two small leaves, not the range between them.
    const std::uint64_t lpns = 983040;
    MappingTable mt(lpns, std::uint64_t{1} << 20);
    EXPECT_EQ(mt.l2pBytes(), 0u);
    EXPECT_EQ(mt.lookup(lpns - 1), kUnmapped);
    EXPECT_EQ(mt.l2pBytes(), 0u) << "lookups make no leaf";
    mt.map(0, 10);
    mt.map(lpns - 1, 11);
    const std::uint64_t leaf_bytes = kTableLeafLen * sizeof(std::uint32_t);
    EXPECT_EQ(mt.l2pBytes(), 2 * leaf_bytes);
    EXPECT_EQ(mt.lookup(0), 10u);
    EXPECT_EQ(mt.lookup(lpns - 1), 11u);
    EXPECT_EQ(mt.lookup(1), kUnmapped);
    // Remapping inside a held leaf makes none.
    mt.map(1, 12);
    EXPECT_EQ(mt.l2pBytes(), 2 * leaf_bytes);
}

TEST(MappingTableUnit, CheckpointStreamIsOneEntryPerLogicalPage)
{
    // Fault-campaign checkpoints hold the L2P as one u64 per logical
    // page, kUnmapped where none is mapped, however the table keeps
    // it in memory.
    MappingTable mt(16, 64);
    mt.map(3, 40);
    mt.map(15, 41);
    ByteWriter saved;
    mt.saveState(saved);

    ByteWriter expect;
    expect.tag(0x3150324c); // "L2P1"
    expect.u64(16);
    for (std::uint64_t lpn = 0; lpn < 16; ++lpn)
        expect.u64(lpn == 3 ? 40 : lpn == 15 ? 41 : kUnmapped);
    EXPECT_EQ(saved.data(), expect.data());

    // Loading replaces whatever the table held.
    MappingTable restored(16, 64);
    restored.map(7, 50);
    ByteReader r(expect.data());
    restored.loadState(r);
    EXPECT_EQ(r.remaining(), 0u);
    for (std::uint64_t lpn = 0; lpn < 16; ++lpn)
        EXPECT_EQ(restored.lookup(lpn), mt.lookup(lpn)) << "lpn " << lpn;
    EXPECT_EQ(restored.reverseLookup(40), 3u);
    EXPECT_EQ(restored.reverseLookup(41), 15u);
    EXPECT_EQ(restored.reverseLookup(50), kUnmapped);
    EXPECT_EQ(restored.mappedCount(), 2u);

    MappingTable wider(17, 64);
    ByteReader r17(expect.data());
    EXPECT_THROW(wider.loadState(r17), FatalError);
}

TEST(GarbageCollectorUnit, GreedyPicksFewestValid)
{
    std::vector<BlockMeta> blocks(4);
    blocks[0].state = BlockMeta::State::Full;
    blocks[0].validCount = 10;
    blocks[1].state = BlockMeta::State::Full;
    blocks[1].validCount = 2;
    blocks[2].state = BlockMeta::State::Active;
    blocks[2].validCount = 0;
    blocks[3].state = BlockMeta::State::Free;
    auto victim = GarbageCollector::pickVictim(blocks);
    ASSERT_TRUE(victim.has_value());
    EXPECT_EQ(*victim, 1u);
}

TEST(GarbageCollectorUnit, NoFullBlocksMeansNoVictim)
{
    std::vector<BlockMeta> blocks(2);
    EXPECT_FALSE(GarbageCollector::pickVictim(blocks).has_value());
}

/** Random mixed workload keeps FTL contents equal to a model map. */
class FtlRandomProperty : public ::testing::TestWithParam<int>
{
};

TEST_P(FtlRandomProperty, MatchesReferenceModel)
{
    EventQueue eq;
    nvm::ZNand nand(eq, tinyParams());
    Ftl ftl(eq, nand, testConfig());
    Rng rng(static_cast<std::uint64_t>(GetParam()) * 7919 + 1);

    std::map<std::uint64_t, std::uint8_t> model;
    const std::uint64_t span = 64;

    for (int op = 0; op < 600; ++op) {
        std::uint64_t lpn = rng.below(span);
        if (rng.chance(0.6)) {
            auto fill = static_cast<std::uint8_t>(rng.next());
            std::vector<std::uint8_t> buf(4096, fill);
            ftl.writePage(lpn, buf.data(), [] {});
            eq.runAll();
            model[lpn] = fill;
        } else {
            std::vector<std::uint8_t> buf(4096, 0xef);
            ftl.readPage(lpn, buf.data(), [] {});
            eq.runAll();
            auto it = model.find(lpn);
            std::uint8_t expect = it == model.end() ? 0 : it->second;
            ASSERT_EQ(buf[0], expect) << "lpn " << lpn;
            ASSERT_EQ(buf[4095], expect);
        }
    }
}

INSTANTIATE_TEST_SUITE_P(Seeds, FtlRandomProperty,
                         ::testing::Range(1, 7));

} // namespace
} // namespace nvdimmc::ftl
