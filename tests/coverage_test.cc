/**
 * @file
 * Coverage for corners not exercised elsewhere: stats utilities, the
 * wear-leveler policy helpers, ECC parameters, media pipelining, iMC
 * bulk writes and refresh-walk edges, the pmem baseline driver, and
 * power-failure scenario variants.
 */

#include <gtest/gtest.h>

#include "common/logging.hh"

#include <sstream>
#include <vector>

#include "common/stats.hh"
#include "core/power.hh"
#include "core/system.hh"
#include "ftl/ecc.hh"
#include "ftl/wear_leveler.hh"
#include "nvm/delay_media.hh"
#include "nvm/sttmram.hh"

namespace nvdimmc
{
namespace
{

// --- Stats utilities ---

TEST(ThroughputMeterTest, RatesFollowUnits)
{
    ThroughputMeter m;
    for (int i = 0; i < 1000; ++i)
        m.recordOp(4096);
    EXPECT_EQ(m.ops(), 1000u);
    EXPECT_EQ(m.bytes(), 4096u * 1000u);
    // 4 MB over 1 ms = 4096 MB/s; 1000 ops over 1 ms = 1000 KIOPS.
    EXPECT_NEAR(m.mbps(1 * kMs), 4096.0, 1.0);
    EXPECT_NEAR(m.kiops(1 * kMs), 1000.0, 0.1);
    m.reset();
    EXPECT_EQ(m.ops(), 0u);
}

TEST(TimeSeriesTest, RecordsPoints)
{
    TimeSeries ts;
    ts.record(kMs, 100.0);
    ts.record(2 * kMs, 200.0);
    ASSERT_EQ(ts.points().size(), 2u);
    EXPECT_EQ(ts.points()[1].second, 200.0);
    ts.clear();
    EXPECT_TRUE(ts.points().empty());
}

TEST(StatRegistryTest, DumpsLiveValues)
{
    StatRegistry reg;
    double v = 1.0;
    reg.add("x", [&v] { return v; });
    v = 42.0;
    std::ostringstream os;
    reg.dump(os);
    EXPECT_NE(os.str().find("x = 42"), std::string::npos);
}

// --- Wear leveler ---

TEST(WearLevelerTest, PicksLeastWornFreeBlock)
{
    EventQueue eq;
    nvm::ZNand nand(eq, nvm::ZNandParams::tiny());
    // Wear block 3 twice, block 7 once.
    for (int i = 0; i < 2; ++i) {
        nand.eraseBlock(3, [] {});
        eq.runAll();
    }
    nand.eraseBlock(7, [] {});
    eq.runAll();

    ftl::WearLeveler wl(nand);
    std::vector<std::uint64_t> free_list = {3, 7, 9};
    auto pick = wl.pickFreeBlock(free_list);
    ASSERT_TRUE(pick.has_value());
    EXPECT_EQ(free_list[*pick], 9u) << "virgin block preferred";

    free_list = {3, 7};
    pick = wl.pickFreeBlock(free_list);
    ASSERT_TRUE(pick.has_value());
    EXPECT_EQ(free_list[*pick], 7u);

    EXPECT_FALSE(wl.pickFreeBlock({}).has_value());
}

TEST(WearLevelerTest, ColdBlockNominatedOnlyBeyondThreshold)
{
    EventQueue eq;
    nvm::ZNand nand(eq, nvm::ZNandParams::tiny());
    ftl::WearLeveler wl(nand, /*static_threshold=*/4);

    // Uniform wear: nothing to do.
    EXPECT_FALSE(wl.pickColdBlock({1, 2}).has_value());

    // Wear block 0 far beyond the threshold.
    for (int i = 0; i < 6; ++i) {
        nand.eraseBlock(0, [] {});
        eq.runAll();
    }
    auto cold = wl.pickColdBlock({1, 2});
    ASSERT_TRUE(cold.has_value());
    EXPECT_EQ(*cold, 1u);
}

// --- ECC ---

TEST(EccTest, CleanMediaDecodesClean)
{
    ftl::Ecc::Params p;
    p.rawBitErrorMean = 0.0;
    ftl::Ecc ecc(p);
    for (int i = 0; i < 100; ++i) {
        auto r = ecc.decode();
        EXPECT_TRUE(r.correctable);
        EXPECT_EQ(r.bitErrors, 0u);
    }
    EXPECT_EQ(ecc.uncorrectableReads(), 0u);
}

TEST(EccTest, ModerateErrorsAreCorrected)
{
    ftl::Ecc::Params p;
    p.rawBitErrorMean = 3.0;
    p.correctableBits = 72;
    ftl::Ecc ecc(p);
    int corrected = 0;
    for (int i = 0; i < 500; ++i) {
        auto r = ecc.decode();
        EXPECT_TRUE(r.correctable);
        if (r.bitErrors > 0)
            ++corrected;
    }
    EXPECT_GT(corrected, 400);
    EXPECT_GT(ecc.correctedBits(), 1000u);
}

// --- Media pipelining ---

TEST(MediaPipelining, BackToBackOpsSerialize)
{
    EventQueue eq;
    nvm::SttMram media(eq, 64 * kMiB);
    Tick t1 = 0, t2 = 0;
    media.readRange(0, 4096, nullptr, [&] { t1 = eq.now(); });
    media.readRange(8192, 4096, nullptr, [&] { t2 = eq.now(); });
    eq.runAll();
    EXPECT_GT(t2, t1);
    // Second op waits for the first's occupancy, so the gap is at
    // least the transfer time.
    EXPECT_GE(t2 - t1,
              usToTicks(4096.0 /
                        nvm::SttMram::defaultParams().bandwidthMBps) -
                  kNs);
}

TEST(DelayMediaWrite, SymmetricDelay)
{
    EventQueue eq;
    nvm::DelayMedia media(eq, 64 * kMiB, 5 * kUs);
    Tick tw = 0;
    media.writeRange(0, 4096, nullptr, [&] { tw = eq.now(); });
    eq.runAll();
    EXPECT_EQ(tw, 5 * kUs);
    EXPECT_EQ(media.stats().writes.value(), 1u);
}

// --- iMC bulk model edges ---

struct BulkFixture : public ::testing::Test
{
    BulkFixture()
        : map(16 * kMiB),
          dev(map, dram::Ddr4Timing::ddr4_1600(), false, false),
          bus(eq, dev, false)
    {
    }

    EventQueue eq;
    dram::AddressMap map;
    dram::DramDevice dev;
    bus::MemoryBus bus;
};

TEST_F(BulkFixture, BulkWriteFollowsStreamRate)
{
    imc::ImcConfig cfg;
    // Isolate the rate model: the first REF lands long after the
    // ~15 us transfer.
    imc::Imc m(eq, bus, cfg,
               dram::RefreshSchedule::make({350 * kNs, 1 * kMs},
                                           dev.timing().tRFC, 0));
    Tick done_at = 0;
    m.bulkTransfer(65536, true, [&] { done_at = eq.now(); });
    eq.runFor(100 * kUs);
    ASSERT_EQ(dev.refreshCount(), 0u);
    double expect_us =
        65536.0 / (imc::Imc::kStreamWriteMBps * 1e6) * 1e6;
    EXPECT_NEAR(ticksToUs(done_at), expect_us + 0.04, 1.0);
}

TEST_F(BulkFixture, TransferStartingInsideBlackoutWaits)
{
    imc::Imc m(eq, bus, imc::ImcConfig{},
               dram::RefreshSchedule::make(
                   dram::RefreshRegisters::nvdimmc(), dev.timing().tRFC,
                   0));
    // Run until just after a REF fires; the iMC is now blocked.
    eq.runFor(m.refresh().tREFI() + 100 * kNs);
    ASSERT_GT(m.blockedUntil(), eq.now());
    Tick blackout_end = m.blockedUntil();
    Tick done_at = 0;
    m.bulkTransfer(64, false, [&] { done_at = eq.now(); });
    eq.runFor(10 * kUs);
    EXPECT_GE(done_at, blackout_end);
}

// --- Baseline pmem driver ---

TEST(PmemDriverTest, LatencyStatsAccumulate)
{
    core::SystemConfig cfg = core::SystemConfig::scaledPmem();
    cfg.dramCacheBytes = 64 * kMiB;
    cfg.memcpy.bulkMode = false;
    core::NvdimmcSystem sys(cfg);
    driver::PmemDriver& drv = sys.pmemDriver();

    std::vector<std::uint8_t> buf(4096, 0x21);
    for (int i = 0; i < 4; ++i) {
        bool done = false;
        drv.write(static_cast<Addr>(i) * 4096, 4096, buf.data(),
                  [&] { done = true; });
        while (!done && sys.eq().runOne()) {
        }
    }
    EXPECT_EQ(drv.stats().writeOps.value(), 4u);
    EXPECT_GT(drv.stats().latency.mean(), 0.0);

    bool done = false;
    std::vector<std::uint8_t> r(4096, 0);
    sys.eq().runFor(100 * kUs);
    drv.read(0, 4096, r.data(), [&] { done = true; });
    while (!done && sys.eq().runOne()) {
    }
    EXPECT_EQ(r[0], 0x21);
    EXPECT_THROW(drv.read(cfg.dramCacheBytes, 64, nullptr, [] {}),
                 PanicError);
}

// --- Power scenarios not covered elsewhere ---

TEST(PowerScenario, DumpSkipsCleanSlots)
{
    core::SystemConfig cfg = core::SystemConfig::scaledTest();
    core::NvdimmcSystem sys(cfg);
    sys.precondition(0, 8, /*dirty=*/false);
    sys.precondition(8, 8, /*dirty=*/true);
    auto report =
        core::simulatePowerFailure(sys, core::PowerFailureScenario{});
    EXPECT_EQ(report.pagesDumped, 8u)
        << "only dirty slots need saving";
}

TEST(PowerScenario, SystemWithoutNvmcDumpsNothing)
{
    core::SystemConfig cfg = core::SystemConfig::scaledTest();
    cfg.nvmcEnabled = false;
    cfg.media = core::MediaKind::Delay;
    cfg.mediaBytes = 64 * kMiB;
    cfg.driver.hypothetical = true;
    core::NvdimmcSystem sys(cfg);
    sys.precondition(0, 8, true);
    auto report =
        core::simulatePowerFailure(sys, core::PowerFailureScenario{});
    EXPECT_EQ(report.pagesDumped, 0u);
}

// --- Timing presets as parameterized sweep ---

class TimingBins
    : public ::testing::TestWithParam<dram::Ddr4Timing>
{
};

TEST_P(TimingBins, BankFsmHonoursEveryBin)
{
    const dram::Ddr4Timing t = GetParam();
    dram::Bank b;
    EXPECT_TRUE(b.canActivate(0, t).ok);
    b.activate(0, 1);
    EXPECT_FALSE(b.canRead(t.tRCD - 1, 1, t).ok);
    EXPECT_TRUE(b.canRead(t.tRCD, 1, t).ok);
    b.read(t.tRCD, t);
    EXPECT_FALSE(b.canPrecharge(t.tRAS - 1, t).ok);
    Tick pre_ok = std::max(t.tRAS, t.tRCD + t.tRTP);
    EXPECT_TRUE(b.canPrecharge(pre_ok, t).ok);
    b.precharge(pre_ok);
    EXPECT_FALSE(b.canActivate(pre_ok + t.tRP - 1, t).ok);
    Tick act_ok = std::max(pre_ok + t.tRP, t.tRC);
    EXPECT_TRUE(b.canActivate(act_ok, t).ok);
}

INSTANTIATE_TEST_SUITE_P(
    Bins, TimingBins,
    ::testing::Values(dram::Ddr4Timing::ddr4_1600(),
                      dram::Ddr4Timing::ddr4_2400()),
    [](const ::testing::TestParamInfo<dram::Ddr4Timing>& info) {
        return info.param.tCK == 1250 ? "ddr4_1600" : "ddr4_2400";
    });

} // namespace
} // namespace nvdimmc
