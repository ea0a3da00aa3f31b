/**
 * @file
 * Fault-injection engine tests: power-fail campaigns (determinism +
 * integrity), the dirty-miss power-fail window, media-fault and ageing
 * campaigns, device checkpoint/restore, NVDIMM-N energy budgets, and
 * regression pins for the latent bugs the injector flushed out.
 */

#include <gtest/gtest.h>

#include <algorithm>
#include <cstring>
#include <memory>
#include <vector>

#include "common/random.hh"
#include "core/power.hh"
#include "core/system.hh"
#include "core/system_config.hh"
#include "cpu/cache_model.hh"
#include "cpu/memcpy_engine.hh"
#include "dram/channel_interleave.hh"
#include "driver/nvdimmn_driver.hh"
#include "fault/campaign.hh"
#include "fault/checkpoint.hh"
#include "fault/fault.hh"
#include "ftl/ftl.hh"
#include "nvm/znand.hh"
#include "workload/mixedload.hh"

using namespace nvdimmc;
using core::NvdimmcSystem;
using core::SystemConfig;

namespace
{

/** Drive one FTL op to completion on a standalone rig. */
template <typename Issue>
void
drive(EventQueue& eq, Issue&& issue)
{
    bool done = false;
    issue([&] { done = true; });
    eq.runAll();
    ASSERT_TRUE(done);
}

ftl::FtlConfig
tinyFtlConfig()
{
    ftl::FtlConfig fc;
    fc.exposedFraction = 100.0 / 128.0;
    fc.gcLowWaterBlocks = 2;
    fc.gcHighWaterBlocks = 4;
    return fc;
}

} // namespace

// --- Power-fail campaign: determinism and integrity ---

TEST(FaultPowerFail, CommittedRecordsSurviveAnyCutTick)
{
    // Power-fail at 64 Rng-chosen ticks; mixedload's committed-record
    // oracle must validate post-recovery, and a rerun of the same cut
    // must reproduce the campaign fingerprint.
    fault::PowerFailCampaignConfig base;
    base.seed = 7;
    fault::PowerFailCampaignResult full = runPowerFailCampaign(base);
    ASSERT_FALSE(full.halted);
    ASSERT_GT(full.workloadElapsed, 0u);
    ASSERT_EQ(full.corruptRecords, 0u);

    Rng tick_rng(0xFA17, 64);
    Tick lo = full.workloadElapsed / 20;
    Tick span = full.workloadElapsed - 2 * lo;
    for (int i = 0; i < 64; ++i) {
        fault::PowerFailCampaignConfig cfg = base;
        cfg.haltAtTick = lo + tick_rng.below(span);
        fault::PowerFailCampaignResult cut = runPowerFailCampaign(cfg);

        EXPECT_EQ(cut.liveValidationFailures, 0u);
        EXPECT_EQ(cut.corruptRecords, 0u)
            << "tick " << cfg.haltAtTick << ": " << cut.corruptRecords
            << " of " << cut.committedRecords
            << " committed records corrupted after recovery";
        if (i < 8) {
            fault::PowerFailCampaignResult again =
                runPowerFailCampaign(cfg);
            EXPECT_EQ(cut.fingerprint, again.fingerprint)
                << "tick " << cfg.haltAtTick << ": rerun diverged";
        }
    }
}

TEST(FaultPowerFail, HaltedRunReportsInFlightWrites)
{
    fault::PowerFailCampaignConfig cfg;
    cfg.seed = 9;
    fault::PowerFailCampaignResult full = runPowerFailCampaign(cfg);
    cfg.haltAtTick = full.workloadElapsed / 2;
    fault::PowerFailCampaignResult cut = runPowerFailCampaign(cfg);
    EXPECT_TRUE(cut.halted);
    EXPECT_GT(cut.committedRecords, 0u);
    EXPECT_LT(cut.committedRecords, full.committedRecords);
    EXPECT_EQ(cut.corruptRecords, 0u);
    EXPECT_GT(cut.recoveryTicks, 0u) << "dump must cost energy/time";
}

TEST(FaultPowerFail, NoAdrStillDeterministic)
{
    // Without ADR the WPQ is lost — corruption of committed records
    // is allowed (that is the modeled hardware reality) but the
    // outcome must still replay byte-identically.
    fault::PowerFailCampaignConfig cfg;
    cfg.seed = 11;
    cfg.adrWorks = false;
    fault::PowerFailCampaignResult full = runPowerFailCampaign(cfg);
    cfg.haltAtTick = full.workloadElapsed / 3;
    fault::PowerFailCampaignResult a = runPowerFailCampaign(cfg);
    fault::PowerFailCampaignResult b = runPowerFailCampaign(cfg);
    EXPECT_EQ(a.fingerprint, b.fingerprint);
}

// --- The dirty-miss power-fail window (regression) ---
//
// A dirty miss flushes the victim's lines, writes the victim back via
// CP, then installs the new page. The in-DRAM slot metadata must keep
// naming the victim (dirty) until the writeback is ACKED and must name
// the new page (clean) before its bytes land in the slot — otherwise a
// power cut inside the window dumps the new page's bytes over the
// victim's NAND page. Sweep kill ticks across the whole window and
// check both pages' NAND content at every one.

TEST(FaultPowerFail, DirtyMissWindowNeverClobbersVictim)
{
    auto build = [] {
        SystemConfig sc = SystemConfig::scaledTest();
        sc.channels = 1;
        auto sys = std::make_unique<NvdimmcSystem>(sc);
        std::uint32_t slots = sys->layout().slotCount();
        // Fill the cache with dirty zero pages.
        sys->precondition(0, slots, /*dirty=*/true);
        // Page B lives only in the NAND, with a marker pattern.
        std::uint64_t page_b = slots + 7;
        std::vector<std::uint8_t> y(4096, 0xB7);
        bool seeded = false;
        sys->backend().writePage(page_b, y.data(),
                                 [&] { seeded = true; });
        while (!seeded && sys->eq().runOne()) {
        }
        sys->driver().markEverWritten(page_b, 1);
        return std::pair<std::unique_ptr<NvdimmcSystem>,
                         std::uint64_t>(std::move(sys), page_b);
    };

    // Measure the full miss duration once.
    auto [probe, probe_b] = build();
    std::vector<std::uint8_t> r(4096);
    Tick start = probe->eq().now();
    bool done = false;
    probe->driver().read(probe_b * 4096, 4096, r.data(),
                         [&] { done = true; });
    while (!done && probe->eq().runOne()) {
    }
    probe->eq().runFor(100 * kUs); // metadata drains
    Tick window = probe->eq().now() - start;
    ASSERT_EQ(r[0], 0xB7);

    Rng kill_rng(0xD1127, 1);
    std::vector<std::uint8_t> page(4096);
    for (int k = 0; k < 24; ++k) {
        auto [sys, page_b] = build();
        Tick cut = sys->eq().now() + 1 + kill_rng.below(window);
        bool rdone = false;
        sys->driver().read(page_b * 4096, 4096, page.data(),
                           [&] { rdone = true; });
        while (sys->eq().now() < cut && sys->eq().runOne()) {
        }
        core::simulatePowerFailure(*sys,
                                   core::PowerFailureScenario{});

        // Post-mortem: no preconditioned page may have picked up the
        // marker byte, and B's NAND copy must be intact.
        std::uint32_t slots = sys->layout().slotCount();
        for (std::uint64_t p = 0; p < slots; ++p) {
            sys->backend().readPage(p, page.data(), [] {});
            EXPECT_EQ(std::count(page.begin(), page.end(), 0xB7), 0)
                << "kill tick " << cut << ": page " << p
                << " was clobbered with the incoming page's bytes";
        }
        sys->backend().readPage(page_b, page.data(), [] {});
        EXPECT_EQ(page[0], 0xB7) << "kill tick " << cut;
        EXPECT_EQ(page[4095], 0xB7) << "kill tick " << cut;
    }
}

// --- Multi-channel metadata routing (regression) ---
//
// Slot metadata feeds the firmware's flush-on-fail dump, which writes
// into its module-LOCAL backend. The driver used to encode the FLAT
// device page, so on channels >= 2 every dirty slot on channel >= 1
// dumped to the wrong NAND page.

TEST(FaultPowerFail, DumpUsesModuleLocalNandPages)
{
    SystemConfig sc = SystemConfig::scaledTest();
    sc.channels = 2;
    NvdimmcSystem sys(sc);

    // Flat page 3 routes to channel 1, local page 1.
    dram::ChannelInterleave il(2, dram::ChannelInterleave::kPageGranule);
    std::uint64_t flat = 3;
    ASSERT_EQ(il.pageChannel(flat), 1u);
    ASSERT_EQ(il.localPage(flat), 1u);

    std::vector<std::uint8_t> w(4096, 0x9c);
    bool done = false;
    sys.driver().write(flat * 4096, 4096, w.data(),
                       [&] { done = true; });
    while (!done && sys.eq().runOne()) {
    }
    sys.eq().runFor(100 * kUs);

    auto report =
        core::simulatePowerFailure(sys, core::PowerFailureScenario{});
    ASSERT_GE(report.pagesDumped, 1u);

    std::vector<std::uint8_t> r(4096, 0);
    sys.channel(1).backend().readPage(1, r.data(), [] {});
    EXPECT_EQ(r[0], 0x9c) << "dump must land on the LOCAL page";
    EXPECT_EQ(r[4095], 0x9c);
    std::vector<std::uint8_t> wrong(4096, 0);
    sys.channel(1).backend().readPage(3, wrong.data(), [] {});
    EXPECT_EQ(std::count(wrong.begin(), wrong.end(), 0x9c), 0)
        << "flat page number leaked into the module-local dump";
}

// --- NVDIMM-N super-cap energy budgets (satellite) ---

struct FaultNvdimmN : public ::testing::Test
{
    FaultNvdimmN()
        : map(4 * kMiB),
          dram(map, dram::Ddr4Timing::ddr4_1600(), true, false),
          bus(eq, dram, false),
          imc(eq, bus, imc::ImcConfig{}),
          cache(eq, imc, cpu::CpuCacheModel::Params{}),
          engine(eq, imc, &cache),
          nand(eq, nvm::ZNandParams::tiny())
    {
    }

    driver::NvdimmNDriver
    make(driver::NvdimmNConfig cfg = {})
    {
        return driver::NvdimmNDriver(eq, engine, dram, nand, cfg);
    }

    void
    write(driver::NvdimmNDriver& drv, Addr addr,
          const std::vector<std::uint8_t>& buf)
    {
        bool done = false;
        drv.write(addr, static_cast<std::uint32_t>(buf.size()),
                  buf.data(), [&] { done = true; });
        while (!done && eq.runOne()) {
        }
        eq.runFor(100 * kUs);
    }

    EventQueue eq;
    dram::AddressMap map;
    dram::DramDevice dram;
    bus::MemoryBus bus;
    imc::Imc imc;
    cpu::CpuCacheModel cache;
    cpu::MemcpyEngine engine;
    nvm::ZNand nand;
};

TEST_F(FaultNvdimmN, ZeroBudgetMeansSaveEverything)
{
    auto drv = make();
    std::uint64_t pages = drv.capacityBytes() / 4096;
    EXPECT_EQ(drv.powerFailBackup(), pages);
    EXPECT_EQ(drv.stats().pagesLostToEnergy.value(), 0u);
    EXPECT_EQ(drv.stats().pagesTruncated.value(), 0u);
}

TEST_F(FaultNvdimmN, SubPageByteBudgetWritesTornPage)
{
    driver::NvdimmNConfig cfg;
    cfg.backupEnergyBytes = 2 * 4096 + 100; // 2 pages + a torn third.
    auto drv = make(cfg);
    std::vector<std::uint8_t> buf(4096, 0x5d);
    write(drv, 2 * 4096, buf); // page 2 is the torn one

    std::uint64_t pages = drv.capacityBytes() / 4096;
    std::uint64_t saved = drv.powerFailBackup();
    EXPECT_EQ(saved, 2u);
    EXPECT_EQ(drv.stats().pagesTruncated.value(), 1u);
    // Accounting identity: every page is saved or lost; the torn page
    // counts as lost (its tail is gone) AND truncated.
    EXPECT_EQ(drv.stats().pagesBackedUp.value() +
                  drv.stats().pagesLostToEnergy.value(),
              pages);

    // The torn page: 100 valid bytes then erased 0xFF tail. (The
    // media model copies bytes at call time — post-mortem idiom.)
    std::vector<std::uint8_t> r(4096, 0);
    nand.readPage(2, r.data(), [] {});
    EXPECT_EQ(r[0], 0x5d);
    EXPECT_EQ(r[99], 0x5d);
    EXPECT_EQ(r[100], 0xff);
    EXPECT_EQ(r[4095], 0xff);
}

TEST_F(FaultNvdimmN, BudgetSmallerThanOnePageSavesNothingWhole)
{
    driver::NvdimmNConfig cfg;
    cfg.backupEnergyBytes = 512;
    auto drv = make(cfg);
    std::uint64_t pages = drv.capacityBytes() / 4096;
    EXPECT_EQ(drv.powerFailBackup(), 0u);
    EXPECT_EQ(drv.stats().pagesTruncated.value(), 1u);
    EXPECT_EQ(drv.stats().pagesLostToEnergy.value(), pages);
}

TEST_F(FaultNvdimmN, RepeatedBackupReprogramsCleanly)
{
    // A second power cut after a completed backup must not program
    // already-programmed pages (a NAND discipline violation); the
    // driver erases the backup region first.
    auto drv = make();
    std::vector<std::uint8_t> buf(4096, 0x21);
    write(drv, 0, buf);
    std::uint64_t pages = drv.capacityBytes() / 4096;
    EXPECT_EQ(drv.powerFailBackup(), pages);

    std::vector<std::uint8_t> buf2(4096, 0x43);
    write(drv, 0, buf2);
    EXPECT_EQ(drv.powerFailBackup(), pages);

    std::vector<std::uint8_t> r(4096, 0);
    nand.readPage(0, r.data(), [] {});
    EXPECT_EQ(r[0], 0x43) << "second backup must persist fresh bytes";
}

// --- Media faults: retirement, relocation, ECC outcomes ---

TEST(FaultMedia, RetiredBlockNeverRejoinsFreePool)
{
    EventQueue eq;
    nvm::ZNand nand(eq, nvm::ZNandParams::tiny());
    ftl::Ftl ftl(eq, nand, tinyFtlConfig());

    std::vector<std::uint8_t> buf(4096, 0x11);
    drive(eq, [&](auto cb) { ftl.writePage(0, buf.data(), cb); });

    // Fail the next program into lpn 0's open block; active blocks
    // round-robin over die slots, so two writes guarantee one lands
    // there. The failed write retries elsewhere; the block retires.
    std::uint64_t ppn = ftl.mapping().lookup(0);
    std::uint64_t bad = nand.flatBlockOfPage(ppn);
    nand.failNextProgramIn(bad);
    std::vector<std::uint8_t> buf2(4096, 0x22);
    drive(eq, [&](auto cb) { ftl.writePage(1, buf2.data(), cb); });
    drive(eq, [&](auto cb) { ftl.writePage(2, buf2.data(), cb); });

    ASSERT_TRUE(ftl.badBlocks().isBad(bad));
    EXPECT_EQ(ftl.blockMeta(bad).state, ftl::BlockMeta::State::Retired);
    EXPECT_EQ(ftl.stats().grownBadBlocks.value(), 1u);
    std::uint32_t erases_at_retire = nand.eraseCount(bad);

    // Hammer overwrites to push GC through many cycles.
    Rng rng(3, 5);
    for (int i = 0; i < 3000; ++i) {
        std::uint64_t lpn = rng.below(64);
        buf[0] = static_cast<std::uint8_t>(i);
        drive(eq, [&](auto cb) { ftl.writePage(lpn, buf.data(), cb); });
    }
    eq.runAll();

    EXPECT_EQ(nand.eraseCount(bad), erases_at_retire)
        << "a retired block must never be erased again";
    EXPECT_EQ(ftl.blockMeta(bad).state,
              ftl::BlockMeta::State::Retired);
    std::string why;
    EXPECT_TRUE(ftl.checkInvariants(&why)) << why;
}

TEST(FaultMedia, GcRelocationSurvivesProgramFailure)
{
    EventQueue eq;
    nvm::ZNand nand(eq, nvm::ZNandParams::tiny());
    ftl::Ftl ftl(eq, nand, tinyFtlConfig());

    // Fill most of the logical space so GC victims always carry live
    // pages (forcing relocations), then arm a program-fault hook so
    // some failures land on relocations themselves.
    std::vector<std::uint64_t> seeds(1400, 0);
    const workload::RecordPattern pattern(4096);
    std::vector<std::uint8_t> buf(4096);
    Rng rng(17, 1);
    auto writeLpn = [&](std::uint64_t lpn) {
        seeds[lpn] = rng.next64() | 1;
        pattern.fill(buf.data(), seeds[lpn]);
        drive(eq, [&](auto cb) { ftl.writePage(lpn, buf.data(), cb); });
    };
    for (std::uint64_t l = 0; l < seeds.size(); ++l)
        writeLpn(l);

    Rng fail_rng(23, 9);
    nand.setProgramFaultHook(
        [&](std::uint64_t) { return fail_rng.chance(0.002); });
    for (int i = 0; i < 3000; ++i)
        writeLpn(rng.below(seeds.size()));
    nand.setProgramFaultHook(nullptr);
    eq.runAll();

    EXPECT_GT(ftl.stats().gcRelocations.value(), 0u);
    EXPECT_GT(ftl.stats().grownBadBlocks.value(), 0u)
        << "0.2% program-fail over 3000 rewrites must retire blocks";
    std::string why;
    EXPECT_TRUE(ftl.checkInvariants(&why)) << why;

    // Every oracle page must read back intact.
    for (std::uint64_t l = 0; l < seeds.size(); ++l) {
        drive(eq, [&](auto cb) { ftl.readPage(l, buf.data(), cb); });
        EXPECT_TRUE(pattern.check(buf.data(), seeds[l]))
            << "lpn " << l << " corrupted across GC relocations";
    }
}

TEST(FaultMedia, CampaignIsDeterministicAndSilentCorruptionFree)
{
    fault::MediaFaultCampaignConfig cfg;
    cfg.seed = 31;
    cfg.faults.readRberMean = 0.8;
    cfg.faults.wearRberSlope = 0.05;
    cfg.faults.programFailProb = 0.01;
    cfg.readRetries = 2;

    fault::MediaFaultCampaignResult a = runMediaFaultCampaign(cfg);
    fault::MediaFaultCampaignResult b = runMediaFaultCampaign(cfg);
    EXPECT_EQ(a.fingerprint, b.fingerprint);
    EXPECT_GT(a.readErrorsInjected, 0u);
    EXPECT_GT(a.readRetries, 0u);
    EXPECT_EQ(a.silentCorruptions, 0u)
        << "data mismatch without an uncorrectable-read report";
    EXPECT_TRUE(a.invariantsOk) << a.invariantWhy;

    cfg.seed = 32;
    fault::MediaFaultCampaignResult c = runMediaFaultCampaign(cfg);
    EXPECT_NE(a.fingerprint, c.fingerprint)
        << "different seeds must explore different fault sequences";
}

TEST(FaultMedia, ReadRetryRecoversTransientErrors)
{
    fault::MediaFaultCampaignConfig cfg;
    cfg.seed = 41;
    cfg.faults.readRberMean = 1.2;
    cfg.readRetries = 3;
    fault::MediaFaultCampaignResult with = runMediaFaultCampaign(cfg);
    cfg.readRetries = 0;
    fault::MediaFaultCampaignResult without =
        runMediaFaultCampaign(cfg);
    EXPECT_GT(with.readRetrySuccesses, 0u);
    EXPECT_LT(with.uncorrectableReads, without.uncorrectableReads)
        << "retries must convert some uncorrectables into successes";
    EXPECT_EQ(with.silentCorruptions, 0u);
    EXPECT_EQ(without.silentCorruptions, 0u);
}

// --- Checkpoint/restore ---

TEST(FaultCheckpoint, DeviceRoundTripIsByteExact)
{
    EventQueue eq;
    nvm::ZNand nand(eq, nvm::ZNandParams::tiny());
    ftl::Ftl ftl(eq, nand, tinyFtlConfig());
    Rng rng(5, 2);
    const workload::RecordPattern pattern(4096);
    std::vector<std::uint8_t> buf(4096);
    for (int i = 0; i < 600; ++i) {
        pattern.fill(buf.data(), rng.next64() | 1);
        std::uint64_t lpn = rng.below(128);
        drive(eq, [&](auto cb) { ftl.writePage(lpn, buf.data(), cb); });
    }
    eq.runAll();

    std::vector<std::uint8_t> image = fault::checkpointDevice(nand, ftl);
    ASSERT_GT(image.size(), 0u);

    EventQueue eq2;
    nvm::ZNand nand2(eq2, nvm::ZNandParams::tiny());
    ftl::Ftl ftl2(eq2, nand2, tinyFtlConfig());
    fault::restoreDevice(image, nand2, ftl2);

    EXPECT_EQ(fault::checkpointDevice(nand2, ftl2), image)
        << "restore followed by checkpoint must be the identity";

    // Restored device must serve the same bytes.
    std::vector<std::uint8_t> a(4096), b(4096);
    for (std::uint64_t lpn = 0; lpn < 128; ++lpn) {
        if (ftl.mapping().lookup(lpn) == ftl::kUnmapped)
            continue;
        drive(eq, [&](auto cb) { ftl.readPage(lpn, a.data(), cb); });
        drive(eq2,
              [&](auto cb) { ftl2.readPage(lpn, b.data(), cb); });
        EXPECT_EQ(std::memcmp(a.data(), b.data(), 4096), 0)
            << "lpn " << lpn;
    }
    std::string why;
    EXPECT_TRUE(ftl2.checkInvariants(&why)) << why;
}

// --- Ageing campaign ---

TEST(FaultAgeing, CompressedMonthsStayConsistent)
{
    fault::AgeingCampaignConfig cfg;
    cfg.seed = 3;
    cfg.rounds = 40;
    cfg.writesPerRound = 80;
    cfg.workingSetPages = 96;
    cfg.faults.readRberMean = 0.2;
    cfg.faults.wearRberSlope = 0.02;
    cfg.faults.programFailProb = 0.002;

    fault::AgeingCampaignResult res = runAgeingCampaign(cfg);
    EXPECT_GT(res.writes, 0u);
    EXPECT_GT(res.gcErases, 0u) << "ageing must cycle blocks";
    EXPECT_TRUE(res.invariantsOk) << res.invariantWhy;
    EXPECT_EQ(res.silentCorruptions, 0u);
    EXPECT_TRUE(res.checkpointDeterministic)
        << "checkpoint-restored replay diverged from the original";
    EXPECT_GT(res.checkpointBytes, 0u);

    fault::AgeingCampaignResult again = runAgeingCampaign(cfg);
    EXPECT_EQ(res.fingerprint, again.fingerprint);
}
