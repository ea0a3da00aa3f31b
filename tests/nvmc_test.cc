/**
 * @file
 * NVMC tests: deserializer, refresh detector, CP protocol, reserved
 * layout, DMA windowing and the window-gated DDR4 master.
 */

#include <gtest/gtest.h>

#include "common/logging.hh"

#include <cstring>
#include <vector>

#include "bus/memory_bus.hh"
#include "common/event_queue.hh"
#include "common/random.hh"
#include "nvmc/cp_protocol.hh"
#include "nvmc/ddr4_controller.hh"
#include "nvmc/deserializer.hh"
#include "nvmc/dma_engine.hh"
#include "nvmc/refresh_detector.hh"

namespace nvdimmc::nvmc
{
namespace
{

using dram::Ddr4Op;

TEST(DeserializerTest, AssemblesEightSamplesLsbFirst)
{
    std::vector<std::uint8_t> words;
    Deserializer d([&](std::uint8_t w) { words.push_back(w); });
    // 0b10110010 sampled LSB first.
    for (bool bit : {false, true, false, false, true, true, false,
                     true}) {
        d.sample(bit);
    }
    ASSERT_EQ(words.size(), 1u);
    EXPECT_EQ(words[0], 0b10110010);
    EXPECT_EQ(d.pendingBits(), 0u);
}

TEST(DeserializerTest, PartialWordPending)
{
    Deserializer d(nullptr);
    d.sample(true);
    d.sample(false);
    EXPECT_EQ(d.pendingBits(), 2u);
}

TEST(DeserializerTest, OutputDelayIsFiveClocks)
{
    EXPECT_EQ(Deserializer::outputDelay(1250), 5u * 1250u);
}

struct DetectorFixture : public ::testing::Test
{
    void
    makeDetector(double miss = 0.0, double false_rate = 0.0)
    {
        RefreshDetector::Params p;
        p.missRate = miss;
        p.falseRate = false_rate;
        det = std::make_unique<RefreshDetector>(
            eq, 1250, p, [this](Tick t) { detections.push_back(t); });
    }

    void
    drive(Ddr4Op op, Tick at)
    {
        eq.runUntil(at);
        det->observeFrame(dram::encodeCommand({op, 0, 0, 0, 0}), at);
    }

    EventQueue eq;
    std::unique_ptr<RefreshDetector> det;
    std::vector<Tick> detections;
};

TEST_F(DetectorFixture, DetectsRefreshWithPipelineDelay)
{
    makeDetector();
    drive(Ddr4Op::Refresh, 1000);
    eq.runAll();
    ASSERT_EQ(detections.size(), 1u);
    EXPECT_EQ(detections[0], 1000u) << "reports the command tick";
    EXPECT_EQ(det->stats().refreshesDetected.value(), 1u);
}

TEST_F(DetectorFixture, IgnoresEveryOtherCommand)
{
    makeDetector();
    Tick t = 0;
    for (Ddr4Op op :
         {Ddr4Op::Activate, Ddr4Op::Read, Ddr4Op::Write,
          Ddr4Op::Precharge, Ddr4Op::PrechargeAll,
          Ddr4Op::ModeRegisterSet, Ddr4Op::ZqCalibration,
          Ddr4Op::SelfRefreshEnter, Ddr4Op::SelfRefreshExit}) {
        drive(op, t += 10000);
    }
    eq.runAll();
    EXPECT_TRUE(detections.empty());
    EXPECT_EQ(det->stats().selfRefreshIgnored.value(), 2u);
}

TEST_F(DetectorFixture, InjectedMissesSuppressDetection)
{
    makeDetector(1.0, 0.0);
    for (int i = 0; i < 10; ++i)
        drive(Ddr4Op::Refresh, (i + 1) * 10000);
    eq.runAll();
    EXPECT_TRUE(detections.empty());
    EXPECT_EQ(det->stats().injectedMisses.value(), 10u);
}

TEST_F(DetectorFixture, InjectedFalsePositivesFire)
{
    makeDetector(0.0, 1.0);
    drive(Ddr4Op::Read, 5000);
    eq.runAll();
    EXPECT_EQ(detections.size(), 1u);
    EXPECT_EQ(det->stats().injectedFalsePositives.value(), 1u);
}

TEST(CpProtocolTest, CommandRoundTrip)
{
    CpCommand cmd;
    cmd.phase = 42;
    cmd.opcode = CpOpcode::Cachefill;
    cmd.dramSlot = 0x123456;
    cmd.nandPage = 0x1234567890ull;
    std::uint8_t line[64];
    encodeCpCommand(cmd, line);
    EXPECT_EQ(decodeCpCommand(line), cmd);
}

TEST(CpProtocolTest, MergedCommandRoundTrip)
{
    CpCommand cmd;
    cmd.phase = 7;
    cmd.opcode = CpOpcode::WritebackCachefill;
    cmd.dramSlot = 11;
    cmd.nandPage = 22;
    cmd.dramSlot2 = 33;
    cmd.nandPage2 = 0xdeadbeefull;
    std::uint8_t line[64];
    encodeCpCommand(cmd, line);
    EXPECT_EQ(decodeCpCommand(line), cmd);
}

class CpRandomRoundTrip : public ::testing::TestWithParam<int>
{
};

TEST_P(CpRandomRoundTrip, RandomizedFields)
{
    Rng rng(static_cast<std::uint64_t>(GetParam()));
    for (int i = 0; i < 200; ++i) {
        CpCommand cmd;
        cmd.phase = static_cast<std::uint8_t>(rng.inRange(1, 255));
        cmd.opcode = static_cast<CpOpcode>(rng.below(4));
        cmd.dramSlot = static_cast<std::uint32_t>(rng.below(1u << 24));
        cmd.nandPage = rng.below(1ull << 48);
        cmd.dramSlot2 = static_cast<std::uint32_t>(rng.next());
        cmd.nandPage2 = rng.next64();
        std::uint8_t line[64];
        encodeCpCommand(cmd, line);
        ASSERT_EQ(decodeCpCommand(line), cmd);
    }
}

INSTANTIATE_TEST_SUITE_P(Seeds, CpRandomRoundTrip,
                         ::testing::Range(1, 5));

TEST(CpProtocolTest, AckRoundTrip)
{
    CpAck ack{9, 1};
    std::uint8_t line[64];
    encodeCpAck(ack, line);
    EXPECT_EQ(decodeCpAck(line), ack);
}

TEST(SlotMetadataTest, RoundTrip)
{
    SlotMetadata m;
    m.nandPage = 0x1122334455ull;
    m.valid = true;
    m.dirty = true;
    std::uint8_t raw[16];
    encodeSlotMetadata(m, raw);
    EXPECT_EQ(decodeSlotMetadata(raw), m);

    m.dirty = false;
    encodeSlotMetadata(m, raw);
    EXPECT_EQ(decodeSlotMetadata(raw), m);
}

TEST(ReservedLayoutTest, PartitionsDoNotOverlap)
{
    ReservedLayout layout(64 * kMiB, 4);
    EXPECT_GT(layout.slotCount(), 0u);
    // CP page, metadata, slots are disjoint and ordered.
    EXPECT_GE(layout.metadataBase(), 4096u);
    EXPECT_GE(layout.slotAddr(0),
              layout.metadataBase() + layout.metadataBytes());
    // Everything fits.
    EXPECT_LE(layout.slotAddr(layout.slotCount() - 1) + 4096,
              64 * kMiB);
    // Command/ack lines are inside the CP page and disjoint.
    EXPECT_LT(layout.commandAddr(3), layout.ackAddr(0));
    EXPECT_LT(layout.ackAddr(3) + 64, 4096u);
}

TEST(ReservedLayoutTest, MetadataCoversEverySlot)
{
    ReservedLayout layout(16 * kMiB, 1);
    Addr last = layout.metadataAddr(layout.slotCount() - 1);
    EXPECT_LT(last + ReservedLayout::kMetaEntryBytes,
              layout.metadataBase() + layout.metadataBytes() + 1);
}

TEST(ReservedLayoutTest, RejectsBadParameters)
{
    EXPECT_THROW(ReservedLayout(1024, 1), FatalError);
    EXPECT_THROW(ReservedLayout(64 * kMiB, 0), FatalError);
    EXPECT_THROW(ReservedLayout(64 * kMiB, 200), FatalError);
}

TEST(CpOpcodeTest, Names)
{
    EXPECT_STREQ(toString(CpOpcode::Cachefill), "CACHEFILL");
    EXPECT_STREQ(toString(CpOpcode::Writeback), "WRITEBACK");
}

struct CtrlFixture : public ::testing::Test
{
    CtrlFixture()
        : map(16 * kMiB),
          dev(map, dram::Ddr4Timing::ddr4_1600(), true, false),
          bus(eq, dev, false),
          ctrl(eq, bus)
    {
    }

    EventQueue eq;
    dram::AddressMap map;
    dram::DramDevice dev;
    bus::MemoryBus bus;
    NvmcDdr4Controller ctrl;
};

TEST_F(CtrlFixture, Transfers4KbInsideOneWindow)
{
    // Simulate the post-REF state.
    eq.runUntil(10 * kUs);
    dev.issue({Ddr4Op::Refresh, 0, 0, 0, 0}, eq.now());
    ctrl.noteRefresh(eq.now());
    Tick ws = eq.now() + dev.timing().tRFC;
    Tick we = eq.now() + 1250 * kNs - 30 * kNs;

    std::vector<std::uint8_t> data(4096, 0x5c);
    std::uint32_t moved = 0;
    ctrl.transferInWindow(8192, 4096, true, nullptr, data.data(), ws,
                          we, [&](std::uint32_t n) { moved = n; });
    eq.runAll();
    EXPECT_EQ(moved, 4096u);
    EXPECT_EQ(dev.stats().violations.value(), 0u);
    EXPECT_EQ(bus.conflictCount(), 0u);
    // Data actually landed.
    std::uint8_t burst[64];
    dev.readBurst(map.decompose(8192), burst);
    EXPECT_EQ(burst[0], 0x5c);
    // Bank left precharged for the host.
    EXPECT_TRUE(dev.allBanksIdle());
}

TEST_F(CtrlFixture, TruncatesWhenWindowTooSmall)
{
    eq.runUntil(10 * kUs);
    dev.issue({Ddr4Op::Refresh, 0, 0, 0, 0}, eq.now());
    ctrl.noteRefresh(eq.now());
    Tick ws = eq.now() + dev.timing().tRFC;
    Tick we = ws + 120 * kNs; // Far too small for 4 KB.

    std::uint32_t moved = 4096;
    ctrl.transferInWindow(0, 4096, false, nullptr, nullptr, ws, we,
                          [&](std::uint32_t n) { moved = n; });
    eq.runAll();
    EXPECT_LT(moved, 4096u);
    EXPECT_GE(ctrl.stats().truncatedTransfers.value(), 1u);
    EXPECT_EQ(dev.stats().violations.value(), 0u);
}

TEST_F(CtrlFixture, ReadsReturnArrayData)
{
    // Seed the array.
    std::uint8_t burst[64];
    std::memset(burst, 0x7e, 64);
    for (int i = 0; i < 64; ++i)
        dev.writeBurst(map.decompose(static_cast<Addr>(i) * 64), burst);

    eq.runUntil(10 * kUs);
    dev.issue({Ddr4Op::Refresh, 0, 0, 0, 0}, eq.now());
    ctrl.noteRefresh(eq.now());
    Tick ws = eq.now() + dev.timing().tRFC;
    Tick we = eq.now() + 1220 * kNs;

    std::vector<std::uint8_t> buf(4096, 0);
    std::uint32_t moved = 0;
    ctrl.transferInWindow(0, 4096, false, buf.data(), nullptr, ws, we,
                          [&](std::uint32_t n) { moved = n; });
    eq.runAll();
    EXPECT_EQ(moved, 4096u);
    EXPECT_EQ(buf[0], 0x7e);
    EXPECT_EQ(buf[4095], 0x7e);
}

TEST_F(CtrlFixture, DrivingDuringDeviceRefreshIsViolation)
{
    eq.runUntil(10 * kUs);
    dev.issue({Ddr4Op::Refresh, 0, 0, 0, 0}, eq.now());
    // Gate disabled: the controller was never told about the refresh
    // and its window wrongly starts immediately.
    Tick ws = eq.now() + 10 * kNs;
    Tick we = eq.now() + 1250 * kNs;
    ctrl.transferInWindow(0, 256, true, nullptr, nullptr, ws, we,
                          [](std::uint32_t) {});
    eq.runAll();
    EXPECT_GE(dev.stats().violations.value(), 1u);
}

struct DmaFixture : public CtrlFixture
{
    DmaFixture() : dma(eq, ctrl, 4096) {}

    /** Grant one legal window at the current tick. */
    std::pair<Tick, Tick>
    grantWindow()
    {
        dev.issue({Ddr4Op::Refresh, 0, 0, 0, 0}, eq.now());
        ctrl.noteRefresh(eq.now());
        Tick ws = eq.now() + dev.timing().tRFC;
        Tick we = eq.now() + 1250 * kNs - 30 * kNs;
        return {ws, we};
    }

    DmaEngine dma;
};

TEST_F(DmaFixture, BudgetCapsBytesPerWindow)
{
    eq.runUntil(10 * kUs);
    auto buf = std::make_shared<std::vector<std::uint8_t>>(8192, 1);
    bool finished = false;
    DmaRequest req;
    req.addr = 0;
    req.bytes = 8192;
    req.isWrite = true;
    req.buffer = buf;
    req.done = [&] { finished = true; };
    dma.enqueue(std::move(req));

    auto [ws1, we1] = grantWindow();
    dma.runWindow(ws1, we1, nullptr);
    eq.runUntil(eq.now() + 7800 * kNs);
    EXPECT_FALSE(finished) << "8 KB needs two 4 KB windows";
    EXPECT_EQ(dma.stats().windowCarryovers.value(), 1u);

    auto [ws2, we2] = grantWindow();
    dma.runWindow(ws2, we2, nullptr);
    eq.runAll();
    EXPECT_TRUE(finished);
    EXPECT_EQ(dma.stats().bytesMoved.value(), 8192u);
}

TEST_F(DmaFixture, MultipleSmallRequestsShareOneWindow)
{
    eq.runUntil(10 * kUs);
    int done_count = 0;
    for (int i = 0; i < 3; ++i) {
        DmaRequest req;
        req.addr = static_cast<Addr>(i) * 64;
        req.bytes = 64;
        req.isWrite = false;
        req.done = [&] { ++done_count; };
        dma.enqueue(std::move(req));
    }
    auto [ws, we] = grantWindow();
    dma.runWindow(ws, we, nullptr);
    eq.runAll();
    EXPECT_EQ(done_count, 3);
    EXPECT_EQ(dma.stats().windowsUsed.value(), 1u);
}

TEST_F(DmaFixture, EmptyQueueWindowIsFree)
{
    bool window_done = false;
    dma.runWindow(eq.now(), eq.now() + kUs,
                  [&] { window_done = true; });
    EXPECT_TRUE(window_done);
    EXPECT_EQ(dma.stats().windowsUsed.value(), 0u);
}

} // namespace
} // namespace nvdimmc::nvmc
