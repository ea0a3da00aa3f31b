/**
 * @file
 * DRAM device, bank FSM, timing checker and address map tests.
 */

#include <gtest/gtest.h>

#include "common/logging.hh"

#include <array>
#include <cstring>
#include <vector>

#include "common/random.hh"
#include "dram/address_map.hh"
#include "dram/dram_device.hh"

namespace nvdimmc::dram
{
namespace
{

AddressMap
smallMap()
{
    // 16 MiB: 8 KiB rows, 16 banks, 128 rows.
    return AddressMap(16 * kMiB);
}

Ddr4Timing
timing()
{
    return Ddr4Timing::ddr4_1600();
}

TEST(AddressMap, GeometryDerivation)
{
    AddressMap m(16 * kGiB);
    EXPECT_EQ(m.totalBanks(), 16u);
    EXPECT_EQ(m.rowBytes(), 8192u);
    EXPECT_EQ(m.burstsPerRow(), 128u);
    EXPECT_EQ(std::uint64_t{m.rows()} * m.rowBytes() * m.totalBanks(),
              16 * kGiB);
}

TEST(AddressMap, RejectsBadGeometry)
{
    EXPECT_THROW(AddressMap(10 * 1000 * 1000), FatalError);
    EXPECT_THROW(AddressMap(16 * kMiB, 32), FatalError);
}

TEST(AddressMap, SequentialBurstsStayInRow)
{
    AddressMap m = smallMap();
    DramCoord a = m.decompose(0);
    DramCoord b = m.decompose(64);
    EXPECT_EQ(a.row, b.row);
    EXPECT_EQ(a.bank, b.bank);
    EXPECT_EQ(a.bankGroup, b.bankGroup);
    EXPECT_EQ(b.col, a.col + 1);
}

/** The address map's layout written out with divisions, as a
 *  reference for the shift-and-mask decomposition. */
DramCoord
divisionReference(const AddressMap& m, Addr addr)
{
    std::uint64_t burst = addr / AddressMap::kBurstBytes;
    DramCoord c;
    c.col = static_cast<std::uint32_t>(burst % m.burstsPerRow());
    burst /= m.burstsPerRow();
    c.bank = static_cast<std::uint8_t>(burst % m.banksPerGroup());
    burst /= m.banksPerGroup();
    c.bankGroup = static_cast<std::uint8_t>(burst % m.bankGroups());
    burst /= m.bankGroups();
    c.row = static_cast<std::uint32_t>(burst);
    return c;
}

TEST(AddressMap, DecomposeMatchesDivisionReference)
{
    const AddressMap maps[] = {
        AddressMap(16 * kMiB),             // default geometry
        AddressMap(64 * kMiB, 4096),       // 4 KB rows
        AddressMap(16 * kMiB, 8192, 2, 2), // 2x2 banks
        AddressMap(16 * kGiB),             // the paper's module
    };
    Rng rng(20260419);
    for (const AddressMap& m : maps) {
        // Both ends of the range, then a seeded sample (any byte
        // offset: decompose ignores the bits below a burst).
        std::vector<Addr> addrs = {0, 63, 64, m.rowBytes(),
                                   m.capacity() - 64, m.capacity() - 1};
        for (int i = 0; i < 2000; ++i)
            addrs.push_back(rng.below(m.capacity()));
        for (Addr a : addrs) {
            DramCoord c = m.decompose(a);
            ASSERT_EQ(c, divisionReference(m, a))
                << "capacity " << m.capacity() << " address " << a;
            EXPECT_EQ(m.compose(c), a & ~Addr{63});
        }
    }
}

class AddressMapRoundTrip : public ::testing::TestWithParam<int>
{
};

TEST_P(AddressMapRoundTrip, ComposeDecomposeIdentity)
{
    AddressMap m = smallMap();
    Rng rng(static_cast<std::uint64_t>(GetParam()));
    for (int i = 0; i < 500; ++i) {
        Addr a = rng.below(m.capacity() / 64) * 64;
        DramCoord c = m.decompose(a);
        EXPECT_EQ(m.compose(c), a);
        EXPECT_LT(c.row, m.rows());
        EXPECT_LT(c.col, m.burstsPerRow());
        EXPECT_LT(m.flatBank(c), m.totalBanks());
    }
}

INSTANTIATE_TEST_SUITE_P(Seeds, AddressMapRoundTrip,
                         ::testing::Range(1, 6));

TEST(Bank, LegalActivateReadPrecharge)
{
    Bank b;
    Ddr4Timing t = timing();
    EXPECT_TRUE(b.canActivate(0, t).ok);
    b.activate(0, 42);
    EXPECT_TRUE(b.isOpen(42));
    EXPECT_FALSE(b.canRead(0, 42, t).ok) << "tRCD not elapsed";
    EXPECT_TRUE(b.canRead(t.tRCD, 42, t).ok);
    b.read(t.tRCD, t);
    EXPECT_FALSE(b.canPrecharge(t.tRCD, t).ok) << "tRAS not elapsed";
    EXPECT_TRUE(b.canPrecharge(t.tRAS, t).ok);
}

TEST(Bank, ReadToWrongRowRejected)
{
    Bank b;
    Ddr4Timing t = timing();
    b.activate(0, 1);
    EXPECT_FALSE(b.canRead(t.tRCD, 2, t).ok);
}

TEST(Bank, WriteRecoveryBlocksPrecharge)
{
    Bank b;
    Ddr4Timing t = timing();
    b.activate(0, 0);
    b.write(t.tRCD, t);
    Tick data_end = t.tRCD + t.writeLatency();
    EXPECT_FALSE(b.canPrecharge(data_end + t.tWR - 1, t).ok);
    EXPECT_TRUE(b.canPrecharge(data_end + t.tWR, t).ok);
}

TEST(Bank, TrcLimitsBackToBackActivates)
{
    Bank b;
    Ddr4Timing t = timing();
    b.activate(0, 0);
    b.precharge(t.tRAS);
    EXPECT_FALSE(b.canActivate(t.tRAS + t.tRP - 1, t).ok);
    // tRC = tRAS + tRP here, so this is also the tRC boundary.
    EXPECT_TRUE(b.canActivate(t.tRAS + t.tRP, t).ok);
}

class DeviceFixture : public ::testing::Test
{
  protected:
    DeviceFixture()
        : map(smallMap()), dev(map, timing(), true, false)
    {
    }

    IssueResult
    at(Tick tick, Ddr4Op op, std::uint8_t bg = 0, std::uint8_t ba = 0,
       std::uint32_t row = 0, std::uint32_t col = 0)
    {
        return dev.issue({op, bg, ba, row, col}, tick);
    }

    AddressMap map;
    DramDevice dev;
};

TEST_F(DeviceFixture, LegalReadSequence)
{
    const auto& t = dev.timing();
    EXPECT_TRUE(at(0, Ddr4Op::Activate, 0, 0, 3).ok);
    auto rd = at(t.tRCD, Ddr4Op::Read, 0, 0, 3, 5);
    EXPECT_TRUE(rd.ok);
    EXPECT_EQ(rd.dataStart, t.tRCD + t.tCL);
    EXPECT_EQ(rd.dataEnd, t.tRCD + t.tCL + t.burstTime());
    EXPECT_EQ(dev.stats().violations.value(), 0u);
}

TEST_F(DeviceFixture, TrcdViolationDetected)
{
    at(0, Ddr4Op::Activate, 0, 0, 3);
    auto rd = at(1000, Ddr4Op::Read, 0, 0, 3, 0);
    EXPECT_FALSE(rd.ok);
    EXPECT_EQ(dev.stats().violations.value(), 1u);
}

TEST_F(DeviceFixture, ReadToClosedBankDetected)
{
    auto rd = at(0, Ddr4Op::Read, 0, 0, 0, 0);
    EXPECT_FALSE(rd.ok);
    EXPECT_GE(dev.violations().size(), 1u);
}

TEST_F(DeviceFixture, TccdEnforcedWithinBankGroup)
{
    const auto& t = dev.timing();
    at(0, Ddr4Op::Activate, 0, 0, 0);
    at(t.tRCD, Ddr4Op::Read, 0, 0, 0, 0);
    auto second = at(t.tRCD + t.tCCD_L - t.tCK, Ddr4Op::Read, 0, 0, 0, 1);
    EXPECT_FALSE(second.ok);
    auto third = at(t.tRCD + 2 * t.tCCD_L, Ddr4Op::Read, 0, 0, 0, 2);
    EXPECT_TRUE(third.ok);
}

TEST_F(DeviceFixture, TrrdAndFawEnforced)
{
    const auto& t = dev.timing();
    // Four activates spaced exactly tRRD_S apart across bank groups.
    Tick tick = 0;
    for (std::uint8_t bg = 0; bg < 4; ++bg) {
        EXPECT_TRUE(at(tick, Ddr4Op::Activate, bg, 0, 0).ok);
        tick += t.tRRD_S;
    }
    // Fifth activate within tFAW must fail.
    auto fifth = at(tick, Ddr4Op::Activate, 0, 1, 0);
    EXPECT_FALSE(fifth.ok);
    // After the window passes, it succeeds.
    auto later = at(t.tFAW + t.tRRD_S, Ddr4Op::Activate, 0, 1, 0);
    EXPECT_TRUE(later.ok);
}

TEST_F(DeviceFixture, RefreshRequiresAllBanksIdle)
{
    const auto& t = dev.timing();
    at(0, Ddr4Op::Activate, 0, 0, 0);
    auto ref = at(t.tRCD, Ddr4Op::Refresh);
    EXPECT_FALSE(ref.ok);
    at(t.tRAS, Ddr4Op::PrechargeAll);
    auto ref2 = at(t.tRAS + t.tRP, Ddr4Op::Refresh);
    EXPECT_TRUE(ref2.ok);
    EXPECT_EQ(dev.refreshCount(), 1u);
}

TEST_F(DeviceFixture, CommandsDuringRefreshAreViolations)
{
    const auto& t = dev.timing();
    at(0, Ddr4Op::Refresh);
    EXPECT_TRUE(dev.inRefresh(t.tRFC / 2));
    auto act = at(t.tRFC / 2, Ddr4Op::Activate, 0, 0, 0);
    EXPECT_FALSE(act.ok);
    // Right after tRFC the device accepts commands again — this is
    // exactly the window the NVMC exploits when the host programs a
    // longer tRFC.
    auto act2 = at(t.tRFC, Ddr4Op::Activate, 0, 0, 0);
    EXPECT_TRUE(act2.ok);
}

TEST_F(DeviceFixture, SelfRefreshBlocksCommandsUntilExitPlusTxs)
{
    const auto& t = dev.timing();
    at(0, Ddr4Op::SelfRefreshEnter);
    EXPECT_TRUE(dev.inSelfRefresh());
    auto act = at(1 * kUs, Ddr4Op::Activate, 0, 0, 0);
    EXPECT_FALSE(act.ok);
    at(2 * kUs, Ddr4Op::SelfRefreshExit);
    EXPECT_FALSE(dev.inSelfRefresh());
    auto act2 = at(2 * kUs + 100, Ddr4Op::Activate, 0, 0, 0);
    EXPECT_FALSE(act2.ok) << "tXS not honoured";
    auto act3 = at(2 * kUs + t.tXS, Ddr4Op::Activate, 0, 0, 0);
    EXPECT_TRUE(act3.ok);
}

TEST_F(DeviceFixture, SrxWithoutSreIsViolation)
{
    at(0, Ddr4Op::SelfRefreshExit);
    EXPECT_EQ(dev.stats().violations.value(), 1u);
}

TEST_F(DeviceFixture, DataStoreRoundTrip)
{
    std::array<std::uint8_t, 64> w{}, r{};
    for (int i = 0; i < 64; ++i)
        w[static_cast<std::size_t>(i)] = static_cast<std::uint8_t>(i);
    DramCoord c = map.decompose(4096);
    dev.writeBurst(c, w.data());
    dev.readBurst(c, r.data());
    EXPECT_EQ(std::memcmp(w.data(), r.data(), 64), 0);
}

TEST_F(DeviceFixture, UnwrittenReadsReturnZero)
{
    std::array<std::uint8_t, 64> r;
    r.fill(0xee);
    dev.readBurst(map.decompose(8192), r.data());
    for (auto byte : r)
        EXPECT_EQ(byte, 0);
}

TEST_F(DeviceFixture, SparseAllocationOnlyTouchedRows)
{
    EXPECT_EQ(dev.allocatedBytes(), 0u);
    std::array<std::uint8_t, 64> w{};
    dev.writeBurst(map.decompose(0), w.data());
    dev.writeBurst(map.decompose(64), w.data());
    EXPECT_EQ(dev.allocatedBytes(), map.rowBytes());
}

TEST(DramDevicePanic, PanicModeAborts)
{
    AddressMap m = smallMap();
    DramDevice dev(m, timing(), true, true);
    EXPECT_THROW(dev.issue({Ddr4Op::Read, 0, 0, 0, 0}, 0), PanicError);
}

TEST(DramDeviceFrame, IssueFromRawFrame)
{
    AddressMap m = smallMap();
    DramDevice dev(m, timing(), false, false);
    CaFrame f = encodeCommand({Ddr4Op::Refresh, 0, 0, 0, 0});
    EXPECT_TRUE(dev.issueFrame(f, 0).ok);
    EXPECT_EQ(dev.refreshCount(), 1u);
}

TEST(DramTiming, PresetsAreConsistent)
{
    for (const Ddr4Timing& t :
         {Ddr4Timing::ddr4_1600(), Ddr4Timing::ddr4_2400()}) {
        EXPECT_EQ(t.tRC, t.tRAS + t.tRP);
        EXPECT_GT(t.tRFC, 0u);
        EXPECT_GT(t.tREFI, t.tRFC);
        EXPECT_EQ(t.burstTime(), 4 * t.tCK);
        EXPECT_GT(t.readLatency(), t.tCL);
    }
    // The paper quotes tRCD+tCL ~= 26.64 ns at DDR4-2400.
    Ddr4Timing t24 = Ddr4Timing::ddr4_2400();
    EXPECT_NEAR(ticksToNs(t24.tRCD + t24.tCL), 26.64, 0.1);
}

TEST(RefreshRegisters, PaperProgramming)
{
    auto regs = RefreshRegisters::nvdimmc();
    EXPECT_EQ(regs.tRFC, 1250 * kNs);
    EXPECT_EQ(regs.tREFI, 7800 * kNs);
    auto std_regs = RefreshRegisters::standard();
    EXPECT_EQ(std_regs.tRFC, 350 * kNs);
}

} // namespace
} // namespace nvdimmc::dram
