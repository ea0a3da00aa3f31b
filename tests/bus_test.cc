/**
 * @file
 * Shared-bus multi-master conflict detection tests (paper Fig 2a).
 */

#include <gtest/gtest.h>

#include "common/logging.hh"

#include "bus/memory_bus.hh"
#include "common/event_queue.hh"

namespace nvdimmc::bus
{
namespace
{

using dram::Ddr4Op;

struct BusFixture : public ::testing::Test
{
    BusFixture()
        : map(16 * kMiB),
          dev(map, dram::Ddr4Timing::ddr4_1600(), false, false),
          bus(eq, dev, false)
    {
        host = bus.registerMaster("host");
        nvmc = bus.registerMaster("nvmc");
    }

    EventQueue eq;
    dram::AddressMap map;
    dram::DramDevice dev;
    MemoryBus bus;
    int host = -1;
    int nvmc = -1;
};

TEST_F(BusFixture, SingleMasterNoConflicts)
{
    const auto& t = dev.timing();
    bus.issueCommand(host, {Ddr4Op::Activate, 0, 0, 0, 0});
    eq.runUntil(t.tRCD);
    bus.issueCommand(host, {Ddr4Op::Read, 0, 0, 0, 0});
    EXPECT_EQ(bus.conflictCount(), 0u);
    EXPECT_EQ(bus.commandCount(host), 2u);
}

TEST_F(BusFixture, CaseC1CommandCollision)
{
    // Paper Fig 2a case 1: the NVMC activates while the host issues a
    // command in the same slot.
    bus.issueCommand(nvmc, {Ddr4Op::Activate, 0, 0, 1, 0});
    bus.issueCommand(host, {Ddr4Op::Activate, 1, 0, 2, 0});
    EXPECT_EQ(bus.conflictCount(), 1u);
    EXPECT_EQ(bus.conflicts()[0].masterA, host);
    EXPECT_EQ(bus.conflicts()[0].masterB, nvmc);
}

TEST_F(BusFixture, CaseC2PrechargeInvalidatesOtherMastersRead)
{
    // Paper Fig 2a case 2: both masters work on the same row; the
    // host precharges it, and the NVMC's subsequent read hits a
    // closed bank — a DRAM protocol violation.
    const auto& t = dev.timing();
    bus.issueCommand(nvmc, {Ddr4Op::Activate, 0, 0, 7, 0});
    eq.runUntil(t.tRAS);
    bus.issueCommand(host, {Ddr4Op::Precharge, 0, 0, 0, 0});
    eq.runUntil(t.tRAS + t.tRP);
    auto res = bus.issueCommand(nvmc, {Ddr4Op::Read, 0, 0, 7, 0});
    EXPECT_FALSE(res.ok);
    EXPECT_GE(dev.stats().violations.value(), 1u);
}

TEST_F(BusFixture, CommandsInDistinctSlotsDoNotConflict)
{
    const auto& t = dev.timing();
    bus.issueCommand(nvmc, {Ddr4Op::Activate, 0, 0, 1, 0});
    eq.runUntil(t.tCK);
    bus.issueCommand(host, {Ddr4Op::Activate, 1, 0, 2, 0});
    EXPECT_EQ(bus.conflictCount(), 0u);
}

TEST_F(BusFixture, SameMasterBackToBackIsFine)
{
    bus.issueCommand(host, {Ddr4Op::Activate, 0, 0, 1, 0});
    bus.issueCommand(host, {Ddr4Op::Nop, 0, 0, 0, 0});
    EXPECT_EQ(bus.conflictCount(), 0u);
}

TEST_F(BusFixture, NopAndDeselectDoNotDriveTheBus)
{
    bus.issueCommand(nvmc, {Ddr4Op::Activate, 0, 0, 1, 0});
    bus.issueCommand(host, {Ddr4Op::Deselect, 0, 0, 0, 0});
    bus.issueCommand(host, {Ddr4Op::Nop, 0, 0, 0, 0});
    EXPECT_EQ(bus.conflictCount(), 0u);
}

TEST_F(BusFixture, DqCollisionDetected)
{
    const auto& t = dev.timing();
    // Host read data window.
    bus.issueCommand(host, {Ddr4Op::Activate, 0, 0, 0, 0});
    eq.runUntil(t.tRCD);
    bus.issueCommand(host, {Ddr4Op::Read, 0, 0, 0, 0});
    // NVMC claims an overlapping DQ window by force.
    bus.claimDq(nvmc, eq.now() + t.tCL, eq.now() + t.tCL + 1000);
    EXPECT_GE(bus.conflictCount(), 1u);
}

TEST_F(BusFixture, DqDisjointWindowsFine)
{
    const auto& t = dev.timing();
    bus.claimDq(host, 1000, 2000);
    bus.claimDq(nvmc, 2000, 3000);
    EXPECT_EQ(bus.conflictCount(), 0u);
    (void)t;
}

TEST_F(BusFixture, PanicModeAborts)
{
    MemoryBus strict(eq, dev, true);
    int a = strict.registerMaster("a");
    int b = strict.registerMaster("b");
    strict.issueCommand(a, {Ddr4Op::Activate, 0, 0, 1, 0});
    EXPECT_THROW(strict.issueCommand(b, {Ddr4Op::Activate, 0, 0, 2, 0}),
                 PanicError);
}

/** Snoopers see every driven frame with correct decoding. */
struct RecordingSnooper : public CaSnooper
{
    std::vector<dram::Ddr4Op> seen;

    void
    observeFrame(const dram::CaFrame& frame, Tick) override
    {
        seen.push_back(dram::decodeFrame(frame).op);
    }
};

TEST_F(BusFixture, SnooperObservesAllDrivenCommands)
{
    RecordingSnooper snoop;
    bus.addSnooper(&snoop);
    const auto& t = dev.timing();
    bus.issueCommand(host, {Ddr4Op::Activate, 0, 0, 0, 0});
    eq.runUntil(t.tRAS);
    bus.issueCommand(host, {Ddr4Op::PrechargeAll, 0, 0, 0, 0});
    eq.runUntil(t.tRAS + t.tRP);
    bus.issueCommand(host, {Ddr4Op::Refresh, 0, 0, 0, 0});
    // NOP is not driven, so the snooper must not see it.
    bus.issueCommand(host, {Ddr4Op::Nop, 0, 0, 0, 0});
    ASSERT_EQ(snoop.seen.size(), 3u);
    EXPECT_EQ(snoop.seen[0], Ddr4Op::Activate);
    EXPECT_EQ(snoop.seen[1], Ddr4Op::PrechargeAll);
    EXPECT_EQ(snoop.seen[2], Ddr4Op::Refresh);
}

TEST_F(BusFixture, ConflictRecordsAreDescriptive)
{
    bus.issueCommand(nvmc, {Ddr4Op::Activate, 0, 0, 1, 0});
    bus.issueCommand(host, {Ddr4Op::Read, 0, 0, 1, 0});
    ASSERT_EQ(bus.conflictCount(), 1u);
    EXPECT_NE(bus.conflicts()[0].what.find("CA collision"),
              std::string::npos);
    bus.clearConflicts();
    EXPECT_EQ(bus.conflictCount(), 0u);
}

TEST_F(BusFixture, SameMasterOverDriveIsAConflict)
{
    // A master cramming two CA frames into one tCK slot is just as
    // much an electrical conflict as a cross-master collision; the
    // caOwner_ exemption used to let it slip through undetected.
    bus.issueCommand(host, {Ddr4Op::Activate, 0, 0, 1, 0});
    bus.issueCommand(host, {Ddr4Op::Read, 0, 0, 1, 0});
    ASSERT_EQ(bus.conflictCount(), 1u);
    EXPECT_NE(bus.conflicts()[0].what.find("CA over-drive"),
              std::string::npos);
    EXPECT_NE(bus.conflicts()[0].what.find("host"),
              std::string::npos);
}

} // namespace
} // namespace nvdimmc::bus
