/**
 * @file
 * DDR4 command encode/decode tests — the refresh detector's
 * correctness rests on REF never aliasing with any other encoding.
 */

#include <gtest/gtest.h>

#include "dram/ddr4_command.hh"

namespace nvdimmc::dram
{
namespace
{

TEST(Ddr4Command, RefreshPinPatternMatchesPaper)
{
    // Paper §IV-A: REF is CKE, ACT_n, WE_n high; CS_n, RAS_n, CAS_n
    // low.
    CaFrame f = encodeCommand({Ddr4Op::Refresh, 0, 0, 0, 0});
    EXPECT_TRUE(f.cke);
    EXPECT_TRUE(f.actN);
    EXPECT_TRUE(f.weN);
    EXPECT_FALSE(f.csN);
    EXPECT_FALSE(f.rasN);
    EXPECT_FALSE(f.casN);
}

TEST(Ddr4Command, DecodeRefresh)
{
    CaFrame f = encodeCommand({Ddr4Op::Refresh, 0, 0, 0, 0});
    EXPECT_EQ(decodeFrame(f).op, Ddr4Op::Refresh);
}

TEST(Ddr4Command, SelfRefreshEnterHasCkeFalling)
{
    CaFrame f = encodeCommand({Ddr4Op::SelfRefreshEnter, 0, 0, 0, 0});
    EXPECT_TRUE(f.ckePrev);
    EXPECT_FALSE(f.cke);
    EXPECT_EQ(decodeFrame(f).op, Ddr4Op::SelfRefreshEnter);
}

TEST(Ddr4Command, SelfRefreshExitHasCkeRising)
{
    CaFrame f = encodeCommand({Ddr4Op::SelfRefreshExit, 0, 0, 0, 0});
    EXPECT_FALSE(f.ckePrev);
    EXPECT_TRUE(f.cke);
    EXPECT_EQ(decodeFrame(f).op, Ddr4Op::SelfRefreshExit);
}

TEST(Ddr4Command, SreIsNotDecodedAsRefresh)
{
    CaFrame f = encodeCommand({Ddr4Op::SelfRefreshEnter, 0, 0, 0, 0});
    EXPECT_NE(decodeFrame(f).op, Ddr4Op::Refresh);
}

TEST(Ddr4Command, DeselectDrivesCsHigh)
{
    CaFrame f = encodeCommand({Ddr4Op::Deselect, 0, 0, 0, 0});
    EXPECT_TRUE(f.csN);
    EXPECT_EQ(decodeFrame(f).op, Ddr4Op::Deselect);
}

TEST(Ddr4Command, PrechargeAllUsesA10)
{
    CaFrame pre = encodeCommand({Ddr4Op::Precharge, 1, 2, 0, 0});
    CaFrame prea = encodeCommand({Ddr4Op::PrechargeAll, 0, 0, 0, 0});
    EXPECT_FALSE(pre.a10);
    EXPECT_TRUE(prea.a10);
    EXPECT_EQ(decodeFrame(pre).op, Ddr4Op::Precharge);
    EXPECT_EQ(decodeFrame(prea).op, Ddr4Op::PrechargeAll);
}

TEST(Ddr4Command, AutoPrechargeVariants)
{
    EXPECT_EQ(decodeFrame(encodeCommand({Ddr4Op::ReadAP, 0, 0, 0, 5}))
                  .op,
              Ddr4Op::ReadAP);
    EXPECT_EQ(decodeFrame(encodeCommand({Ddr4Op::WriteAP, 0, 0, 0, 5}))
                  .op,
              Ddr4Op::WriteAP);
}

TEST(Ddr4Command, DescribeIsHumanReadable)
{
    Ddr4Command c{Ddr4Op::Activate, 1, 2, 77, 0};
    std::string s = c.describe();
    EXPECT_NE(s.find("ACT"), std::string::npos);
    EXPECT_NE(s.find("77"), std::string::npos);
}

/** Every op round-trips through the pin encoding. */
class RoundTrip : public ::testing::TestWithParam<Ddr4Op>
{
};

TEST_P(RoundTrip, EncodeDecodeIdentity)
{
    Ddr4Command cmd;
    cmd.op = GetParam();
    cmd.bankGroup = 2;
    cmd.bank = 3;
    cmd.row = 0x1abc;
    cmd.col = 0x2f;
    Ddr4Command back = decodeFrame(encodeCommand(cmd));
    EXPECT_EQ(back.op, cmd.op) << toString(cmd.op);
    // Address fidelity where the encoding carries it.
    switch (cmd.op) {
      case Ddr4Op::Activate:
        EXPECT_EQ(back.row, cmd.row);
        EXPECT_EQ(back.bankGroup, cmd.bankGroup);
        EXPECT_EQ(back.bank, cmd.bank);
        break;
      case Ddr4Op::Read:
      case Ddr4Op::ReadAP:
      case Ddr4Op::Write:
      case Ddr4Op::WriteAP:
        EXPECT_EQ(back.col, cmd.col);
        EXPECT_EQ(back.bankGroup, cmd.bankGroup);
        EXPECT_EQ(back.bank, cmd.bank);
        break;
      default:
        break;
    }
}

INSTANTIATE_TEST_SUITE_P(
    AllOps, RoundTrip,
    ::testing::Values(Ddr4Op::Deselect, Ddr4Op::Nop, Ddr4Op::Activate,
                      Ddr4Op::Read, Ddr4Op::ReadAP, Ddr4Op::Write,
                      Ddr4Op::WriteAP, Ddr4Op::Precharge,
                      Ddr4Op::PrechargeAll, Ddr4Op::Refresh,
                      Ddr4Op::SelfRefreshEnter,
                      Ddr4Op::SelfRefreshExit,
                      Ddr4Op::ModeRegisterSet,
                      Ddr4Op::ZqCalibration),
    [](const ::testing::TestParamInfo<Ddr4Op>& info) {
        return toString(info.param);
    });

/**
 * Exhaustive alias check: no non-REF op's encoding decodes to REF.
 * This is the property the paper's detector depends on ("the CA
 * states of all DDR4 commands are mutually exclusive").
 */
class NoRefAlias : public ::testing::TestWithParam<Ddr4Op>
{
};

TEST_P(NoRefAlias, NeverDecodesAsRefresh)
{
    if (GetParam() == Ddr4Op::Refresh)
        GTEST_SKIP() << "REF itself";
    for (std::uint32_t row : {0u, 1u, 0x3fffu, 0x1c000u}) {
        Ddr4Command cmd;
        cmd.op = GetParam();
        cmd.row = row;
        cmd.col = row & 0x7f;
        CaFrame f = encodeCommand(cmd);
        EXPECT_NE(decodeFrame(f).op, Ddr4Op::Refresh)
            << toString(GetParam()) << " row " << row;
    }
}

INSTANTIATE_TEST_SUITE_P(
    AllOps, NoRefAlias,
    ::testing::Values(Ddr4Op::Deselect, Ddr4Op::Nop, Ddr4Op::Activate,
                      Ddr4Op::Read, Ddr4Op::ReadAP, Ddr4Op::Write,
                      Ddr4Op::WriteAP, Ddr4Op::Precharge,
                      Ddr4Op::PrechargeAll, Ddr4Op::SelfRefreshEnter,
                      Ddr4Op::SelfRefreshExit,
                      Ddr4Op::ModeRegisterSet,
                      Ddr4Op::ZqCalibration),
    [](const ::testing::TestParamInfo<Ddr4Op>& info) {
        return toString(info.param);
    });

} // namespace
} // namespace nvdimmc::dram
