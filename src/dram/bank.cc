#include "dram/bank.hh"

#include <sstream>

namespace nvdimmc::dram
{

namespace
{

BankCheck
tooEarly(const char* what, Tick now, Tick ready)
{
    std::ostringstream os;
    os << what << " at " << now << " before ready tick " << ready;
    return BankCheck::fail(os.str());
}

} // namespace

BankCheck
Bank::canActivate(Tick now, const Ddr4Timing& t) const
{
    if (state_ != State::Idle)
        return BankCheck::fail("ACT to a bank that is not precharged");
    if (everPrecharged_ && now < preAt_ + t.tRP)
        return tooEarly("ACT violates tRP", now, preAt_ + t.tRP);
    if (everActivated_ && now < actAt_ + t.tRC)
        return tooEarly("ACT violates tRC", now, actAt_ + t.tRC);
    return BankCheck::pass();
}

BankCheck
Bank::canRead(Tick now, std::uint32_t row, const Ddr4Timing& t) const
{
    if (state_ != State::Active)
        return BankCheck::fail("RD to a closed bank");
    if (openRow_ != row)
        return BankCheck::fail("RD to a row that is not open");
    if (now < actAt_ + t.tRCD)
        return tooEarly("RD violates tRCD", now, actAt_ + t.tRCD);
    if (everWritten_ && now < lastWriteDataEnd_ + t.tWTR)
        return tooEarly("RD violates tWTR", now,
                        lastWriteDataEnd_ + t.tWTR);
    return BankCheck::pass();
}

BankCheck
Bank::canWrite(Tick now, std::uint32_t row, const Ddr4Timing& t) const
{
    if (state_ != State::Active)
        return BankCheck::fail("WR to a closed bank");
    if (openRow_ != row)
        return BankCheck::fail("WR to a row that is not open");
    if (now < actAt_ + t.tRCD)
        return tooEarly("WR violates tRCD", now, actAt_ + t.tRCD);
    return BankCheck::pass();
}

BankCheck
Bank::canPrecharge(Tick now, const Ddr4Timing& t) const
{
    // PRE to an idle bank is legal (a NOP-like precharge).
    if (state_ == State::Idle)
        return BankCheck::pass();
    if (now < actAt_ + t.tRAS)
        return tooEarly("PRE violates tRAS", now, actAt_ + t.tRAS);
    if (everRead_ && now < lastReadCmd_ + t.tRTP)
        return tooEarly("PRE violates tRTP", now, lastReadCmd_ + t.tRTP);
    if (everWritten_ && now < lastWriteDataEnd_ + t.tWR)
        return tooEarly("PRE violates tWR", now,
                        lastWriteDataEnd_ + t.tWR);
    return BankCheck::pass();
}

void
Bank::activate(Tick now, std::uint32_t row)
{
    state_ = State::Active;
    openRow_ = row;
    actAt_ = now;
    everActivated_ = true;
}

void
Bank::read(Tick now, const Ddr4Timing&)
{
    lastReadCmd_ = now;
    everRead_ = true;
}

void
Bank::write(Tick now, const Ddr4Timing& t)
{
    lastWriteDataEnd_ = now + t.writeLatency();
    everWritten_ = true;
}

void
Bank::precharge(Tick now)
{
    state_ = State::Idle;
    preAt_ = now;
    everPrecharged_ = true;
}

} // namespace nvdimmc::dram
