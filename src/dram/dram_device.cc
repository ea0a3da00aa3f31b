#include "dram/dram_device.hh"

#include <cstring>
#include <sstream>

#include "common/logging.hh"

namespace nvdimmc::dram
{

DramDevice::DramDevice(const AddressMap& map, const Ddr4Timing& timing,
                       bool store_data, bool panic_on_violation)
    : map_(map),
      timing_(timing),
      storeData_(store_data),
      panicOnViolation_(panic_on_violation),
      banks_(map.totalBanks()),
      rows_(map.rowBytes())
{
}

void
DramDevice::recordViolation(Tick now, std::string what)
{
    stats_.violations.inc();
    violations_.push_back({now, what});
    if (panicOnViolation_)
        panic("DRAM protocol violation @", now, ": ", what);
    else
        warn("DRAM protocol violation @", now, ": ", what);
}

bool
DramDevice::allBanksIdle() const
{
    for (const auto& b : banks_) {
        if (b.state() != Bank::State::Idle)
            return false;
    }
    return true;
}

bool
DramDevice::checkGlobal(const Ddr4Command& cmd, Tick now)
{
    // Nothing but SRX is legal in self-refresh; nothing at all is
    // legal while the device is actually refreshing.
    if (selfRefresh_ && cmd.op != Ddr4Op::SelfRefreshExit &&
        cmd.op != Ddr4Op::Deselect && cmd.op != Ddr4Op::Nop) {
        recordViolation(now, "command during self-refresh: " +
                        cmd.describe());
        return false;
    }
    if (inRefresh(now) && cmd.op != Ddr4Op::Deselect &&
        cmd.op != Ddr4Op::Nop) {
        std::ostringstream os;
        os << cmd.describe() << " during refresh (ends at "
           << refreshEndsAt_ << ")";
        recordViolation(now, os.str());
        return false;
    }
    if (selfRefreshExitAt_ != 0 && now < selfRefreshExitAt_ &&
        cmd.op != Ddr4Op::Deselect && cmd.op != Ddr4Op::Nop) {
        recordViolation(now, "command violates tXS after SRX");
        return false;
    }
    return true;
}

IssueResult
DramDevice::handleCas(const Ddr4Command& cmd, Tick now, bool is_read,
                      bool auto_precharge)
{
    Bank& bank = banks_[map_.flatBank({cmd.bankGroup, cmd.bank, 0, 0})];

    // tCCD: CAS-to-CAS spacing, tighter within a bank group.
    if (lastCasTick_ != kTickNever) {
        Tick ccd = (cmd.bankGroup == lastCasBg_) ? timing_.tCCD_L
                                                 : timing_.tCCD_S;
        if (now < lastCasTick_ + ccd) {
            recordViolation(now, std::string("tCCD violation on ") +
                            cmd.describe());
            return {false, 0, 0};
        }
    }

    BankCheck chk = is_read ? bank.canRead(now, cmd.row, timing_)
                            : bank.canWrite(now, cmd.row, timing_);
    if (!chk.ok) {
        recordViolation(now, chk.reason + " (" + cmd.describe() + ")");
        return {false, 0, 0};
    }

    if (is_read) {
        bank.read(now, timing_);
        stats_.reads.inc();
    } else {
        bank.write(now, timing_);
        stats_.writes.inc();
    }
    lastCasTick_ = now;
    lastCasBg_ = cmd.bankGroup;

    if (auto_precharge)
        bank.precharge(now + (is_read ? timing_.tRTP : timing_.tWR));

    IssueResult res;
    Tick lat = is_read ? timing_.tCL : timing_.tCWL;
    res.dataStart = now + lat;
    res.dataEnd = res.dataStart + timing_.burstTime();
    return res;
}

IssueResult
DramDevice::issue(const Ddr4Command& cmd, Tick now)
{
    if (!checkGlobal(cmd, now))
        return {false, 0, 0};

    switch (cmd.op) {
      case Ddr4Op::Deselect:
      case Ddr4Op::Nop:
        return {};

      case Ddr4Op::Activate: {
        Bank& bank =
            banks_[map_.flatBank({cmd.bankGroup, cmd.bank, 0, 0})];

        if (lastActTick_ != kTickNever) {
            Tick rrd = (cmd.bankGroup == lastActBg_) ? timing_.tRRD_L
                                                     : timing_.tRRD_S;
            if (now < lastActTick_ + rrd) {
                recordViolation(now, "tRRD violation on " +
                                cmd.describe());
                return {false, 0, 0};
            }
        }
        while (!actWindow_.empty() &&
               actWindow_.front() + timing_.tFAW <= now) {
            actWindow_.pop_front();
        }
        if (actWindow_.size() >= 4) {
            recordViolation(now, "tFAW violation on " + cmd.describe());
            return {false, 0, 0};
        }

        BankCheck chk = bank.canActivate(now, timing_);
        if (!chk.ok) {
            recordViolation(now, chk.reason + " (" + cmd.describe() + ")");
            return {false, 0, 0};
        }
        if (cmd.row >= map_.rows()) {
            recordViolation(now, "ACT to nonexistent row");
            return {false, 0, 0};
        }
        bank.activate(now, cmd.row);
        lastActTick_ = now;
        lastActBg_ = cmd.bankGroup;
        actWindow_.push_back(now);
        stats_.activates.inc();
        return {};
      }

      case Ddr4Op::Read:
        return handleCas(cmd, now, true, false);
      case Ddr4Op::ReadAP:
        return handleCas(cmd, now, true, true);
      case Ddr4Op::Write:
        return handleCas(cmd, now, false, false);
      case Ddr4Op::WriteAP:
        return handleCas(cmd, now, false, true);

      case Ddr4Op::Precharge: {
        Bank& bank =
            banks_[map_.flatBank({cmd.bankGroup, cmd.bank, 0, 0})];
        BankCheck chk = bank.canPrecharge(now, timing_);
        if (!chk.ok) {
            recordViolation(now, chk.reason + " (" + cmd.describe() + ")");
            return {false, 0, 0};
        }
        bank.precharge(now);
        stats_.precharges.inc();
        return {};
      }

      case Ddr4Op::PrechargeAll: {
        for (auto& bank : banks_) {
            BankCheck chk = bank.canPrecharge(now, timing_);
            if (!chk.ok) {
                recordViolation(now, chk.reason + " (PREA)");
                return {false, 0, 0};
            }
        }
        for (auto& bank : banks_)
            bank.precharge(now);
        stats_.prechargeAlls.inc();
        return {};
      }

      case Ddr4Op::Refresh:
        if (!allBanksIdle()) {
            recordViolation(now, "REF with open banks");
            return {false, 0, 0};
        }
        refreshing_ = true;
        refreshEndsAt_ = now + timing_.tRFC;
        stats_.refreshes.inc();
        return {};

      case Ddr4Op::SelfRefreshEnter:
        if (!allBanksIdle()) {
            recordViolation(now, "SRE with open banks");
            return {false, 0, 0};
        }
        selfRefresh_ = true;
        stats_.selfRefreshEnters.inc();
        return {};

      case Ddr4Op::SelfRefreshExit:
        if (!selfRefresh_) {
            recordViolation(now, "SRX while not in self-refresh");
            return {false, 0, 0};
        }
        selfRefresh_ = false;
        selfRefreshExitAt_ = now + timing_.tXS;
        stats_.selfRefreshExits.inc();
        return {};

      case Ddr4Op::ModeRegisterSet:
      case Ddr4Op::ZqCalibration:
        // Accepted; mode registers are not modelled beyond boot.
        return {};
    }
    return {};
}

void
DramDevice::writeBurst(const DramCoord& coord, const std::uint8_t* data64)
{
    if (!storeData_)
        return;
    std::memcpy(rows_.touch(rowIndex(coord)) +
                std::size_t{coord.col} * AddressMap::kBurstBytes,
                data64, AddressMap::kBurstBytes);
}

void
DramDevice::readBurst(const DramCoord& coord, std::uint8_t* data64) const
{
    const std::uint8_t* row = storeData_ ? rows_.leaf(rowIndex(coord))
                                         : nullptr;
    if (!row) {
        std::memset(data64, 0, AddressMap::kBurstBytes);
        return;
    }
    std::memcpy(data64,
                row + std::size_t{coord.col} * AddressMap::kBurstBytes,
                AddressMap::kBurstBytes);
}

void
DramDevice::registerStats(StatRegistry& reg,
                          const std::string& prefix) const
{
    reg.addCounter(prefix + ".activates", stats_.activates);
    reg.addCounter(prefix + ".reads", stats_.reads);
    reg.addCounter(prefix + ".writes", stats_.writes);
    reg.addCounter(prefix + ".precharges", stats_.precharges);
    reg.addCounter(prefix + ".precharge_alls", stats_.prechargeAlls);
    reg.addCounter(prefix + ".refreshes", stats_.refreshes);
    reg.addCounter(prefix + ".self_refresh_enters",
                   stats_.selfRefreshEnters);
    reg.addCounter(prefix + ".self_refresh_exits",
                   stats_.selfRefreshExits);
    reg.addCounter(prefix + ".violations", stats_.violations);
}

} // namespace nvdimmc::dram
