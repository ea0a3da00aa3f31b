#include "imc/scheduler.hh"

#include <algorithm>

namespace nvdimmc::imc
{

TimingShadow::TimingShadow(const dram::AddressMap& map,
                           const dram::Ddr4Timing& t)
    : t_(t), banks_(map.totalBanks())
{
}

bool
TimingShadow::anyBankOpen() const
{
    return std::any_of(banks_.begin(), banks_.end(),
                       [](const BankShadow& b) { return b.open; });
}

Tick
TimingShadow::earliestActivate(std::uint32_t fb, std::uint8_t bg) const
{
    const BankShadow& b = banks_[fb];
    Tick ready = refreshDoneAt_;
    if (b.everPre)
        ready = std::max(ready, b.preTick + t_.tRP);
    if (b.everAct)
        ready = std::max(ready, b.actTick + t_.tRC);
    if (lastActTick_ != kTickNever) {
        Tick rrd = (bg == lastActBg_) ? t_.tRRD_L : t_.tRRD_S;
        ready = std::max(ready, lastActTick_ + rrd);
    }
    if (actWindow_.size() >= 4)
        ready = std::max(ready, actWindow_.front() + t_.tFAW);
    return ready;
}

Tick
TimingShadow::earliestRead(std::uint32_t fb, std::uint8_t bg) const
{
    const BankShadow& b = banks_[fb];
    Tick ready = std::max(refreshDoneAt_, b.actTick + t_.tRCD);
    if (lastCasTick_ != kTickNever) {
        Tick ccd = (bg == lastCasBg_) ? t_.tCCD_L : t_.tCCD_S;
        ready = std::max(ready, lastCasTick_ + ccd);
    }
    // Write-to-read turnaround.
    if (globalWriteDataEnd_ != 0)
        ready = std::max(ready, globalWriteDataEnd_ + t_.tWTR);
    // Keep the DQ bus collision-free: data starts at issue + tCL.
    if (dqBusyUntil_ > 0 && dqBusyUntil_ > t_.tCL)
        ready = std::max(ready, dqBusyUntil_ - t_.tCL);
    return ready;
}

Tick
TimingShadow::earliestWrite(std::uint32_t fb, std::uint8_t bg) const
{
    const BankShadow& b = banks_[fb];
    Tick ready = std::max(refreshDoneAt_, b.actTick + t_.tRCD);
    if (lastCasTick_ != kTickNever) {
        Tick ccd = (bg == lastCasBg_) ? t_.tCCD_L : t_.tCCD_S;
        ready = std::max(ready, lastCasTick_ + ccd);
        // Read-to-write turnaround: leave two command slots between the
        // read burst ending and the write burst starting.
        if (!lastCasWasWrite_) {
            Tick read_data_end =
                lastCasTick_ + t_.tCL + t_.burstTime();
            Tick earliest_data = read_data_end + 2 * t_.tCK;
            if (earliest_data > t_.tCWL)
                ready = std::max(ready, earliest_data - t_.tCWL);
        }
    }
    if (dqBusyUntil_ > 0 && dqBusyUntil_ > t_.tCWL)
        ready = std::max(ready, dqBusyUntil_ - t_.tCWL);
    return ready;
}

Tick
TimingShadow::earliestPrecharge(std::uint32_t fb) const
{
    const BankShadow& b = banks_[fb];
    if (!b.open)
        return refreshDoneAt_;
    Tick ready = std::max(refreshDoneAt_, b.actTick + t_.tRAS);
    if (b.lastReadCmd != 0)
        ready = std::max(ready, b.lastReadCmd + t_.tRTP);
    if (b.writeDataEnd != 0)
        ready = std::max(ready, b.writeDataEnd + t_.tWR);
    return ready;
}

Tick
TimingShadow::earliestPrechargeAll() const
{
    Tick ready = refreshDoneAt_;
    for (std::uint32_t fb = 0; fb < banks_.size(); ++fb)
        ready = std::max(ready, earliestPrecharge(fb));
    return ready;
}

Tick
TimingShadow::earliestRefresh() const
{
    // All banks must be precharged for tRP before REF.
    Tick ready = refreshDoneAt_;
    for (const auto& b : banks_) {
        if (b.everPre)
            ready = std::max(ready, b.preTick + t_.tRP);
    }
    return ready;
}

void
TimingShadow::onActivate(std::uint32_t fb, std::uint8_t bg,
                         std::uint32_t row, Tick now)
{
    BankShadow& b = banks_[fb];
    b.open = true;
    b.row = row;
    b.actTick = now;
    b.everAct = true;
    b.lastReadCmd = 0;
    b.writeDataEnd = 0;
    lastActTick_ = now;
    lastActBg_ = bg;
    actWindow_.push_back(now);
    while (!actWindow_.empty() && actWindow_.front() + t_.tFAW <= now)
        actWindow_.pop_front();
    if (actWindow_.size() > 4)
        actWindow_.pop_front();
}

void
TimingShadow::onRead(std::uint32_t fb, std::uint8_t bg, Tick now)
{
    banks_[fb].lastReadCmd = now;
    lastCasTick_ = now;
    lastCasBg_ = bg;
    lastCasWasWrite_ = false;
    dqBusyUntil_ = now + t_.tCL + t_.burstTime();
}

void
TimingShadow::onWrite(std::uint32_t fb, std::uint8_t bg, Tick now)
{
    Tick data_end = now + t_.tCWL + t_.burstTime();
    banks_[fb].writeDataEnd = data_end;
    globalWriteDataEnd_ = data_end;
    lastCasTick_ = now;
    lastCasBg_ = bg;
    lastCasWasWrite_ = true;
    dqBusyUntil_ = data_end;
}

void
TimingShadow::onPrecharge(std::uint32_t fb, Tick now)
{
    BankShadow& b = banks_[fb];
    b.open = false;
    b.preTick = now;
    b.everPre = true;
}

void
TimingShadow::onPrechargeAll(Tick now)
{
    for (auto& b : banks_) {
        b.open = false;
        b.preTick = now;
        b.everPre = true;
    }
}

void
TimingShadow::onRefresh(Tick now)
{
    // The *programmed* tRFC blocking is enforced by the Imc itself;
    // here we only remember the device-mandated minimum.
    refreshDoneAt_ = now + t_.tRFC;
}

namespace
{

/** Earliest tick to fully serve @p req (possibly via PRE/ACT first). */
SchedDecision
decisionFor(const MemRequest& req, bool from_write_q, std::size_t index,
            const TimingShadow& shadow, const dram::AddressMap& map)
{
    SchedDecision d;
    d.fromWriteQueue = from_write_q;
    d.queueIndex = index;

    const auto& c = req.coord;
    std::uint32_t fb = map.flatBank(c);

    if (shadow.bankOpen(fb) && shadow.openRow(fb) == c.row) {
        d.action = req.kind == MemRequest::Kind::Read
                       ? SchedDecision::Action::Read
                       : SchedDecision::Action::Write;
        d.earliest = req.kind == MemRequest::Kind::Read
                         ? shadow.earliestRead(fb, c.bankGroup)
                         : shadow.earliestWrite(fb, c.bankGroup);
    } else if (shadow.bankOpen(fb)) {
        d.action = SchedDecision::Action::Precharge;
        d.earliest = shadow.earliestPrecharge(fb);
    } else {
        d.action = SchedDecision::Action::Activate;
        d.earliest = shadow.earliestActivate(fb, c.bankGroup);
    }
    return d;
}

bool
isRowHit(const MemRequest& req, const TimingShadow& shadow,
         const dram::AddressMap& map)
{
    std::uint32_t fb = map.flatBank(req.coord);
    return shadow.bankOpen(fb) && shadow.openRow(fb) == req.coord.row;
}

} // namespace

SchedDecision
pickNext(const RequestQueue& read_q,
         const RequestQueue& write_q,
         bool drain_writes,
         const TimingShadow& shadow,
         const dram::AddressMap& map,
         std::size_t window)
{
    // 1. Row-hit read within the search window.
    std::size_t read_scan = std::min(window, read_q.size());
    for (std::size_t i = 0; i < read_scan; ++i) {
        if (isRowHit(read_q[i], shadow, map))
            return decisionFor(read_q[i], false, i, shadow, map);
    }
    // 2. Row-hit write when draining (or no reads at all).
    bool writes_eligible = drain_writes || read_q.empty();
    if (writes_eligible) {
        std::size_t write_scan = std::min(window, write_q.size());
        for (std::size_t i = 0; i < write_scan; ++i) {
            if (isRowHit(write_q[i], shadow, map))
                return decisionFor(write_q[i], true, i, shadow, map);
        }
    }
    // 3. Oldest read, else oldest write.
    if (!read_q.empty())
        return decisionFor(read_q.front(), false, 0, shadow, map);
    if (writes_eligible && !write_q.empty())
        return decisionFor(write_q.front(), true, 0, shadow, map);
    return {};
}

} // namespace nvdimmc::imc
