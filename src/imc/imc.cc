#include "imc/imc.hh"

#include <algorithm>
#include <cstring>
#include <utility>

#include "common/logging.hh"
#include "common/trace.hh"

namespace nvdimmc::imc
{

namespace
{

/** Room for the write bursts between CAS and burst end: a burst is on
 *  the wires for tCWL plus its burst time, and write CAS commands
 *  issue at least tCCD_S apart, so only a handful overlap. */
constexpr std::size_t kInflightWritesReserved = 8;

} // namespace

Imc::Imc(EventQueue& eq, bus::MemoryBus& bus, const ImcConfig& cfg,
         const dram::RefreshSchedule& refresh)
    : eq_(eq),
      bus_(bus),
      cfg_(cfg),
      refresh_(refresh),
      masterId_(bus.registerMaster("host-imc")),
      shadow_(bus.dram().addressMap(), bus.dram().timing()),
      readQ_(cfg.readQueueCap),
      wpq_(cfg.wpqCap, cfg.wpqWatermark),
      nextRefreshDue_(refresh.firstRefreshDue()),
      wakeEvent_([this] { tick(); }, "imc-wake"),
      trackQueues_(cfg.name + ".queues"),
      trackRefresh_(cfg.name + ".refresh")
{
    NVDC_ASSERT(cfg.wpqWatermark <= cfg.wpqCap, "bad WPQ watermark");
    inflightWrites_.reserve(kInflightWritesReserved);
    // Refresh must run even while the host is idle: the NVDIMM-C
    // design feeds on the cadence.
    wake(nextRefreshDue_);
}

void
Imc::wake(Tick at)
{
    if (at < eq_.now())
        at = eq_.now();
    if (wakeEvent_.scheduled() && wakeEvent_.when() <= at)
        return; // An earlier-or-equal wakeup is already scheduled.
    eq_.reschedule(wakeEvent_, at);
}

bool
Imc::readLine(Addr addr, std::uint8_t* buf, Callback done)
{
    NVDC_ASSERT(addr % dram::AddressMap::kBurstBytes == 0,
                "unaligned line read");
    // Store-to-load forwarding: the WPQ holds the newest data, so scan
    // newest first.
    for (std::size_t i = wpq_.size(); i-- > 0;) {
        const MemRequest& w = wpq_[i];
        if (w.addr == addr) {
            stats_.wpqForwards.inc();
            if (buf && w.hasWriteData) {
                std::memcpy(buf, w.writeData.data(),
                            dram::AddressMap::kBurstBytes);
            }
            Tick enq = eq_.now();
            eq_.scheduleAfter(cfg_.forwardLatency,
                              [this, enq, cb = std::move(done)] {
                                  stats_.readLatency.record(eq_.now() -
                                                            enq);
                                  if (cb)
                                      cb();
                              });
            stats_.readsAccepted.inc();
            return true;
        }
    }

    if (readQ_.full())
        return false;

    MemRequest& req =
        readQ_.push(MemRequest::Kind::Read, addr,
                    bus_.dram().addressMap().decompose(addr), eq_.now());
    req.readBuf = buf;
    req.onComplete = std::move(done);
    stats_.readsAccepted.inc();
    trace::counter(trackQueues_.c_str(), "rdq", eq_.now(),
                   static_cast<double>(readQ_.size()));
    wake(eq_.now());
    return true;
}

bool
Imc::writeLine(Addr addr, const std::uint8_t* data, Callback done)
{
    NVDC_ASSERT(addr % dram::AddressMap::kBurstBytes == 0,
                "unaligned line write");
    if (wpq_.full())
        return false;

    MemRequest& req =
        wpq_.push(MemRequest::Kind::Write, addr,
                  bus_.dram().addressMap().decompose(addr), eq_.now());
    if (data) {
        std::memcpy(req.writeData.data(), data,
                    dram::AddressMap::kBurstBytes);
        req.hasWriteData = true;
    }
    stats_.writesAccepted.inc();
    trace::counter(trackQueues_.c_str(), "wpq", eq_.now(),
                   static_cast<double>(wpq_.size()));
    wake(eq_.now());
    // Posted: complete as soon as the store is in the WPQ.
    if (done)
        done();
    return true;
}

void
Imc::notifySpace()
{
    // Walk the waiters present on entry in park order, each retried at
    // most once; a retry that parks again lands behind them. A writer
    // facing a full WPQ would be rejected, so it moves behind uncalled,
    // which is where its re-park would have put it. A reader is always
    // retried: it may hit the CPU cache or forward from the WPQ without
    // read-queue room.
    for (std::size_t n = spaceWaiters_.size(); n > 0; --n) {
        // Only writers left, the WPQ full and nothing parked behind
        // them during this walk: moving each behind the rest would
        // leave the queue as it is, so stop here.
        if (wpq_.full() && parkedReaders_ == 0 &&
            spaceWaiters_.size() == n)
            return;
        SpaceWaiter w = std::move(spaceWaiters_.front());
        spaceWaiters_.pop_front();
        if (w.queue == SpaceFor::Write && wpq_.full()) {
            spaceWaiters_.push_back(std::move(w));
            continue;
        }
        if (w.queue == SpaceFor::Read)
            --parkedReaders_;
        w.retry();
    }
}

void
Imc::completeRead(MemRequest& req, Tick data_end)
{
    // Capture the array contents at CAS time; deliver at burst end.
    // Between the two no other master may legally write (the NVMC only
    // writes inside refresh windows, and no CAS is in flight then).
    if (req.readBuf)
        bus_.dram().readBurst(req.coord, req.readBuf);
    Tick enq = req.enqueued;
    eq_.schedule(data_end + cfg_.frontendLatency,
                 [this, enq, cb = std::move(req.onComplete)] {
                     stats_.readLatency.record(eq_.now() - enq);
                     if (cb)
                         cb();
                     notifySpace();
                 });
}

void
Imc::commitWrite(MemRequest& req, Tick data_end)
{
    // Park the request where a power-fail flush can still see it; the
    // burst-end event commits it to the array and retires it.
    std::uint64_t id = nextInflightWrite_++;
    inflightWrites_.push_back({id, std::move(req)});
    eq_.schedule(data_end, [this, id] { landWrite(id); });
}

void
Imc::landWrite(std::uint64_t id)
{
    // If ADR already flushed the burst post-mortem, there is nothing
    // left to land.
    auto it = std::find_if(
        inflightWrites_.begin(), inflightWrites_.end(),
        [id](const InflightWrite& w) { return w.id == id; });
    if (it != inflightWrites_.end()) {
        if (it->req.hasWriteData)
            bus_.dram().writeBurst(it->req.coord,
                                   it->req.writeData.data());
        inflightWrites_.erase(it);
    }
    notifySpace();
}

void
Imc::tick()
{
    const Tick now = eq_.now();
    const auto& t = bus_.dram().timing();
    const auto& map = bus_.dram().addressMap();

    // Our previous command still owns the CA slot (a request arriving
    // in the same tick re-enters tick() via wake()).
    if (now < nextCmdAt_) {
        wake(nextCmdAt_);
        return;
    }

    // --- Refresh state machine (highest priority) ---
    if (refState_ == RefState::Blocked) {
        if (now < blockedUntil_) {
            wake(blockedUntil_);
            return;
        }
        refState_ = RefState::Idle;
    }
    if (refState_ == RefState::Idle && now >= nextRefreshDue_) {
        refState_ = shadow_.anyBankOpen() ? RefState::WaitPrea
                                          : RefState::WaitRef;
    }
    if (refState_ == RefState::WaitPrea) {
        Tick ready = shadow_.earliestPrechargeAll();
        if (ready > now) {
            wake(ready);
            return;
        }
        bus_.issueCommand(masterId_,
                          {dram::Ddr4Op::PrechargeAll, 0, 0, 0, 0});
        shadow_.onPrechargeAll(now);
        nextCmdAt_ = now + t.tCK;
        refState_ = RefState::WaitRef;
        wake(now + t.tCK);
        return;
    }
    if (refState_ == RefState::WaitRef) {
        Tick ready = std::max(shadow_.earliestRefresh(),
                              shadow_.dqBusyUntil());
        if (ready > now) {
            wake(ready);
            return;
        }
        bus_.issueCommand(masterId_, {dram::Ddr4Op::Refresh, 0, 0, 0, 0});
        shadow_.onRefresh(now);
        nextCmdAt_ = now + t.tCK;
        stats_.refreshesIssued.inc();
        stats_.refreshBlockedTicks.inc(refresh_.tRFC());
        lastRefreshAt_ = now;
        // Block for the PROGRAMMED tRFC; the device only needs its
        // real tRFC, the rest is the NVMC's window.
        blockedUntil_ = now + refresh_.tRFC();
        if (trace::enabled()) {
            trace::instant(trackRefresh_.c_str(), "REF", now);
            trace::duration(trackRefresh_.c_str(),
                            "blocked(programmed tRFC)",
                            now, blockedUntil_);
        }
        nextRefreshDue_ += refresh_.tREFI();
        refState_ = RefState::Blocked;
        wake(blockedUntil_);
        return;
    }

    // --- Normal FR-FCFS service ---
    bool drain_writes =
        wpq_.aboveWatermark() ||
        (!wpq_.empty() &&
         now >= wpq_.front().enqueued + cfg_.wpqMaxAge);
    SchedDecision d = pickNext(readQ_, wpq_, drain_writes, shadow_, map,
                               cfg_.schedWindow);
    if (d.action == SchedDecision::Action::None) {
        // Sleep until a new request arrives — but keep the refresh
        // cadence armed regardless.
        wake(nextRefreshDue_);
        return;
    }

    // Never start a command that could not finish before a due
    // refresh forces PREA — the refresh FSM takes over at the next
    // tick call once due.
    if (d.earliest > now) {
        wake(d.earliest);
        return;
    }

    // Slots never move, so the request stays put across issueCommand.
    MemRequest& req = d.fromWriteQueue ? wpq_[d.queueIndex]
                                       : readQ_[d.queueIndex];
    const auto& c = req.coord;
    std::uint32_t fb = map.flatBank(c);

    switch (d.action) {
      case SchedDecision::Action::Activate:
        bus_.issueCommand(masterId_, {dram::Ddr4Op::Activate,
                                      c.bankGroup, c.bank, c.row, 0});
        shadow_.onActivate(fb, c.bankGroup, c.row, now);
        break;

      case SchedDecision::Action::Precharge:
        bus_.issueCommand(masterId_, {dram::Ddr4Op::Precharge,
                                      c.bankGroup, c.bank, 0, 0});
        shadow_.onPrecharge(fb, now);
        break;

      case SchedDecision::Action::Read: {
        auto res = bus_.issueCommand(masterId_,
                                     {dram::Ddr4Op::Read, c.bankGroup,
                                      c.bank, c.row, c.col});
        shadow_.onRead(fb, c.bankGroup, now);
        // A rejected CAS (e.g. the NVMC corrupted bank state during a
        // collision scenario) returns no data window; fall back to
        // nominal timing so the pipeline keeps moving.
        Tick data_end = res.ok && res.dataEnd > now
                            ? res.dataEnd
                            : now + t.readLatency();
        completeRead(req, data_end);
        readQ_.erase(d.queueIndex);
        break;
      }

      case SchedDecision::Action::Write: {
        auto res = bus_.issueCommand(masterId_,
                                     {dram::Ddr4Op::Write, c.bankGroup,
                                      c.bank, c.row, c.col});
        shadow_.onWrite(fb, c.bankGroup, now);
        Tick data_end = res.ok && res.dataEnd > now
                            ? res.dataEnd
                            : now + t.writeLatency();
        commitWrite(req, data_end);
        wpq_.erase(d.queueIndex);
        break;
      }

      case SchedDecision::Action::None:
        break;
    }
    nextCmdAt_ = now + t.tCK;

    wake(now + t.tCK);
}

Tick
Imc::refreshWalk(Tick start, Tick busy) const
{
    Tick cursor = start;
    // Currently inside a refresh blackout?
    if (refState_ == RefState::Blocked && cursor < blockedUntil_)
        cursor = blockedUntil_;

    // Future blackouts start (approximately) at each due tick. The
    // schedule keeps tRFC below tREFI, so each lap leaves a gap.
    Tick next_ref = nextRefreshDue_;
    if (next_ref <= cursor) {
        Tick behind = cursor - next_ref;
        next_ref += (behind / refresh_.tREFI() + 1) * refresh_.tREFI();
    }
    Tick remaining = busy;
    for (;;) {
        Tick gap = next_ref - cursor;
        if (remaining <= gap)
            return cursor + remaining;
        remaining -= gap;
        cursor = next_ref + refresh_.tRFC();
        next_ref += refresh_.tREFI();
    }
}

void
Imc::bulkTransfer(std::uint32_t bytes, bool is_write, Callback done)
{
    const Tick now = eq_.now();
    const auto& t = bus_.dram().timing();

    // Channel occupancy: DDR4 x64 moves 16 B per tCK at peak.
    double peak_bytes_per_ps = 16.0 / static_cast<double>(t.tCK);
    double eff = cfg_.bulkEfficiency;
    auto channel_busy = static_cast<Tick>(
        static_cast<double>(bytes) / (peak_bytes_per_ps * eff));

    Tick channel_start = std::max(now, bulkBusyUntil_);
    Tick channel_done =
        refreshWalk(channel_start, channel_busy + cfg_.bulkOpOverhead);
    bulkBusyUntil_ = channel_done;

    // Thread-side stream limit (MLP for loads, issue rate for NT
    // stores).
    double stream_mbps =
        is_write ? cfg_.streamWriteMBps : cfg_.streamReadMBps;
    auto stream_busy = static_cast<Tick>(
        static_cast<double>(bytes) / (stream_mbps * 1e6 / 1e12));
    Tick stream_done =
        refreshWalk(now, stream_busy + cfg_.bulkOpOverhead);

    Tick finish = std::max(channel_done, stream_done);
    if (is_write)
        stats_.writesAccepted.inc();
    else
        stats_.readsAccepted.inc();
    eq_.schedule(finish, std::move(done));
}

void
Imc::registerStats(StatRegistry& reg, const std::string& prefix) const
{
    reg.addCounter(prefix + ".reads_accepted", stats_.readsAccepted);
    reg.addCounter(prefix + ".writes_accepted",
                   stats_.writesAccepted);
    reg.addCounter(prefix + ".wpq_forwards", stats_.wpqForwards);
    reg.addCounter(prefix + ".refreshes_issued",
                   stats_.refreshesIssued);
    reg.addHistogram(prefix + ".read_latency", stats_.readLatency);
    reg.add(prefix + ".read_latency_mean_ns",
            [this] { return stats_.readLatency.mean() / 1000.0; });
    reg.add(prefix + ".rdq.occupancy", [this] {
        return static_cast<double>(readQ_.size());
    });
    reg.add(prefix + ".wpq.occupancy", [this] {
        return static_cast<double>(wpq_.size());
    });
    reg.addCounter(prefix + ".refresh.blocked_ticks",
                   stats_.refreshBlockedTicks);
    // Fraction of all simulated time the host spent inside its
    // programmed-tRFC blackout (paper Fig 13's x-axis cost).
    reg.add(prefix + ".refresh.overhead_pct", [this] {
        Tick now = eq_.now();
        return now == 0 ? 0.0
                        : 100.0 *
                              static_cast<double>(
                                  stats_.refreshBlockedTicks.value()) /
                              static_cast<double>(now);
    });
}

std::size_t
Imc::adrFlushWpq()
{
    std::size_t n = 0;
    // Bursts already on the wires land first (they left the WPQ
    // before anything still queued behind them).
    for (const InflightWrite& w : inflightWrites_) {
        if (w.req.hasWriteData)
            bus_.dram().writeBurst(w.req.coord, w.req.writeData.data());
        ++n;
    }
    inflightWrites_.clear();
    for (std::size_t i = 0; i < wpq_.size(); ++i) {
        const MemRequest& req = wpq_[i];
        if (req.hasWriteData)
            bus_.dram().writeBurst(req.coord, req.writeData.data());
        ++n;
    }
    wpq_.clear();
    return n;
}

} // namespace nvdimmc::imc
