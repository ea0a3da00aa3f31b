/**
 * @file
 * Host integrated memory controller (iMC).
 *
 * Skylake-like behaviour as the paper relies on it (§II-B, §III-B):
 *  - deterministic DDR4 command scheduling (FR-FCFS, open-page),
 *  - posted writes through a bounded write pending queue (WPQ),
 *  - periodic refresh: PREA then REF every tREFI, with *programmable*
 *    tRFC/tREFI registers. The iMC blocks itself for the programmed
 *    tRFC after each REF; since the DRAM only needs its real tRFC
 *    (350 ns), the remainder of the programmed window (e.g. up to
 *    1250 ns) is dead time on the host side — which is exactly where
 *    the NVMC does its work.
 */

#ifndef NVDIMMC_IMC_IMC_HH
#define NVDIMMC_IMC_IMC_HH

#include <cstdint>
#include <deque>
#include <string>
#include <vector>

#include "bus/memory_bus.hh"
#include "common/event_queue.hh"
#include "common/stats.hh"
#include "dram/refresh_schedule.hh"
#include "imc/request.hh"
#include "imc/scheduler.hh"
#include "imc/wpq.hh"

namespace nvdimmc::imc
{

/** iMC configuration knobs; refresh timing is the RefreshSchedule the
 *  Imc is built with. */
struct ImcConfig
{
    std::size_t readQueueCap = 64;
    std::size_t wpqCap = 64;
    std::size_t wpqWatermark = 32;
    /** Entries older than this drain even below the watermark (real
     *  controllers age writes out; unbounded postponement would let
     *  the NVMC read stale slot data). */
    Tick wpqMaxAge = 1 * kUs;
    std::size_t schedWindow = 16;
    /** Latency of a WPQ store-to-load forward. */
    Tick forwardLatency = 20 * kNs;
    /**
     * Core-to-iMC round trip added to every read delivery (L3 miss
     * path, on-die interconnect, controller frontend). This is what
     * makes a single thread's 4 KB memcpy take ~1.1 us instead of
     * running at channel speed, matching the paper's single-thread
     * numbers.
     */
    Tick frontendLatency = 120 * kNs;

    /** @name Bulk (analytic) transfer model.
     * Big data movement can bypass per-line scheduling: occupancy is
     * computed from the channel's data rate and the per-thread stream
     * rate, and stretched across refresh blackouts mechanistically —
     * so tREFI sweeps (paper Fig 13) behave the same in both modes.
     */
    /** @{ */
    /** Channel efficiency vs theoretical peak (bank conflicts,
     *  turnarounds). */
    double bulkEfficiency = 0.88;
    /** Single-thread load-stream rate (MLP-limited). */
    double streamReadMBps = 4000.0;
    /** Single-thread NT-store stream rate. */
    double streamWriteMBps = 4500.0;
    /** Fixed per-bulk-op cost (row activation etc.). */
    Tick bulkOpOverhead = 40 * kNs;
    /** @} */

    /** Stat/trace identity of this controller ("imc", "ch1.imc", ...);
     *  names the Perfetto tracks so channels get separate rows. */
    std::string name = "imc";
};

/** The controller queue a rejected request waits on. */
enum class SpaceFor : std::uint8_t { Read, Write };

/** iMC statistics. */
struct ImcStats
{
    Counter readsAccepted;
    Counter writesAccepted;
    Counter wpqForwards;
    Counter refreshesIssued;
    /** Host-side dead time: programmed-tRFC ticks spent blocked after
     *  each REF (the window the NVMC feeds on). */
    Counter refreshBlockedTicks;
    Histogram readLatency;  ///< Enqueue -> data delivered.
};

/** The host memory controller driving one channel. */
class Imc
{
  public:
    /** Refresh follows @p refresh: the first REF at its
     *  firstRefreshDue(), then one every tREFI, each followed by a
     *  programmed-tRFC blackout. */
    Imc(EventQueue& eq, bus::MemoryBus& bus, const ImcConfig& cfg,
        const dram::RefreshSchedule& refresh);

    /**
     * Enqueue a 64 B line read. @p buf (nullable) receives the data.
     * @return false if the read queue is full (use whenSpace()).
     */
    bool readLine(Addr addr, std::uint8_t* buf, Callback done);

    /**
     * Post a 64 B line write; @p done fires immediately on acceptance
     * (posted semantics) and the WPQ drains in the background.
     * @return false if the WPQ is full.
     */
    bool writeLine(Addr addr, const std::uint8_t* data, Callback done);

    /**
     * Park @p retry, a one-shot callback, until @p queue (the queue
     * that rejected the caller) has room. Waiters are retried in park
     * order. A writer is retried only while the WPQ has a free entry;
     * a reader is retried on every freed entry, since its retry may
     * also complete by a cache hit or a WPQ forward. A retry that is
     * rejected again must park again.
     */
    void whenSpace(SpaceFor queue, Callback retry)
    {
        if (queue == SpaceFor::Read)
            ++parkedReaders_;
        spaceWaiters_.push_back({queue, std::move(retry)});
    }

    /**
     * Analytic bulk transfer (see ImcConfig bulk parameters): the
     * channel is occupied FCFS, the calling thread is limited by its
     * stream rate, and both stall across refresh blackouts. No
     * per-line commands are issued; data does not move.
     */
    void bulkTransfer(std::uint32_t bytes, bool is_write, Callback done);

    /** @name Refresh observation (for tests and the power model). */
    /** @{ */
    Tick nextRefreshDue() const { return nextRefreshDue_; }
    Tick lastRefreshAt() const { return lastRefreshAt_; }
    Tick blockedUntil() const { return blockedUntil_; }
    /** @} */

    const ImcConfig& config() const { return cfg_; }
    const dram::RefreshSchedule& refresh() const { return refresh_; }

    /** Number of WPQ entries currently pending. */
    std::size_t wpqDepth() const { return wpq_.size(); }
    std::size_t readQueueDepth() const { return readQ_.size(); }

    /**
     * Power-failure ADR flush: commit every WPQ entry's data straight
     * into the DRAM array, along with writes whose CAS already issued
     * but whose data burst was still on the wires — both live inside
     * the memory controller, which is exactly what ADR's stored
     * energy drains. @return entries flushed.
     */
    std::size_t adrFlushWpq();

    /** Power-failure *without* ADR: WPQ contents AND in-flight
     *  bursts are lost. */
    std::size_t dropWpq()
    {
        std::size_t n = wpq_.dropAll() + inflightWrites_.size();
        inflightWrites_.clear();
        return n;
    }

    const ImcStats& stats() const { return stats_; }

    /**
     * Register counters, queue occupancy and refresh-overhead
     * metrics under @p prefix (e.g. "imc" -> "imc.rdq.occupancy",
     * "imc.refresh.overhead_pct").
     */
    void registerStats(StatRegistry& reg,
                       const std::string& prefix) const;

  private:
    void wake(Tick at);
    void tick();
    void notifySpace();
    void completeRead(MemRequest& req, Tick data_end);
    void commitWrite(MemRequest& req, Tick data_end);
    void landWrite(std::uint64_t id);

    EventQueue& eq_;
    bus::MemoryBus& bus_;
    const ImcConfig cfg_;
    /** A copy of the channel's immutable schedule, so tick() reads
     *  it as cheaply as a config field. */
    const dram::RefreshSchedule refresh_;
    int masterId_;

    TimingShadow shadow_;
    RequestQueue readQ_;
    WritePendingQueue wpq_;

    struct SpaceWaiter
    {
        SpaceFor queue;
        Callback retry;
    };
    /** Parked retries in park order, and how many are readers. */
    std::deque<SpaceWaiter> spaceWaiters_;
    std::size_t parkedReaders_ = 0;

    /**
     * Writes popped from the WPQ at CAS time whose data burst has not
     * yet landed in the array. Kept so a power-fail flush can commit
     * them — otherwise a cut between CAS and burst-end would lose an
     * already-acked posted store (it is in neither the WPQ nor the
     * array). In issue order, so the flush order is deterministic;
     * only a few bursts are on the wires at once, so the reserved
     * vector never grows per burst.
     */
    struct InflightWrite
    {
        std::uint64_t id;
        MemRequest req;
    };
    std::vector<InflightWrite> inflightWrites_;
    std::uint64_t nextInflightWrite_ = 0;

    enum class RefState : std::uint8_t { Idle, WaitPrea, WaitRef,
                                         Blocked };
    RefState refState_ = RefState::Idle;
    Tick nextRefreshDue_;
    Tick lastRefreshAt_ = kTickNever;
    Tick blockedUntil_ = 0;

    /** Earliest tick the CA slot is free after our last command; a
     *  same-tick wake() (request arrival) must not let tick() drive a
     *  second command into a still-busy slot. */
    Tick nextCmdAt_ = 0;

    /** Single self-rescheduled wakeup driving tick(); intrusive, so
     *  moving it never allocates. */
    EventFunctionWrapper wakeEvent_;

    /** Cached Perfetto track names ("<name>.queues", "<name>.refresh");
     *  built once so the hot paths never concatenate strings. */
    std::string trackQueues_;
    std::string trackRefresh_;

    /** Bulk-model channel occupancy horizon. */
    Tick bulkBusyUntil_ = 0;

    /** Extend a busy interval across future refresh blackouts. */
    Tick refreshWalk(Tick start, Tick busy) const;

    ImcStats stats_;
};

} // namespace nvdimmc::imc

#endif // NVDIMMC_IMC_IMC_HH
