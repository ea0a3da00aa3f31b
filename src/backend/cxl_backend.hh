/**
 * @file
 * The CXL.mem hybrid transport: a CMM-H-style device (DRAM cache +
 * NAND behind one CXL link) in place of the NVDIMM-C module.
 *
 * The decisive difference from the CP-over-DDR4 protocol is that the
 * device controller owns its DRAM: a miss fill or victim writeback is
 * a single request flit across the link, executed immediately by the
 * device-side copy engine, answered by a response flit — no command
 * page, no ack polling, and above all no waiting for a refresh window
 * to open a DMA slot. What the host pays instead is the link itself:
 * an outstanding-request credit (the device's MSHR-equivalent pool),
 * one request crossing, the device-side copy, and one response
 * crossing — attributed to the LinkWait / LinkReq / DevCopy / LinkResp
 * span phases so the fig8-style breakdowns show window_wait collapse
 * to zero with link time appearing in its place.
 *
 * Durability matches the NVDIMM-C firmware's ack-early contract: a
 * writeback response means the victim's bytes sit in the device's
 * PLP-backed capture buffer; the NAND program continues behind it, and
 * powerFailFlush() commits whatever the metadata region marks dirty
 * (minus slots whose capture is already programmed-or-buffered, same
 * rule the firmware's dump applies).
 *
 * Timing defaults derive from published CXL-NVM figures: ~110 ns per
 * link crossing (a ~390 ns CMM-H load round trip minus the device
 * DRAM access itself), a 64/128-deep read/write credit pool, and a
 * ~256 ns device-side 4 KiB copy (16 GB/s internal path).
 */

#ifndef NVDIMMC_BACKEND_CXL_BACKEND_HH
#define NVDIMMC_BACKEND_CXL_BACKEND_HH

#include <cstdint>
#include <deque>
#include <memory>
#include <unordered_map>
#include <vector>

#include "backend/media_backend.hh"
#include "common/event_queue.hh"
#include "common/stats.hh"
#include "dram/dram_device.hh"
#include "nvm/nvm_media.hh"
#include "nvmc/cp_protocol.hh"

namespace nvdimmc::backend
{

/** CXL.mem link + device-controller model knobs. */
struct CxlBackendConfig
{
    /** Request flit host -> device (issue + link + device decode). */
    Tick reqLatency = 110 * kNs;
    /** Response flit device -> host. */
    Tick respLatency = 110 * kNs;
    /** Device-side 4 KiB copy between the NAND buffer / PLP capture
     *  buffer and the device DRAM (internal fabric, not the link). */
    Tick devCopyLatency = 256 * kNs;
    /** Outstanding-request credit pools (the device's queue depths). */
    std::uint32_t maxPendingReads = 64;
    std::uint32_t maxPendingWrites = 128;
    /** Host-visible interleave granule. The device copies pages
     *  internally, so nothing pins it to the page size; 256 B line
     *  interleave is the natural CXL choice. */
    std::uint32_t interleaveGranule = 256;
};

struct CxlBackendStats
{
    Counter cachefills;
    Counter writebacks;
    Counter mergedOps;
    /** Ops that found their credit pool empty and had to park. */
    Counter creditWaits;
    Counter pagesDumped;
    Histogram opLatency; ///< submit() -> done, host-observed.
};

/** DRAM cache + NAND behind a modeled CXL.mem link. */
class CxlHybridBackend : public MediaBackend
{
  public:
    CxlHybridBackend(EventQueue& eq, const CxlBackendConfig& cfg);

    /**
     * Wire channel @p ch's device halves in: @p dram the device DRAM,
     * @p media the page store behind it, @p layout the slot/metadata
     * map shared with the driver. Must be called for every channel
     * before traffic.
     */
    void attachChannel(std::uint32_t ch, dram::DramDevice& dram,
                       nvm::PageBackend& media,
                       const nvmc::ReservedLayout& layout);

    const BackendTraits& traits() const override { return traits_; }

    void submit(std::uint32_t channel, const TransportOp& op,
                Callback done) override;

    std::size_t powerFailFlush(std::uint32_t channel) override;

    void registerStats(StatRegistry& reg,
                       const std::string& prefix) const override;

    /** Link credits in use (reads + writes) plus ops parked for a
     *  credit, summed over channels. */
    std::uint64_t queueDepth() const override
    {
        std::uint64_t depth = 0;
        for (const auto& ch : channels_)
            depth += (cfg_.maxPendingReads - ch.readCredits) +
                     (cfg_.maxPendingWrites - ch.writeCredits) +
                     ch.creditWaiters.size();
        return depth;
    }

    const CxlBackendStats& stats() const { return stats_; }

  private:
    struct Channel
    {
        dram::DramDevice* dram = nullptr;
        nvm::PageBackend* media = nullptr;
        /** Non-owning: the core Channel outlives the backend. */
        const nvmc::ReservedLayout* layout = nullptr;

        /** @name Host-side link state. */
        /** @{ */
        std::uint32_t readCredits = 0;
        std::uint32_t writeCredits = 0;
        /** One op parked for credits. */
        struct Waiter
        {
            TransportOp::Kind kind;
            Callback go;
        };
        /** FIFO with head-of-line blocking, like a real full MSHR
         *  pool: a returning credit only ever releases the head. */
        std::deque<Waiter> creditWaiters;
        /** @} */

        /** @name Device-side state. */
        /** @{ */
        /** Slots whose victim was captured (and its program issued)
         *  by an in-flight op: the power-fail dump must skip them —
         *  the slot bytes may already belong to the incoming page.
         *  Maps slot -> captured victim's module-local NAND page. */
        std::unordered_map<std::uint32_t, std::uint64_t> captured;
        /** @} */
    };

    /** Take the credits @p kind needs (reads for fills, writes for
     *  writebacks, both for merged) if available. */
    bool tryTakeCredits(std::uint32_t ch, TransportOp::Kind kind);
    /** tryTakeCredits, parking @p go FIFO when the pool is dry. */
    void acquireCredits(std::uint32_t ch, TransportOp::Kind kind,
                        Callback go);
    void releaseCredits(std::uint32_t ch, TransportOp::Kind kind);
    void pumpWaiters(std::uint32_t ch);

    /** Host -> device: run @p fn one request latency ahead. */
    void toDevice(Callback fn);
    /** Device -> host: run @p fn one response latency ahead. */
    void toHost(Callback fn);

    /** Device-side op execution. */
    void deviceExec(std::uint32_t ch, TransportOp op, Callback respond);
    void deviceFill(std::uint32_t ch, const TransportOp& op,
                    std::uint32_t slot, std::uint64_t nand_page,
                    Callback respond);

    /** @name Device-internal DRAM access (64 B bursts, no link). */
    /** @{ */
    void readDramDirect(std::uint32_t ch, Addr addr, std::uint32_t len,
                        std::uint8_t* buf) const;
    void writeDramDirect(std::uint32_t ch, Addr addr, std::uint32_t len,
                         const std::uint8_t* data);
    /** @} */

    EventQueue& eq_;
    CxlBackendConfig cfg_;
    BackendTraits traits_;

    std::vector<Channel> channels_;

    CxlBackendStats stats_;
};

} // namespace nvdimmc::backend

#endif // NVDIMMC_BACKEND_CXL_BACKEND_HH
