/**
 * @file
 * NVMC firmware model (paper §IV-A: three Cortex-A53 cores run the
 * FTL and orchestrate the RTL modules).
 *
 * Every refresh window the firmware either advances queued DMA work or
 * polls the CP area; a decoded command becomes an in-flight operation:
 *
 *   cachefill:  poll window -> [decode] -> NAND read -> data window
 *               (4 KB into the slot) -> ack window
 *   writeback:  poll window -> [decode] -> data window (4 KB out of
 *               the slot) -> ack window (early-ack: the NAND program
 *               continues in the background; the data is power-safe in
 *               the FPGA's battery-backed buffer)
 *   wb+cf:      merged command (paper §VII-C optimization (4))
 *
 * The [decode] and FSM-transition delays model the PoC's
 * software-driven RTL control, which is why the measured uncached
 * access costs ~8.9 tREFI instead of the theoretical 3 (paper
 * §VII-B2); an ASIC configuration shrinks them.
 */

#ifndef NVDIMMC_NVMC_FIRMWARE_HH
#define NVDIMMC_NVMC_FIRMWARE_HH

#include <cstdint>
#include <memory>
#include <unordered_map>
#include <vector>

#include "common/event_queue.hh"
#include "common/stats.hh"
#include "dram/dram_device.hh"
#include "nvm/nvm_media.hh"
#include "nvmc/cp_protocol.hh"
#include "nvmc/dma_engine.hh"

namespace nvdimmc::nvmc
{

/** Firmware tuning knobs. */
struct FirmwareConfig
{
    /** CP decode + command dispatch on the A53 (software FSM). */
    Tick decodeDelay = 8 * kUs;
    /** Software work between op completion and the ack enqueue. */
    Tick postOpDelay = 3 * kUs;
    /** Ack a writeback as soon as the data left DRAM (the NAND
     *  program finishes in the background from the battery-backed
     *  buffer). */
    bool ackEarlyWriteback = true;

    /** PoC defaults (calibrated to §VII-B2's 8.9x tREFI pair). */
    static FirmwareConfig poc() { return {}; }

    /** ASIC projection (paper §VII-C): hardware FSM, no software. */
    static FirmwareConfig
    asic()
    {
        FirmwareConfig c;
        c.decodeDelay = 200 * kNs;
        c.postOpDelay = 100 * kNs;
        return c;
    }
};

/** Firmware statistics. */
struct FirmwareStats
{
    Counter cpPolls;
    Counter commandsAccepted;
    Counter cachefills;
    Counter writebacks;
    Counter mergedOps;
    Counter acksWritten;
    Counter powerFailDumpedPages;
    Histogram opLatency;   ///< Command decoded -> ack in DRAM.
    Histogram dataLatency; ///< Command decoded -> ack DMA enqueued
                           ///< (media + data-window share of opLatency).
    Histogram ackLatency;  ///< Ack DMA enqueued -> ack in DRAM (the
                           ///< window-wait tail of opLatency).
};

/** The firmware. */
class Firmware
{
  public:
    Firmware(EventQueue& eq, DmaEngine& dma, nvm::PageBackend& backend,
             dram::DramDevice& dram, const ReservedLayout& layout,
             const FirmwareConfig& cfg);

    /**
     * Give the firmware one refresh window. It will consume it with
     * pending DMA work or a CP poll.
     */
    void onWindow(Tick win_start, Tick win_end);

    /** In-flight operations (for tests / the driver's QD logic). */
    std::uint32_t opsInFlight() const { return opsInFlight_; }

    /**
     * Power failure: ignore the tRFC serialization rule, read the
     * metadata area straight out of the DRAM array, and flush every
     * valid dirty slot into the NVM backend (paper §V-C). Data moves
     * synchronously (post-mortem, outside simulated time).
     * @return pages flushed.
     */
    std::size_t powerFailDump();

    const FirmwareStats& stats() const { return stats_; }
    const FirmwareConfig& config() const { return cfg_; }

  private:
    struct Op
    {
        CpCommand cmd;
        std::uint32_t cpIndex = 0;
        Tick acceptedAt = 0;
        Tick ackEnqueuedAt = 0;
        std::shared_ptr<std::vector<std::uint8_t>> buffer;
        std::shared_ptr<std::vector<std::uint8_t>> buffer2;
    };

    void maybeEnqueuePoll();
    void decodePoll();
    void startOp(Op op);
    void runCachefill(std::shared_ptr<Op> op, std::uint64_t nand_page,
                      std::uint32_t dram_slot, bool ack_after);
    void runWriteback(std::shared_ptr<Op> op, std::uint64_t nand_page,
                      std::uint32_t dram_slot, bool then_cachefill);
    void writeAck(std::shared_ptr<Op> op);
    void readDramDirect(Addr addr, std::uint32_t len,
                        std::uint8_t* buf) const;

    EventQueue& eq_;
    DmaEngine& dma_;
    nvm::PageBackend& backend_;
    dram::DramDevice& dram_;
    ReservedLayout layout_;
    FirmwareConfig cfg_;

    std::vector<std::uint8_t> lastPhase_;
    /** The CP area image a poll reads. One poll is read or decoded at
     *  a time, and its DMA fills the whole image before decodePoll
     *  reads it, so every poll reuses it. */
    std::shared_ptr<std::vector<std::uint8_t>> pollImage_;
    bool pollInFlight_ = false;
    bool decoding_ = false;
    std::uint32_t opsInFlight_ = 0;

    /**
     * Slots whose dirty victim a merged wb+cf already captured (and
     * programmed), keyed by slot with the victim's NAND page as the
     * value. While such an entry matches the slot's in-DRAM metadata,
     * a power-fail dump must NOT flush the slot: its bytes may be a
     * partially landed fill, and the victim's copy in the FPGA buffer
     * is already on its way to NAND. The entry stops matching once
     * the driver's install rewrites the metadata to the new page.
     */
    std::unordered_map<std::uint32_t, std::uint64_t> mergedCaptured_;

    FirmwareStats stats_;
};

} // namespace nvdimmc::nvmc

#endif // NVDIMMC_NVMC_FIRMWARE_HH
