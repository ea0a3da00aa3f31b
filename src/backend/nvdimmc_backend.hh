/**
 * @file
 * The NVDIMM-C transport: CP page over the standard DDR4 interface.
 *
 * This is the paper's §IV-C protocol, extracted verbatim from the nvdc
 * driver so the host stack can swap transports: the driver composes a
 * TransportOp, this backend encodes it as a CP command line, stores +
 * clflushes it into the module's reserved area, and polls the ack line
 * until the firmware (which only sees the command during a refresh
 * window poll) reports completion. Per-channel CP index pools model
 * the queue depth (1 on the PoC) that serializes the fault path.
 *
 * Ack semantics are the firmware's: a writeback ack means the victim's
 * bytes were captured into the FPGA's power-safe buffer (the NAND
 * program continues in the background), so durableOnAck holds.
 */

#ifndef NVDIMMC_BACKEND_NVDIMMC_BACKEND_HH
#define NVDIMMC_BACKEND_NVDIMMC_BACKEND_HH

#include <array>
#include <cstdint>
#include <deque>
#include <vector>

#include "backend/media_backend.hh"
#include "common/event_queue.hh"
#include "common/stats.hh"
#include "cpu/cache_model.hh"
#include "dram/channel_interleave.hh"
#include "nvmc/cp_protocol.hh"

namespace nvdimmc::nvmc
{
class Nvmc;
}

namespace nvdimmc::backend
{

/** Timing knobs of the CP transport (driver-side constants). The
 *  queue depth is each module's layout.maxCommands. */
struct NvdimmcBackendConfig
{
    Tick cpWriteCost = 300 * kNs;    ///< Compose + store CP command.
    Tick ackPollInterval = 500 * kNs;
};

struct NvdimmcBackendStats
{
    Counter ackPolls;
};

/** The CP-page-over-DDR4 + refresh-window-DMA transport. */
class NvdimmcBackend : public MediaBackend
{
  public:
    /** One reserved layout per module, channel order. CP lines are
     *  addressed through @p cache_model at flat interleaved addresses
     *  (page granule — the NVDIMM-C constraint). */
    NvdimmcBackend(EventQueue& eq, cpu::CpuCacheModel& cache_model,
                   const std::vector<const nvmc::ReservedLayout*>& layouts,
                   const NvdimmcBackendConfig& cfg);

    const BackendTraits& traits() const override { return traits_; }

    void submit(std::uint32_t channel, const TransportOp& op,
                Callback done) override;

    /** Delegates to the attached module's flush-on-fail firmware dump
     *  (0 when the channel has no NVMC attached). */
    std::size_t powerFailFlush(std::uint32_t channel) override;

    void registerStats(StatRegistry& reg,
                       const std::string& prefix) const override;

    /** CP command slots in use plus ops parked for a free slot,
     *  summed over modules. */
    std::uint64_t queueDepth() const override
    {
        std::uint64_t depth = 0;
        for (std::size_t ch = 0; ch < freeCpIndices_.size(); ++ch)
            depth += layouts_[ch].maxCommands - freeCpIndices_[ch].size() +
                     cpWaiters_[ch].size();
        return depth;
    }

    /** Wire channel @p channel's NVMC in (for powerFailFlush). */
    void attachNvmc(std::uint32_t channel, nvmc::Nvmc* nvmc);

    const NvdimmcBackendStats& stats() const { return stats_; }

  private:
    /**
     * One CP command index of one module and the transaction holding
     * it: its command, its completion and the line its ack polls load
     * into. Records are built with the layout and never move, so each
     * step of a transaction is a continuation carrying only `this` and
     * the record.
     */
    struct CpSlot
    {
        std::uint32_t channel = 0;
        std::uint32_t index = 0;
        /** Phase of the last command written at this index. */
        std::uint8_t phase = 0;
        nvmc::CpCommand cmd;
        Callback done;
        std::array<std::uint8_t, 64> ack{};
    };

    /** A transaction waiting for a free CP index. */
    struct CpWaiter
    {
        nvmc::CpCommand cmd;
        Callback done;
    };

    /** @name CP channel (one command queue per module). */
    /** @{ */
    void cpTransaction(std::uint32_t channel, const nvmc::CpCommand& cmd,
                       Callback done);
    /** Hand @p s's index to the next waiter, or free it. */
    void releaseCpIndex(CpSlot& s);
    void beginTransaction(CpSlot& s);
    void writeCommand(CpSlot& s);
    void pollAck(CpSlot& s);
    void ackLoaded(CpSlot& s);
    /** @} */

    /** Flat interleaved address of a channel-local DRAM address. */
    Addr flatAddr(std::uint32_t channel, Addr local) const
    {
        return il_.flatten(channel, local);
    }
    Addr commandAddr(const CpSlot& s) const
    {
        return flatAddr(s.channel, layouts_[s.channel].commandAddr(s.index));
    }
    Addr ackAddr(const CpSlot& s) const
    {
        return flatAddr(s.channel, layouts_[s.channel].ackAddr(s.index));
    }

    EventQueue& eq_;
    cpu::CpuCacheModel& cacheModel_;
    std::vector<nvmc::ReservedLayout> layouts_;
    NvdimmcBackendConfig cfg_;
    BackendTraits traits_;

    std::uint32_t channels_;
    dram::ChannelInterleave il_;

    /** Per module, one record per CP index. */
    std::vector<std::vector<CpSlot>> cpSlots_;
    std::vector<std::vector<std::uint32_t>> freeCpIndices_;
    std::vector<std::deque<CpWaiter>> cpWaiters_;

    std::vector<nvmc::Nvmc*> nvmcs_;

    NvdimmcBackendStats stats_;
};

} // namespace nvdimmc::backend

#endif // NVDIMMC_BACKEND_NVDIMMC_BACKEND_HH
