/**
 * @file
 * Host memory port: routes CPU line/bulk traffic across the channel
 * topology.
 *
 * The CPU-side components (cache model, memcpy engine) address one
 * flat interleaved physical space; the port translates each 64 B line
 * to its owning channel's iMC via the ChannelInterleave map and splits
 * bulk transfers into per-channel pieces. With one channel every call
 * forwards straight to the single iMC — same call sequence, same
 * ticks — which keeps channels=1 byte-identical to the pre-topology
 * simulator.
 */

#ifndef NVDIMMC_IMC_HOST_PORT_HH
#define NVDIMMC_IMC_HOST_PORT_HH

#include <cstdint>
#include <vector>

#include "dram/channel_interleave.hh"
#include "imc/imc.hh"

namespace nvdimmc::imc
{

/** Interleave-aware front-end over the per-channel iMCs. */
class HostPort
{
  public:
    /** Multi-channel port over @p imcs (one per channel, in channel
     *  order), routed by @p interleave. */
    HostPort(std::vector<Imc*> imcs,
             const dram::ChannelInterleave& interleave);

    /** Single-channel convenience: identity routing to @p imc. */
    explicit HostPort(Imc& imc);

    std::uint32_t channels() const
    {
        return static_cast<std::uint32_t>(imcs_.size());
    }
    const dram::ChannelInterleave& interleave() const
    {
        return interleave_;
    }
    Imc& imc(std::uint32_t channel) { return *imcs_[channel]; }
    const Imc& imc(std::uint32_t channel) const
    {
        return *imcs_[channel];
    }

    /** Owning channel of a flat line address. */
    std::uint32_t channelOf(Addr flat) const
    {
        return interleave_.route(flat).channel;
    }

    /** Enqueue a 64 B line read on the owning channel.
     *  @return false if that channel's read queue is full. */
    bool readLine(Addr flat, std::uint8_t* buf, Callback done);

    /** Post a 64 B line write on the owning channel.
     *  @return false if that channel's WPQ is full. */
    bool writeLine(Addr flat, const std::uint8_t* data, Callback done);

    /** Park @p retry on the channel owning @p flat (the channel that
     *  just rejected the caller's line) until @p queue has room; see
     *  Imc::whenSpace. */
    void whenSpace(Addr flat, SpaceFor queue, Callback retry);

    /**
     * Analytic bulk transfer of [flat, flat+bytes): byte counts are
     * split per owning channel at interleave granules and each slice
     * runs on its channel's iMC concurrently; @p done fires when the
     * slowest slice completes. One channel, or a transfer inside one
     * granule, is one iMC call.
     */
    void bulkTransfer(Addr flat, std::uint32_t bytes, bool is_write,
                      Callback done);

  private:
    std::vector<Imc*> imcs_;
    dram::ChannelInterleave interleave_;
};

} // namespace nvdimmc::imc

#endif // NVDIMMC_IMC_HOST_PORT_HH
