/**
 * @file
 * The media-transport backend seam.
 *
 * Everything the nvdc driver assumes about the device behind the DRAM
 * cache is captured here: how a miss fill / victim writeback is
 * requested (submit), that its completion means the data is durable,
 * what interleave granule the host-visible address space uses, and
 * what the device can save on a power failure (powerFailFlush). The
 * driver's fault path composes a TransportOp and hands it to whichever
 * backend the system wired in:
 *
 *  - NvdimmcBackend: the paper's CP-page-over-DDR4 protocol — command
 *    line store+clflush, firmware polls inside refresh windows, DMA
 *    moves the page, ack line polled back. Slots are 4 KiB and must
 *    live in their own module's DRAM, so the interleave granule is
 *    pinned to the page size.
 *  - CxlHybridBackend: a CMM-H-style hybrid device behind a modeled
 *    CXL.mem link — no refresh-window constraint, its own
 *    request/response latency and outstanding-request credit pools,
 *    with the same FTL/Z-NAND media stack behind the seam. Fine
 *    (256 B) interleave is allowed because the device-side copy
 *    engine, not host DMA windows, moves slot data.
 *
 * BackendKind::Pmem, the emulated-pmem baseline, has no cache and so
 * no transport: NvdimmcSystem builds it with the pmem driver in place
 * of a MediaBackend and the nvdc driver.
 *
 * Ops carry module-LOCAL nand pages and slot indices, exactly like CP
 * commands do; channel routing stays the driver's job.
 */

#ifndef NVDIMMC_BACKEND_MEDIA_BACKEND_HH
#define NVDIMMC_BACKEND_MEDIA_BACKEND_HH

#include <cstddef>
#include <cstdint>
#include <functional>
#include <string>

#include "common/span.hh"
#include "common/types.hh"

namespace nvdimmc
{

class StatRegistry;

namespace backend
{

using Callback = std::function<void()>;

/** Which transport sits between the DRAM cache and the NVM media. */
enum class BackendKind : std::uint8_t
{
    Nvdimmc = 0,  ///< CP page over DDR4, DMA in refresh windows.
    CxlHybrid = 1, ///< DRAM cache + NAND behind a CXL.mem link.
    Pmem = 2,      ///< Emulated-pmem baseline (no cache, no media).
};

const char* toString(BackendKind kind);

/** A miss-path transport operation (the CP opcode set, generalized). */
struct TransportOp
{
    enum class Kind : std::uint8_t
    {
        Cachefill = 0,          ///< NVM page -> DRAM slot.
        Writeback = 1,          ///< DRAM slot -> NVM page.
        WritebackCachefill = 2, ///< Merged eviction + fill pair.
    };

    Kind kind = Kind::Cachefill;
    std::uint32_t dramSlot = 0;  ///< Victim / fill slot.
    std::uint64_t nandPage = 0;  ///< Module-local NVM page.
    /** Merged-op second pair (the fill half). */
    std::uint32_t dramSlot2 = 0;
    std::uint64_t nandPage2 = 0;
    span::Id span = 0;
};

/** Static properties the host stack keys decisions on. */
struct BackendTraits
{
    BackendKind kind = BackendKind::Nvdimmc;
    /** Channel-interleave granule of the host-visible address space.
     *  NVDIMM-C pins it to 4 KiB (a cache slot must live in its own
     *  module's DRAM for window DMA); CXL stripes at 256 B. */
    std::uint32_t interleaveGranule = 4096;
};

/**
 * The transport seam the driver talks through. One instance serves
 * every channel (ops carry the channel index), mirroring the one
 * driver instance fronting N modules.
 */
class MediaBackend
{
  public:
    virtual ~MediaBackend() = default;

    virtual const BackendTraits& traits() const = 0;

    /**
     * Submit one transport op for @p channel. @p done fires on the
     * host side when the op completes, and a completed op's payload is
     * power-fail safe (the device captured it into a PLP-backed
     * buffer). Merged ops complete once, after both halves.
     */
    virtual void submit(std::uint32_t channel, const TransportOp& op,
                        Callback done) = 0;

    /**
     * Post-mortem power-fail flush for @p channel: save what the
     * device's energy reserve covers, straight into the media store
     * (simulated time does not advance). Returns pages committed.
     */
    virtual std::size_t powerFailFlush(std::uint32_t channel) = 0;

    /** Register backend counters under @p prefix. */
    virtual void registerStats(StatRegistry& reg,
                               const std::string& prefix) const = 0;

    /**
     * Transport ops currently in flight or queued for a transport
     * resource, summed over channels — CP command slots in use plus
     * waiters for the NVDIMM-C protocol, link credits in use plus
     * credit waiters for CXL.mem. A telemetry gauge (DESIGN §9);
     * backends without a bounded transport report 0.
     */
    virtual std::uint64_t queueDepth() const { return 0; }
};

} // namespace backend
} // namespace nvdimmc

#endif // NVDIMMC_BACKEND_MEDIA_BACKEND_HH
