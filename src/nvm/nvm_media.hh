/**
 * @file
 * Non-volatile media interfaces.
 *
 * Two layers:
 *  - NvmMedia: raw media with byte-range access semantics and a
 *    device-specific timing model (Z-NAND additionally exposes
 *    page/block NAND operations).
 *  - PageBackend: the 4 KB logical page store the NVMC firmware talks
 *    to. For NAND it is the FTL; for byte-addressable media it is a
 *    DirectBackend; the paper's hypothetical device uses DelayMedia.
 */

#ifndef NVDIMMC_NVM_NVM_MEDIA_HH
#define NVDIMMC_NVM_NVM_MEDIA_HH

#include <cstdint>
#include <functional>
#include <string>

#include "common/event_queue.hh"
#include "common/span.hh"
#include "common/sparse_store.hh"
#include "common/stats.hh"
#include "common/types.hh"

namespace nvdimmc::nvm
{

using Callback = std::function<void()>;

/** Common statistics for any media. */
struct MediaStats
{
    Counter reads;
    Counter writes;
    Histogram readLatency;
    Histogram writeLatency;
};

/**
 * Byte-range addressable non-volatile media with asynchronous access.
 *
 * Contents are stored sparsely at 4 KB granularity so integrity checks
 * are real without reserving the full device capacity in host memory.
 */
class NvmMedia
{
  public:
    NvmMedia(EventQueue& eq, std::string name, std::uint64_t capacity);
    virtual ~NvmMedia() = default;

    const std::string& name() const { return name_; }
    std::uint64_t capacity() const { return capacity_; }
    EventQueue& eq() { return eq_; }

    /**
     * Read @p len bytes at @p addr into @p buf (nullable = timing
     * only); @p done fires at media-completion time.
     */
    void readRange(Addr addr, std::uint32_t len, std::uint8_t* buf,
                   Callback done);

    /** Write @p len bytes at @p addr; see readRange for semantics. */
    void writeRange(Addr addr, std::uint32_t len,
                    const std::uint8_t* data, Callback done);

    const MediaStats& stats() const { return stats_; }

  protected:
    /** Media-specific service time for a read/write of @p len bytes. */
    virtual Tick readServiceTime(Addr addr, std::uint32_t len) = 0;
    virtual Tick writeServiceTime(Addr addr, std::uint32_t len) = 0;

    /** @name Sparse backing store helpers. */
    /** @{ */
    void storeBytes(Addr addr, std::uint32_t len,
                    const std::uint8_t* data);
    void loadBytes(Addr addr, std::uint32_t len,
                   std::uint8_t* buf) const;
    /** @} */

    EventQueue& eq_;
    MediaStats stats_;

  private:
    static constexpr std::uint32_t kChunk = 4096;

    std::string name_;
    std::uint64_t capacity_;
    /** Contents in kChunk leaves, indexed by media address. */
    SparseStore<std::uint8_t> chunks_{kChunk};
};

/**
 * Byte-addressable media described by a simple latency + bandwidth
 * model with limited internal parallelism, used for the PRAM and
 * STT-MRAM backends the paper positions as the media that make
 * NVDIMM-C balanced (§VII-D).
 */
class SimpleMedia : public NvmMedia
{
  public:
    struct Params
    {
        Tick readLatency = 150 * kNs;  ///< First-byte read latency.
        Tick writeLatency = 500 * kNs; ///< First-byte write latency.
        double bandwidthMBps = 2000.0; ///< Streaming bandwidth.
    };

    SimpleMedia(EventQueue& eq, std::string name,
                std::uint64_t capacity, const Params& p);

    const Params& params() const { return params_; }

  protected:
    Tick readServiceTime(Addr addr, std::uint32_t len) override;
    Tick writeServiceTime(Addr addr, std::uint32_t len) override;

  private:
    Tick transferTime(std::uint32_t len) const;

    Params params_;
    /** Media is internally pipelined; track when it frees up. */
    Tick busyUntil_ = 0;
};

/**
 * The firmware-facing 4 KB logical page store.
 */
class PageBackend
{
  public:
    virtual ~PageBackend() = default;

    static constexpr std::uint32_t kPageBytes = 4096;

    virtual std::uint64_t pageCount() const = 0;

    /** @p span (optional, 0 = none) is the host request span riding
     *  this page op; backends stamp its NandRead/NandProgram phase at
     *  media-completion time. */
    virtual void readPage(std::uint64_t page_no, std::uint8_t* buf,
                          Callback done, span::Id span = 0) = 0;
    virtual void writePage(std::uint64_t page_no,
                           const std::uint8_t* data, Callback done,
                           span::Id span = 0) = 0;
};

/** PageBackend over any byte-addressable NvmMedia (no FTL needed). */
class DirectBackend : public PageBackend
{
  public:
    explicit DirectBackend(NvmMedia& media) : media_(media) {}

    std::uint64_t pageCount() const override
    {
        return media_.capacity() / kPageBytes;
    }

    void readPage(std::uint64_t page_no, std::uint8_t* buf,
                  Callback done, span::Id span = 0) override
    {
        if (span != 0) {
            // Byte-addressable media has no FTL/NAND split; the whole
            // media access lands in the NandRead phase.
            done = [&eq = media_.eq(), span,
                    cb = std::move(done)]() mutable {
                span::phase(span, span::Phase::NandRead, eq.now());
                cb();
            };
        }
        media_.readRange(page_no * kPageBytes, kPageBytes, buf,
                         std::move(done));
    }

    void writePage(std::uint64_t page_no, const std::uint8_t* data,
                   Callback done, span::Id span = 0) override
    {
        if (span != 0) {
            done = [&eq = media_.eq(), span,
                    cb = std::move(done)]() mutable {
                span::phase(span, span::Phase::NandProgram, eq.now());
                cb();
            };
        }
        media_.writeRange(page_no * kPageBytes, kPageBytes, data,
                          std::move(done));
    }

  private:
    NvmMedia& media_;
};

} // namespace nvdimmc::nvm

#endif // NVDIMMC_NVM_NVM_MEDIA_HH
