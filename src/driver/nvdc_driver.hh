/**
 * @file
 * The nvdc device driver model (paper §IV-B/C, Fig 6).
 *
 * Exposes a 120 GB byte-addressable device backed by the NVM media,
 * fronted by the DRAM cache. Accesses to pages with valid PTEs go
 * straight to DRAM (plus the driver's mapping-management and
 * cache-coherence overheads the paper measures at 24-30%); faults take
 * the cachefill/writeback path over the CP area, serialized by the CP
 * queue depth (1 on the PoC) and a global driver lock — the two
 * resources that shape the paper's thread-scaling curves (Fig 9).
 *
 * Coherence discipline (paper §V-B): the driver clflushes a victim
 * slot's lines before requesting a writeback and invalidates a slot's
 * lines after a cachefill. Both steps can be disabled for failure
 * injection; the CPU cache model then serves stale data, as real
 * hardware would.
 *
 * Multi-channel topology: with N modules the device pages interleave
 * round-robin across channels (page p is owned by module p % N, at
 * module-local page p / N). Each channel has its own DRAM cache
 * slice, keyed by module-local page (its directory is that module's
 * page table), its own driver lock and its own CP command queue —
 * per-module resources in hardware, per-module locks in a production
 * driver — so independent channels fault and serve hits
 * concurrently. With N == 1 every routing function is the identity
 * and the driver behaves byte-identically to the single-channel
 * original.
 */

#ifndef NVDIMMC_DRIVER_NVDC_DRIVER_HH
#define NVDIMMC_DRIVER_NVDC_DRIVER_HH

#include <array>
#include <cstdint>
#include <functional>
#include <memory>
#include <string>
#include <unordered_map>
#include <vector>

#include "backend/media_backend.hh"
#include "common/event_queue.hh"
#include "common/record_pool.hh"
#include "common/sim_mutex.hh"
#include "common/span.hh"
#include "common/stats.hh"
#include "cpu/cache_model.hh"
#include "cpu/memcpy_engine.hh"
#include "dram/channel_interleave.hh"
#include "driver/dram_cache.hh"
#include "nvmc/cp_protocol.hh"

namespace nvdimmc::driver
{

using Callback = std::function<void()>;

/** Driver configuration; its timing constants are NvdcDriver's
 *  (DESIGN.md §6). */
struct NvdcDriverConfig
{
    /** Track dirtiness (the PoC does not: every eviction writes
     *  back). */
    bool trackDirty = false;
    /** Coherence discipline switches (failure injection). */
    bool flushBeforeWriteback = true;
    bool invalidateAfterFill = true;
    /** Merge writeback+cachefill into one CP command (ablation). */
    bool mergedWbCf = false;
    /** CP queue depth per channel (1 on the PoC): the system builds
     *  each module's reserved layout with this many command slots,
     *  and the CP transport and the firmware both use all of them. */
    std::uint32_t cpQueueDepth = 1;

    /** Sequential prefetch (paper §VII-C, ref [37]): on a fault that
     *  continues a sequential miss stream, enqueue background
     *  cachefills for the next NvdcDriver::kPrefetchDepth pages. Only
     *  pays off with cpQueueDepth > 1 (the PoC's depth-1 CP
     *  serializes everything). */
    bool prefetchEnabled = false;

    /** @name Hypothetical device mode (paper §VII-D1, Fig 12). */
    /** @{ */
    bool hypothetical = false;
    Tick hypotheticalTd = 0; ///< The programmable delay tD.
    /** @} */

    std::string policy = "lrc";
};

/** Driver statistics. */
struct NvdcDriverStats
{
    Counter readOps;
    Counter writeOps;
    Counter pageFaults;
    Counter cachefills;
    Counter writebacks;
    Counter mergedCommands;
    Counter prefetchesIssued;
    Counter prefetchHits; ///< Demand faults absorbed by a prefetch.
    Histogram hitLatency;   ///< Per-segment, PTE-valid path.
    Histogram faultLatency; ///< Per-segment, fault path.
};

/** The driver. */
class NvdcDriver
{
  public:
    static constexpr std::uint32_t kPageBytes = 4096;

    /** @name Hit path (DESIGN §6).
     * Costs have a fixed per-op part and a per-64B-line part: the
     * coherence instructions (clflush/sfence) and mapping-management
     * work scale with the bytes touched, which is why the paper's
     * driver overhead is ~25% at 4 KB yet tiny for 128 B accesses
     * (Fig 10). 4 KB totals: lock ~870 ns, read post ~240 ns, write
     * post ~680 ns. */
    /** @{ */
    static constexpr Tick kHitPreOverhead = 150 * kNs; ///< PTE walk.
    /** Continuation pages of a multi-page op skip the per-op entry
     *  and pay only a small per-page mapping touch (the paper's
     *  64 KB ops run at ~1.3 us per 4 KB page, below the 4 KB op
     *  cost). */
    static constexpr Tick kContinuationLockHold = 100 * kNs;
    static constexpr Tick kLockHold = 100 * kNs;   ///< Lock base cost.
    static constexpr Tick kLockPerLine = 10 * kNs; ///< Mapping mgmt.
    static constexpr Tick kHitPostCoherence = 50 * kNs; ///< Read post.
    static constexpr Tick kPostReadPerLine = 3 * kNs;
    /** Writes pay the full clflush/sfence persistence discipline. */
    static constexpr Tick kHitWriteCoherence = 100 * kNs; ///< Write post.
    static constexpr Tick kPostWritePerLine = 6 * kNs;
    /** @} */

    /** @name Fault path. */
    /** @{ */
    static constexpr Tick kFaultOverhead = 1500 * kNs; ///< Entry + slot.
    /** Filling a slot for a never-written block needs no NAND read:
     *  the driver just zeroes the slot (CPU stores). This is why the
     *  paper's file copy runs at SSD speed while free slots last
     *  (Fig 7). */
    static constexpr Tick kZeroFillCost = 900 * kNs;
    /** Pages a sequential-stream fault prefetches beyond itself. */
    static constexpr std::uint32_t kPrefetchDepth = 2;
    /** @} */

    /**
     * One reserved layout per module (in channel order) and the
     * *total* device size in 4 KB pages across all modules. Addresses
     * handed to the CPU layer are flat interleaved addresses
     * consistent with a ChannelInterleave over the same channel count
     * at the transport's interleave granule.
     *
     * @param transport the media-transport backend the fault path
     *        submits cachefills/writebacks through.
     */
    NvdcDriver(EventQueue& eq, cpu::CpuCacheModel& cache_model,
               cpu::MemcpyEngine& engine,
               std::vector<const nvmc::ReservedLayout*> layouts,
               std::uint64_t backend_pages_total,
               const NvdcDriverConfig& cfg,
               backend::MediaBackend& transport);

    /** Device capacity in bytes (the /dev/nvdc0 size). */
    std::uint64_t capacityBytes() const
    {
        return backendPages_ * kPageBytes;
    }

    /** @name Block-device style asynchronous access. */
    /** @{ */
    void read(Addr offset, std::uint32_t len, std::uint8_t* buf,
              Callback done);
    void write(Addr offset, std::uint32_t len, const std::uint8_t* data,
               Callback done);
    /** @} */

    /**
     * Declare a device range as holding data (e.g. after simulated
     * preconditioning): faults on it perform real cachefills instead
     * of the zero-fill fast path. The range must lie on the device.
     */
    void markEverWritten(std::uint64_t first_page, std::uint64_t pages);

    /**
     * The 64-byte in-DRAM metadata line covering @p slot of
     * @p channel's cache: one 16-byte entry per slot of its 4-slot
     * group, naming the slot's module-local NAND page (the page the
     * firmware's power-fail dump writes it to) with its valid and
     * dirty bits.
     */
    std::array<std::uint8_t, 64> metadataLine(std::uint32_t channel,
                                              std::uint32_t slot) const;

    /** @name Introspection (diagnostics / tests). */
    /** @{ */
    std::size_t pendingFillCount() const { return pendingFills_.size(); }
    std::size_t pendingWritebackCount() const
    {
        return pendingWritebacks_.size();
    }
    /** @} */

    /** @name Channel topology. */
    /** @{ */
    std::uint32_t channelCount() const { return channels_; }
    /** Owning channel of a device page (round-robin). */
    std::uint32_t channelOf(std::uint64_t page) const
    {
        return il_.pageChannel(page);
    }
    /** Module-local page of a device page on its owning channel: the
     *  key of that channel's cache and the NAND page of its CP
     *  commands. */
    std::uint64_t localPage(std::uint64_t page) const
    {
        return il_.localPage(page);
    }
    /** Channel @p channel's cache slice, keyed by module-local page
     *  (so its directory is the valid PTEs of that module's pages). */
    DramCache& cache(std::uint32_t channel) { return caches_[channel]; }
    const DramCache& cache(std::uint32_t channel) const
    {
        return caches_[channel];
    }
    const nvmc::ReservedLayout& layout(std::uint32_t channel) const
    {
        return layouts_[channel];
    }
    /** @} */

    /** Channel-0 cache (the only one on a single-channel system). */
    DramCache& cache() { return caches_[0]; }
    const DramCache& cache() const { return caches_[0]; }
    const NvdcDriverStats& stats() const { return stats_; }
    /** The media-transport backend the fault path goes through. */
    backend::MediaBackend& transport() { return transport_; }
    const backend::MediaBackend& transport() const { return transport_; }

    /** Register driver counters + hit/fault latency histograms under
     *  @p prefix, and the DRAM cache under @p prefix ".cache" (on a
     *  multi-channel driver: per-channel ".ch<i>.cache" blocks plus
     *  aggregate ".cache.hits/misses/hit_rate"). */
    void registerStats(StatRegistry& reg,
                       const std::string& prefix) const;
    const NvdcDriverConfig& config() const { return cfg_; }
    const nvmc::ReservedLayout& layout() const { return layouts_[0]; }

  private:
    struct Segment
    {
        std::uint64_t devPage;
        std::uint32_t pageOffset;
        std::uint32_t len;
        std::uint8_t* rbuf;
        const std::uint8_t* wdata;
        bool isWrite;
        bool firstInOp = true;
        Tick startedAt;
        Callback done;
        /** Request span for phase attribution (0 when disabled). All
         *  segments of a multi-page op share one span. */
        span::Id span = 0;
    };

    void access(Addr offset, std::uint32_t len, std::uint8_t* rbuf,
                const std::uint8_t* wdata, bool is_write,
                Callback done, bool first_in_op = true,
                span::Id span = 0);
    void accessContinue(Addr offset, std::uint32_t len,
                        std::uint8_t* rbuf, const std::uint8_t* wdata,
                        bool is_write, Callback done, span::Id span);
    void doSegment(std::shared_ptr<Segment> seg);
    void hitPath(std::shared_ptr<Segment> seg, std::uint32_t slot);
    void faultPath(std::shared_ptr<Segment> seg);
    void hypotheticalFault(std::shared_ptr<Segment> seg);
    /** Copy @p seg's bytes between its pinned @p slot and the
     *  caller's buffer, then unpin the slot and finish the segment as
     *  a fault if @p fault, else as a hit. */
    void segmentMemcpy(std::shared_ptr<Segment> seg, std::uint32_t slot,
                       bool fault);
    /** Issue copy @p c's next granule run (fine interleave), or finish
     *  the copy after its last. */
    void copyNextRun(std::uint32_t c);
    void copyDone(std::uint32_t c);
    void finishHit(std::shared_ptr<Segment> seg);
    void finishFault(std::shared_ptr<Segment> seg);
    Tick postCost(const Segment& seg) const;
    Tick lockCost(const Segment& seg) const;

    /** Flat interleaved address of a channel-local DRAM address. */
    Addr flatAddr(std::uint32_t channel, Addr local) const
    {
        return il_.flatten(channel, local);
    }

    /** Flush (or invalidate) every line of a slot, chained. Line
     *  addresses are composed channel-locally so they stay correct at
     *  any interleave granule. */
    void flushSlotLines(std::uint32_t channel, std::uint32_t slot,
                        Callback done);
    /** clflush chain @p c's next line, or complete it after the last. */
    void flushNextLine(std::uint32_t c);
    void invalidateSlotLines(std::uint32_t channel, std::uint32_t slot,
                             Callback done);

    /** Write the metadata line covering @p slot into DRAM. */
    void writeMetadata(std::uint32_t channel, std::uint32_t slot,
                       Callback done);

    /** Complete a pending fill and wake waiters. */
    void fillCompleted(std::uint64_t dev_page);

    /** Kick sequential prefetches after a demand fault on @p page. */
    void maybePrefetch(std::uint64_t page);
    /** Background fill of one page (no app segment attached). */
    void prefetchFill(std::uint64_t page);

    EventQueue& eq_;
    cpu::CpuCacheModel& cacheModel_;
    cpu::MemcpyEngine& engine_;
    std::vector<nvmc::ReservedLayout> layouts_;
    std::uint64_t backendPages_;
    NvdcDriverConfig cfg_;

    backend::MediaBackend& transport_;

    std::uint32_t channels_;
    /** Interleave at the transport's granule (4 KiB for NVDIMM-C —
     *  slots never stripe across modules; 256 B allowed for CXL). */
    dram::ChannelInterleave il_;

    /** One per channel, held by value so the PTE walk in every
     *  read/write reaches a directory one dependent load sooner. Sized
     *  once at construction: registered stats point into it. */
    std::vector<DramCache> caches_;
    std::vector<std::unique_ptr<SimMutex>> locks_;
    /** Blocks that have ever been written (or declared written via
     *  markEverWritten); reads of other blocks are zero-fills. */
    std::vector<bool> everWritten_;

    /** Pages whose fill is in flight -> waiters to retry. */
    std::unordered_map<std::uint64_t, std::vector<Callback>>
        pendingFills_;

    /** Last demand-faulted page (sequential-stream detector). */
    std::uint64_t lastFaultPage_ = ~std::uint64_t{0};

    /**
     * Pages whose *writeback* is in flight: a re-fault on such a page
     * must wait, or its cachefill would read the NAND before the new
     * data lands there.
     */
    std::unordered_map<std::uint64_t, std::vector<Callback>>
        pendingWritebacks_;

    void writebackCompleted(std::uint64_t dev_page);

    /** @name In-flight records (common/record_pool.hh): each
     *  continuation these steps hand the CPU layer carries only the
     *  record's index. */
    /** @{ */
    /** One slot's clflush chain. */
    struct FlushChain
    {
        std::uint32_t channel = 0;
        std::uint32_t slot = 0;
        std::uint32_t line = 0; ///< Next line to flush.
        Callback done;
    };
    RecordPool<FlushChain> flushChains_;

    /** One segment's copy between its slot and the caller's buffer. */
    struct SlotCopy
    {
        std::shared_ptr<Segment> seg;
        std::uint32_t slot = 0;
        std::uint32_t off = 0; ///< Next byte to copy (granule runs).
        bool fault = false;
    };
    RecordPool<SlotCopy> copies_;

    /** One metadata line's store and clflush. */
    struct MetadataWrite
    {
        Addr addr = 0;
        Callback done;
    };
    RecordPool<MetadataWrite> metadataWrites_;
    /** @} */

    NvdcDriverStats stats_;
};

} // namespace nvdimmc::driver

#endif // NVDIMMC_DRIVER_NVDC_DRIVER_HH
