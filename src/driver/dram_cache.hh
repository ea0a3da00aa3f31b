/**
 * @file
 * Fully associative DRAM cache bookkeeping (paper §IV-B): 4 KB slots,
 * any page in any slot, pluggable replacement policy. This is pure
 * state — the timing (CP commands, windows, NAND) lives in the
 * NvdcDriver — so the hit-rate study (§VII-B5) can replay traces
 * through it directly.
 *
 * The page -> slot directory is also the DAX page table (paper Fig 6):
 * a PTE is valid exactly while its page sits in a Stable slot, so the
 * directory holds an entry for a page only then. It is indexed by page
 * in sparse leaves, over a range bounded at construction: the driver
 * keys each module's cache by module-local page.
 */

#ifndef NVDIMMC_DRIVER_DRAM_CACHE_HH
#define NVDIMMC_DRIVER_DRAM_CACHE_HH

#include <cstdint>
#include <memory>
#include <optional>
#include <vector>

#include "common/sparse_store.hh"
#include "common/stats.hh"
#include "driver/replacement_policy.hh"

namespace nvdimmc::driver
{

/** Per-slot state. */
struct CacheSlot
{
    enum class State : std::uint8_t { Free, Stable, Busy };

    /** Page held: the key the cache was given (the driver gives it
     *  module-local NAND pages). */
    std::uint64_t page = 0;
    State state = State::Free;
    bool dirty = false;
};

/** Cache statistics. */
struct DramCacheStats
{
    Counter hits;
    Counter misses;
    Counter installs;
    Counter cleanEvictions;
    Counter dirtyEvictions;

    double
    hitRate() const
    {
        auto total = hits.value() + misses.value();
        return total ? static_cast<double>(hits.value()) /
                           static_cast<double>(total)
                     : 0.0;
    }
};

/** The cache directory. */
class DramCache
{
  public:
    /** @p page_count bounds the pages the cache may be given. The
     *  directory holds leaves only for the pages that have been held,
     *  not for the whole range. */
    DramCache(std::uint32_t slot_count, std::uint64_t page_count,
              std::unique_ptr<ReplacementPolicy> policy);

    std::uint32_t slotCount() const { return slotCount_; }
    std::uint32_t usedSlots() const
    {
        return nextFresh_ - static_cast<std::uint32_t>(freed_.size());
    }
    bool hasFree() const
    {
        return !freed_.empty() || nextFresh_ < slotCount_;
    }

    /**
     * Look up @p page; counts a hit/miss and (on hit) touches the
     * replacement policy. Only Stable slots hit.
     */
    std::optional<std::uint32_t> lookup(std::uint64_t page);

    /** Look without counting or touching (the driver's PTE walk). */
    std::optional<std::uint32_t>
    peek(std::uint64_t page) const
    {
        std::uint32_t e = pageToSlot_.get(page);
        if (e == 0)
            return std::nullopt;
        return e - 1;
    }

    /** Take a free slot and bind it to @p page (state Busy until the
     *  fill completes). @p page must be below the page count. Slots
     *  freed by finishEvict come first, the most recently freed
     *  first; then never-used slots, in ascending order. */
    std::uint32_t allocate(std::uint64_t page);

    /** Choose an evictable (Stable) victim via the policy. */
    std::uint32_t pickVictim();

    /**
     * Choose an evictable *clean* victim, or nullopt if none exists.
     * Used by the prefetcher, which must never trigger writebacks.
     */
    std::optional<std::uint32_t> pickCleanVictim();

    /** Begin evicting @p slot: drops its page from the directory,
     *  marks Busy. @return the evicted slot's prior contents. */
    CacheSlot beginEvict(std::uint32_t slot);

    /** Finish an eviction: the slot becomes Free. */
    void finishEvict(std::uint32_t slot);

    /**
     * Rebind a slot mid-eviction to a new page (the evict/fill pair
     * reuses the same slot, as the paper's driver does). Slot stays
     * Busy until finishFill(). @p page must be below the page count.
     */
    void rebind(std::uint32_t slot, std::uint64_t page);

    /** Fill finished: slot becomes Stable (hit-able) and enters the
     *  directory. */
    void finishFill(std::uint32_t slot);

    void markDirty(std::uint32_t slot);
    void markClean(std::uint32_t slot);

    /**
     * Pin a slot while an access is in flight: a pinned slot is never
     * chosen as a victim (the kernel analogue is that eviction's TLB
     * shootdown waits for accesses through existing mappings).
     */
    void pin(std::uint32_t slot) { pinnedSlots_.push_back(slot); }
    /** Release one pin of @p slot; panics if it holds none. */
    void unpin(std::uint32_t slot);
    bool pinned(std::uint32_t slot) const;

    const CacheSlot& slot(std::uint32_t s) const { return slots_[s]; }
    /** Bytes of directory leaves currently allocated (for tests). */
    std::uint64_t directoryBytes() const
    {
        return pageToSlot_.allocatedBytes();
    }
    const DramCacheStats& stats() const { return stats_; }
    const ReplacementPolicy& policy() const { return *policy_; }

    /** Register live counters + derived hit_rate / occupancy under
     *  @p prefix (e.g. "cache.hit_rate"). */
    void registerStats(StatRegistry& reg,
                       const std::string& prefix) const;

  private:
    std::uint32_t slotCount_;
    std::uint64_t pageCount_;
    std::unique_ptr<ReplacementPolicy> policy_;
    std::vector<CacheSlot> slots_;
    /** One entry per pin, a multiset of slots: it is as long as the
     *  accesses in flight (a few hundred at most), so a hit pins
     *  without touching any per-slot array. */
    std::vector<std::uint32_t> pinnedSlots_;
    /** Number of Stable slots (== entries the policy knows about). */
    std::uint32_t stableCount_ = 0;
    /** Slots [nextFresh_, slotCount_) have never been allocated. */
    std::uint32_t nextFresh_ = 0;
    /** Slots finishEvict freed, most recent last. */
    std::vector<std::uint32_t> freed_;
    /** Entry p: the Stable slot holding page p, plus one, or 0 where
     *  none does, so a fresh leaf needs no fill. Lookups never make a
     *  leaf. */
    SparseStore<std::uint32_t> pageToSlot_{kTableLeafLen};
    DramCacheStats stats_;
};

} // namespace nvdimmc::driver

#endif // NVDIMMC_DRIVER_DRAM_CACHE_HH
