/**
 * @file
 * Page-mapped logical-to-physical table for the FTL, with the reverse
 * map needed by garbage collection.
 */

#ifndef NVDIMMC_FTL_MAPPING_TABLE_HH
#define NVDIMMC_FTL_MAPPING_TABLE_HH

#include <cstdint>
#include <unordered_map>

#include "common/logging.hh"
#include "common/serialize.hh"
#include "common/sparse_store.hh"

namespace nvdimmc::ftl
{

/** Sentinel physical page meaning "never written". */
constexpr std::uint64_t kUnmapped = ~std::uint64_t{0};

/**
 * L2P / P2L mapping at 4 KB page granularity.
 *
 * The L2P keeps one 32-bit entry per lpn in sparse leaves: building
 * the table writes none of it, and a run pays for the leaves holding
 * the lpns it has mapped, not for the range up to the highest one.
 */
class MappingTable
{
  public:
    /** @p logical_pages bounds the lpns mapped and @p physical_pages
     *  the ppns they map to. */
    MappingTable(std::uint64_t logical_pages,
                 std::uint64_t physical_pages)
        : logicalPages_(logical_pages), physicalPages_(physical_pages)
    {
        NVDC_ASSERT(physical_pages <= ~std::uint32_t{0}, "a 32-bit L2P "
                    "entry cannot name every one of ", physical_pages,
                    " physical pages");
    }

    std::uint64_t logicalPages() const { return logicalPages_; }

    /** Physical page for @p lpn, or kUnmapped. */
    std::uint64_t
    lookup(std::uint64_t lpn) const
    {
        std::uint32_t e = l2p_.get(lpn);
        return e == 0 ? kUnmapped : e - 1;
    }

    /**
     * Map @p lpn to @p ppn.
     * @return the previous physical page (kUnmapped if none) so the
     *         caller can invalidate it.
     */
    std::uint64_t
    map(std::uint64_t lpn, std::uint64_t ppn)
    {
        NVDC_ASSERT(lpn < logicalPages_, "lpn ", lpn,
                    " is outside the ", logicalPages_, " logical pages");
        NVDC_ASSERT(ppn < physicalPages_, "ppn ", ppn,
                    " is outside the ", physicalPages_,
                    " physical pages");
        std::uint64_t old = lookup(lpn);
        l2p_.at(lpn) = static_cast<std::uint32_t>(ppn + 1);
        if (old != kUnmapped)
            p2l_.erase(old);
        p2l_[ppn] = lpn;
        return old;
    }

    /** Logical owner of a physical page, or kUnmapped if stale/free. */
    std::uint64_t
    reverseLookup(std::uint64_t ppn) const
    {
        auto it = p2l_.find(ppn);
        return it == p2l_.end() ? kUnmapped : it->second;
    }

    /** Number of live mappings. */
    std::uint64_t mappedCount() const { return p2l_.size(); }

    /** Bytes of L2P leaves currently allocated (for tests). */
    std::uint64_t l2pBytes() const { return l2p_.allocatedBytes(); }

    /** @name Checkpointing (fault campaigns). The stream holds one
     *  u64 per logical page, kUnmapped where none is mapped, whichever
     *  leaves the L2P holds. The reverse map is rebuilt on load. */
    /** @{ */
    void
    saveState(ByteWriter& w) const
    {
        w.tag(0x3150324c); // "L2P1"
        w.u64(logicalPages_);
        for (std::uint64_t lpn = 0; lpn < logicalPages_; ++lpn)
            w.u64(lookup(lpn));
    }

    void
    loadState(ByteReader& r)
    {
        r.expectTag(0x3150324c);
        std::uint64_t n = r.u64();
        if (n != logicalPages_) {
            fatal("MappingTable checkpoint size mismatch: saved ", n,
                  " logical pages, table has ", logicalPages_);
        }
        l2p_.clear();
        p2l_.clear();
        for (std::uint64_t lpn = 0; lpn < n; ++lpn) {
            std::uint64_t ppn = r.u64();
            if (ppn == kUnmapped)
                continue;
            if (ppn >= physicalPages_) {
                fatal("MappingTable checkpoint maps lpn ", lpn,
                      " to ppn ", ppn, ", past the ", physicalPages_,
                      " physical pages");
            }
            l2p_.at(lpn) = static_cast<std::uint32_t>(ppn + 1);
            p2l_[ppn] = lpn;
        }
    }
    /** @} */

  private:
    std::uint64_t logicalPages_;
    std::uint64_t physicalPages_;
    /** Entry lpn: its physical page + 1, or 0 where it maps nowhere,
     *  so a fresh leaf needs no fill. Lookups never make a leaf. */
    SparseStore<std::uint32_t> l2p_{kTableLeafLen};
    std::unordered_map<std::uint64_t, std::uint64_t> p2l_;
};

} // namespace nvdimmc::ftl

#endif // NVDIMMC_FTL_MAPPING_TABLE_HH
