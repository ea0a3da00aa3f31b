/**
 * @file
 * Page-mapped logical-to-physical table for the FTL, with the reverse
 * map needed by garbage collection.
 */

#ifndef NVDIMMC_FTL_MAPPING_TABLE_HH
#define NVDIMMC_FTL_MAPPING_TABLE_HH

#include <cstdint>
#include <unordered_map>
#include <vector>

#include "common/logging.hh"
#include "common/serialize.hh"

namespace nvdimmc::ftl
{

/** Sentinel physical page meaning "never written". */
constexpr std::uint64_t kUnmapped = ~std::uint64_t{0};

/**
 * L2P / P2L mapping at 4 KB page granularity.
 *
 * The L2P keeps one 32-bit entry per lpn, up to the highest lpn
 * mapped: building the table writes none of it, and a run pays only
 * for the range it has mapped.
 */
class MappingTable
{
  public:
    /** @p logical_pages bounds the lpns mapped and @p physical_pages
     *  the ppns they map to. The L2P reserves the logical range as
     *  address space only, so it grows in place. */
    MappingTable(std::uint64_t logical_pages,
                 std::uint64_t physical_pages)
        : logicalPages_(logical_pages), physicalPages_(physical_pages)
    {
        NVDC_ASSERT(physical_pages <= kNone, "a 32-bit L2P entry "
                    "cannot name every one of ", physical_pages,
                    " physical pages");
        l2p_.reserve(logical_pages);
    }

    std::uint64_t logicalPages() const { return logicalPages_; }

    /** Physical page for @p lpn, or kUnmapped. */
    std::uint64_t
    lookup(std::uint64_t lpn) const
    {
        if (lpn >= l2p_.size() || l2p_[lpn] == kNone)
            return kUnmapped;
        return l2p_[lpn];
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
        if (lpn >= l2p_.size())
            l2p_.resize(lpn + 1, kNone);
        l2p_[lpn] = static_cast<std::uint32_t>(ppn);
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

    /** @name Checkpointing (fault campaigns). The stream holds one
     *  u64 per logical page, kUnmapped where none is mapped, however
     *  far the L2P has grown. The reverse map is rebuilt on load. */
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
            l2p_.resize(lpn + 1, kNone);
            l2p_[lpn] = static_cast<std::uint32_t>(ppn);
            p2l_[ppn] = lpn;
        }
    }
    /** @} */

  private:
    /** L2P entry of an lpn that maps nowhere. */
    static constexpr std::uint32_t kNone = ~std::uint32_t{0};

    std::uint64_t logicalPages_;
    std::uint64_t physicalPages_;
    /** Entry lpn: its physical page, or kNone. Grown on demand to
     *  the highest lpn mapped; lookups never grow it. */
    std::vector<std::uint32_t> l2p_;
    std::unordered_map<std::uint64_t, std::uint64_t> p2l_;
};

} // namespace nvdimmc::ftl

#endif // NVDIMMC_FTL_MAPPING_TABLE_HH
