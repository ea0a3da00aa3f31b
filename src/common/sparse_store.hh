/**
 * @file
 * A sparse array of fixed-length leaves: host memory follows the
 * leaves a run writes, not the range it may address.
 *
 * The simulator declares devices far larger than a run touches (a
 * module's NAND, a DRAM cache's page directory, the FTL's L2P). Each
 * keeps its contents here instead of in a hash map of vectors or a
 * vector sized by the highest index touched:
 *  - a leaf is made on its first write, carved from a large slab and
 *    zeroed; slab space no leaf has used yet is never written, so it
 *    stays unresident;
 *  - a two-level index by leaf number finds each leaf, so lookups
 *    neither hash nor divide, and reading a leaf never written yields
 *    zero without allocating anything;
 *  - drop() hands a leaf back for reuse (NAND erase);
 *  - forEachLeaf() visits leaves in index order (checkpoints).
 *
 * Tables store their entries so that zero means "none" (value + 1),
 * since a fresh leaf then needs no fill. Each store is a member of its
 * component, never static, since sweep points run whole systems on
 * parallel threads.
 */

#ifndef NVDIMMC_COMMON_SPARSE_STORE_HH
#define NVDIMMC_COMMON_SPARSE_STORE_HH

#include <algorithm>
#include <bit>
#include <cstddef>
#include <cstdint>
#include <cstring>
#include <memory>
#include <type_traits>
#include <vector>

#include "common/logging.hh"

namespace nvdimmc
{

/** Leaf length of a table of 32-bit entries (the L2P, a page
 *  directory): 256 B, so a scattered run holds one small leaf per
 *  entry it writes instead of the whole range. */
inline constexpr std::size_t kTableLeafLen = 64;

/** Sparse array of @p T in leaves of a fixed power-of-two length. */
template <typename T>
class SparseStore
{
    static_assert(std::is_trivially_copyable_v<T>,
                  "leaves are zeroed and copied as bytes");

  public:
    /** Leaves of @p leaf_len elements, a power of two. */
    explicit SparseStore(std::size_t leaf_len)
        : leafLen_(leaf_len),
          leafShift_(static_cast<unsigned>(std::countr_zero(leaf_len)))
    {
        NVDC_ASSERT(std::has_single_bit(leaf_len), "leaf length ",
                    leaf_len, " is not a power of two");
        slabLeaves_ =
            std::max<std::size_t>(1, kSlabBytes / (leaf_len * sizeof(T)));
    }

    std::size_t leafLen() const { return leafLen_; }
    /** Leaves currently held. */
    std::uint64_t leafCount() const { return leafCount_; }
    /** Bytes of the leaves currently held. */
    std::uint64_t
    allocatedBytes() const
    {
        return leafCount_ * leafLen_ * sizeof(T);
    }

    /** Leaf @p n, or nullptr if it was never written (or dropped). */
    const T*
    leaf(std::uint64_t n) const
    {
        const std::uint64_t t = n >> kMidBits;
        if (t >= top_.size() || !top_[t])
            return nullptr;
        return top_[t][n & kMidMask];
    }

    /** Leaf @p n for writing, made (all zero) if absent. */
    T*
    touch(std::uint64_t n)
    {
        const std::uint64_t t = n >> kMidBits;
        if (t >= top_.size())
            top_.resize(t + 1);
        if (!top_[t])
            top_[t] = std::make_unique<T*[]>(kMidLen);
        T*& slot = top_[t][n & kMidMask];
        if (!slot) {
            slot = carve();
            ++leafCount_;
        }
        return slot;
    }

    /** Give leaf @p n back: it reads zero again. No-op if absent. */
    void
    drop(std::uint64_t n)
    {
        const std::uint64_t t = n >> kMidBits;
        if (t >= top_.size() || !top_[t])
            return;
        T*& slot = top_[t][n & kMidMask];
        if (!slot)
            return;
        free_.push_back(slot);
        slot = nullptr;
        --leafCount_;
    }

    /** Drop every leaf and the memory behind them. */
    void
    clear()
    {
        top_.clear();
        slabs_.clear();
        free_.clear();
        slabLeft_ = 0;
        leafCount_ = 0;
    }

    /** Element @p i; zero where no leaf holds it. */
    T
    get(std::uint64_t i) const
    {
        const T* l = leaf(i >> leafShift_);
        return l ? l[i & (leafLen_ - 1)] : T{};
    }

    /** Element @p i for writing; touches its leaf. */
    T&
    at(std::uint64_t i)
    {
        return touch(i >> leafShift_)[i & (leafLen_ - 1)];
    }

    /** Copy @p n elements from element @p i on into @p dst, across
     *  leaves; zero where no leaf holds them. */
    void
    read(std::uint64_t i, T* dst, std::size_t n) const
    {
        while (n > 0) {
            const std::size_t off = i & (leafLen_ - 1);
            const std::size_t k = std::min(n, leafLen_ - off);
            if (const T* l = leaf(i >> leafShift_))
                std::memcpy(dst, l + off, k * sizeof(T));
            else
                std::memset(dst, 0, k * sizeof(T));
            i += k;
            dst += k;
            n -= k;
        }
    }

    /** Copy @p n elements from @p src to element @p i on, across
     *  leaves, touching each. */
    void
    write(std::uint64_t i, const T* src, std::size_t n)
    {
        while (n > 0) {
            const std::size_t off = i & (leafLen_ - 1);
            const std::size_t k = std::min(n, leafLen_ - off);
            std::memcpy(touch(i >> leafShift_) + off, src,
                        k * sizeof(T));
            i += k;
            src += k;
            n -= k;
        }
    }

    /** Call @p f(n, leaf) for each leaf held, in ascending @p n. */
    template <typename F>
    void
    forEachLeaf(F&& f) const
    {
        for (std::uint64_t t = 0; t < top_.size(); ++t) {
            if (!top_[t])
                continue;
            for (std::uint64_t j = 0; j < kMidLen; ++j) {
                if (const T* l = top_[t][j])
                    f((t << kMidBits) | j, l);
            }
        }
    }

  private:
    /** A mid table maps 512 consecutive leaf numbers (4 KB). */
    static constexpr unsigned kMidBits = 9;
    static constexpr std::uint64_t kMidLen = std::uint64_t{1} << kMidBits;
    static constexpr std::uint64_t kMidMask = kMidLen - 1;
    /** Leaves are carved from slabs of about this size. */
    static constexpr std::size_t kSlabBytes = std::size_t{256} << 10;

    /** A zeroed leaf: a dropped one, else the next of the slab. */
    T*
    carve()
    {
        T* l;
        if (!free_.empty()) {
            l = free_.back();
            free_.pop_back();
        } else {
            if (slabLeft_ == 0) {
                // Uninitialized: a leaf's pages become resident only
                // when it is carved and zeroed below.
                slabs_.push_back(std::make_unique_for_overwrite<T[]>(
                    slabLeaves_ * leafLen_));
                slabLeft_ = slabLeaves_;
            }
            l = slabs_.back().get() + (slabLeaves_ - slabLeft_) * leafLen_;
            --slabLeft_;
        }
        std::memset(l, 0, leafLen_ * sizeof(T));
        return l;
    }

    std::size_t leafLen_;
    unsigned leafShift_;
    std::size_t slabLeaves_;
    /** Mid table t (null until a leaf in it is made): entry j is leaf
     *  (t << kMidBits) | j, or null. Grows to the highest mid table a
     *  leaf was made in; lookups never grow it. */
    std::vector<std::unique_ptr<T*[]>> top_;
    std::vector<std::unique_ptr<T[]>> slabs_;
    /** Leaves of the last slab not carved yet. */
    std::size_t slabLeft_ = 0;
    /** Dropped leaves, reused before the slab. */
    std::vector<T*> free_;
    std::uint64_t leafCount_ = 0;
};

} // namespace nvdimmc

#endif // NVDIMMC_COMMON_SPARSE_STORE_HH
