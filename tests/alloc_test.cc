/**
 * @file
 * Heap-allocation guards on the driver's hot paths.
 *
 * This binary replaces the global operator new/delete with counting
 * versions, so it is its own executable: no other test runs under the
 * counting allocator. Each test warms a system up, then counts the
 * heap blocks a run of 4 KB ops at queue depth 1 allocates. In-flight
 * state on the uncached path (CP ack polls, clflush chains, CPU-cache
 * misses) and of detailed line-by-line copies lives in records its
 * component owns, the iMC queues requests in fixed slots, and bulk
 * copies go straight to one iMC, so a steady-state op allocates
 * little; the bounds catch a continuation that starts allocating per
 * poll, per line or per copy again.
 */

#include <gtest/gtest.h>

#include <cstdint>
#include <cstdlib>
#include <new>
#include <vector>

#include "core/system.hh"
#include "dram/dram_device.hh"
#include "driver/dram_cache.hh"
#include "ftl/mapping_table.hh"
#include "workload/mixedload.hh"

namespace
{

/** Blocks allocated through the global operator new since start. */
std::uint64_t gAllocations = 0;

void*
countedAlloc(std::size_t bytes)
{
    ++gAllocations;
    if (void* p = std::malloc(bytes ? bytes : 1))
        return p;
    throw std::bad_alloc();
}

void*
countedAlignedAlloc(std::size_t bytes, std::align_val_t align)
{
    ++gAllocations;
    auto a = static_cast<std::size_t>(align);
    std::size_t rounded = (bytes + a - 1) / a * a;
    if (void* p = std::aligned_alloc(a, rounded ? rounded : a))
        return p;
    throw std::bad_alloc();
}

} // namespace

void* operator new(std::size_t n) { return countedAlloc(n); }
void* operator new[](std::size_t n) { return countedAlloc(n); }
void* operator new(std::size_t n, std::align_val_t a)
{
    return countedAlignedAlloc(n, a);
}
void* operator new[](std::size_t n, std::align_val_t a)
{
    return countedAlignedAlloc(n, a);
}
void operator delete(void* p) noexcept { std::free(p); }
void operator delete[](void* p) noexcept { std::free(p); }
void operator delete(void* p, std::size_t) noexcept { std::free(p); }
void operator delete[](void* p, std::size_t) noexcept { std::free(p); }
void operator delete(void* p, std::align_val_t) noexcept { std::free(p); }
void operator delete[](void* p, std::align_val_t) noexcept { std::free(p); }
void operator delete(void* p, std::size_t, std::align_val_t) noexcept
{
    std::free(p);
}
void operator delete[](void* p, std::size_t, std::align_val_t) noexcept
{
    std::free(p);
}

namespace nvdimmc
{
namespace
{

constexpr std::uint32_t kPage = 4096;

/**
 * Closed loop of one thread: 4 KB ops alternating read and write,
 * one page after another from @p first_page, each issued when the
 * previous one completes. The completion captures only the loop, so
 * the loop itself allocates nothing per op.
 */
class QueueDepthOne
{
  public:
    QueueDepthOne(core::NvdimmcSystem& sys, std::uint64_t first_page)
        : sys_(sys), page_(first_page)
    {
    }

    /** Run @p ops ops to completion; false if the queue drained
     *  before they all completed. */
    bool
    run(std::uint32_t ops)
    {
        left_ = ops;
        issue();
        while (left_ > 0 && sys_.eq().runOne()) {
        }
        return left_ == 0;
    }

  private:
    void
    issue()
    {
        Addr off = page_++ * kPage;
        if (write_)
            sys_.driver().write(off, kPage, nullptr, [this] { done(); });
        else
            sys_.driver().read(off, kPage, nullptr, [this] { done(); });
        write_ = !write_;
    }

    void
    done()
    {
        if (--left_ > 0)
            issue();
    }

    core::NvdimmcSystem& sys_;
    std::uint64_t page_;
    std::uint32_t left_ = 0;
    bool write_ = false;
};

/**
 * Closed loop of one thread with real bytes: it writes a page's
 * record, reads the page back and validates it, then moves to the
 * next page, each op issued when the previous one completes.
 */
class ValidatingLoop
{
  public:
    explicit ValidatingLoop(core::NvdimmcSystem& sys)
        : sys_(sys), pattern_(kPage), buf_(kPage)
    {
    }

    /** Run @p ops ops to completion; false if the queue drained
     *  before they all completed. */
    bool
    run(std::uint32_t ops)
    {
        left_ = ops;
        issue();
        while (left_ > 0 && sys_.eq().runOne()) {
        }
        return left_ == 0;
    }

    std::uint64_t failures() const { return failures_; }

  private:
    void
    issue()
    {
        Addr off = page_ * kPage;
        if (write_) {
            pattern_.fill(buf_.data(), page_ + 1);
            sys_.driver().write(off, kPage, buf_.data(),
                                [this] { done(); });
        } else {
            sys_.driver().read(off, kPage, buf_.data(), [this] {
                failures_ += pattern_.check(buf_.data(), page_ + 1) ? 0 : 1;
                ++page_;
                done();
            });
        }
        write_ = !write_;
    }

    void
    done()
    {
        if (--left_ > 0)
            issue();
    }

    core::NvdimmcSystem& sys_;
    const workload::RecordPattern pattern_;
    std::vector<std::uint8_t> buf_;
    std::uint64_t page_ = 0;
    std::uint64_t failures_ = 0;
    std::uint32_t left_ = 0;
    bool write_ = true;
};

/** Heap blocks per op over @p ops ops of @p loop (after warm-up). */
template <typename Loop>
double
blocksPerOp(Loop& loop, std::uint32_t ops)
{
    std::uint64_t before = gAllocations;
    EXPECT_TRUE(loop.run(ops));
    return static_cast<double>(gAllocations - before) / ops;
}

core::SystemConfig
testConfig(std::uint32_t channels)
{
    core::SystemConfig cfg = core::SystemConfig::scaledTest();
    cfg.channels = channels;
    // The analytic memcpy, as the benchmark systems run it: the host
    // copy is one bulk transfer per page.
    cfg.memcpy.bulkMode = true;
    return cfg;
}

TEST(AllocFree, UncachedOpsAllocateLittle)
{
    core::NvdimmcSystem sys(testConfig(1));
    // A full cache of dirty pages over blocks that all hold data: every
    // op evicts a dirty victim (writeback) and fills its own page
    // (cachefill), each polled to its ack over the CP page.
    const std::uint32_t slots = sys.totalSlotCount();
    sys.precondition(0, slots, true);
    sys.driver().markEverWritten(0, sys.driver().capacityBytes() / kPage);

    QueueDepthOne loop(sys, slots);
    ASSERT_TRUE(loop.run(8));
    double per_op = blocksPerOp(loop, 32);
    RecordProperty("blocks_per_op", std::to_string(per_op));
    EXPECT_GT(sys.driver().stats().writebacks.value(), 0u);
    // Each op polls two acks many times and clflushes 128 lines: one
    // block more per poll or per line crosses the bound.
    EXPECT_LT(per_op, 80.0);
    EXPECT_EQ(sys.eq().sboOverflows(), 0u);
}

TEST(AllocFree, CachedHitsAllocateLittle)
{
    core::NvdimmcSystem sys(testConfig(4));
    const std::uint32_t cached = sys.totalSlotCount() - 64 * 4;
    sys.precondition(0, cached, true);

    QueueDepthOne loop(sys, 0);
    ASSERT_TRUE(loop.run(8));
    const std::uint64_t faults = sys.driver().stats().pageFaults.value();
    double per_op = blocksPerOp(loop, 64);
    RecordProperty("blocks_per_op", std::to_string(per_op));
    EXPECT_EQ(sys.driver().stats().pageFaults.value(), faults)
        << "an op missed the cache";
    // One block more per op crosses the bound.
    EXPECT_LT(per_op, 2.0);
    EXPECT_EQ(sys.eq().sboOverflows(), 0u);
}

TEST(AllocFree, DetailedCopiesAllocateLittle)
{
    // Line-by-line copies, as the mixed load and the data-integrity
    // tests run them: 64 CPU-cache loads or non-temporal stores per
    // page, each line through the iMC's queues.
    core::SystemConfig cfg = core::SystemConfig::scaledTest();
    cfg.channels = 1;
    cfg.memcpy.bulkMode = false;
    core::NvdimmcSystem sys(cfg);
    sys.precondition(0, 256, true);

    ValidatingLoop loop(sys);
    ASSERT_TRUE(loop.run(16));
    const std::uint64_t faults = sys.driver().stats().pageFaults.value();
    double per_op = blocksPerOp(loop, 128);
    RecordProperty("blocks_per_op", std::to_string(per_op));
    EXPECT_EQ(sys.driver().stats().pageFaults.value(), faults)
        << "an op missed the cache";
    EXPECT_EQ(loop.failures(), 0u);
    // One block more per line copied, or two per copy, crosses it.
    EXPECT_LT(per_op, 4.0);
    EXPECT_EQ(sys.eq().sboOverflows(), 0u);
}

TEST(AllocFree, LookupsOfUnheldPagesAllocateNothing)
{
    // The PTE walk, the FTL's lookup and a DRAM read of a row never
    // written read zero from sparse leaves without making one.
    driver::DramCache cache(4, 983040,
                            driver::ReplacementPolicy::create("lrc"));
    cache.finishFill(cache.allocate(5));
    ftl::MappingTable l2p(983040, 1u << 20);
    l2p.map(5, 7);
    dram::AddressMap map(std::uint64_t{1} << 30);
    dram::DramDevice dev(map, dram::Ddr4Timing::ddr4_2400());
    std::uint8_t burst[64] = {1};
    dev.writeBurst(map.decompose(0), burst);

    std::uint64_t before = gAllocations;
    std::uint64_t found = 0;
    for (std::uint64_t page = 0; page < 983040; page += 997) {
        found += cache.peek(page).has_value();
        found += l2p.lookup(page) != ftl::kUnmapped;
        dev.readBurst(map.decompose(page * 1024 % map.capacity()), burst);
        found += burst[0];
    }
    EXPECT_EQ(gAllocations - before, 0u);
    EXPECT_EQ(found, 1u) << "page 0's row holds the one byte written";
    EXPECT_EQ(cache.directoryBytes(), kTableLeafLen * 4);
    EXPECT_EQ(l2p.l2pBytes(), kTableLeafLen * 4);
    EXPECT_EQ(dev.allocatedBytes(), map.rowBytes());
}

} // namespace
} // namespace nvdimmc
