/**
 * @file
 * The baseline: Linux's emulated NVDIMM (/dev/pmem0, paper §VI).
 *
 * A DRAM-backed ramdisk exposed through fsdax: accesses are plain
 * loads / non-temporal stores against the reserved DRAM region plus
 * the filesystem/libpmem per-op software overhead. No driver lock, no
 * coherence discipline, no persistence guarantee — the upper bound the
 * paper compares NVDIMM-C against.
 */

#ifndef NVDIMMC_DRIVER_PMEM_DRIVER_HH
#define NVDIMMC_DRIVER_PMEM_DRIVER_HH

#include <cstdint>
#include <functional>

#include "common/event_queue.hh"
#include "common/stats.hh"
#include "cpu/memcpy_engine.hh"

namespace nvdimmc::driver
{

/** Baseline statistics. */
struct PmemDriverStats
{
    Counter readOps;
    Counter writeOps;
    Histogram latency;
};

/** The emulated-pmem device. */
class PmemDriver
{
  public:
    /** Per-op software cost (fio + libpmem + DAX mapping). */
    static constexpr Tick kOpOverhead = 250 * kNs;
    /** Per-64B-line software cost (loop + coherence work). */
    static constexpr Tick kPerLineOverhead = 2 * kNs;
    /** Extra cost of the persist step on writes (store-buffer and
     *  WPQ-visibility wait after the NT stream). */
    static constexpr Tick kPersistCost = 350 * kNs;

    PmemDriver(EventQueue& eq, cpu::MemcpyEngine& engine,
               std::uint64_t capacity_bytes);

    std::uint64_t capacityBytes() const { return capacity_; }

    void read(Addr offset, std::uint32_t len, std::uint8_t* buf,
              std::function<void()> done);
    void write(Addr offset, std::uint32_t len, const std::uint8_t* data,
               std::function<void()> done);

    const PmemDriverStats& stats() const { return stats_; }

  private:
    EventQueue& eq_;
    cpu::MemcpyEngine& engine_;
    std::uint64_t capacity_;
    PmemDriverStats stats_;
};

} // namespace nvdimmc::driver

#endif // NVDIMMC_DRIVER_PMEM_DRIVER_HH
