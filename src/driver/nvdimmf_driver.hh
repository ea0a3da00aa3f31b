/**
 * @file
 * NVDIMM-F model (paper §VIII / JEDEC): NAND + controller on the DIMM
 * with *no* DRAM cache and block access only. The host moves 4 KB
 * blocks through a small command/buffer aperture with plain DDR4
 * traffic; every access pays the NAND.
 *
 * Included as the comparison point the paper positions NVDIMM-C
 * against: NVDIMM-F has more capacity (no DRAM) but no
 * byte-addressability and no DRAM-speed hit path.
 */

#ifndef NVDIMMC_DRIVER_NVDIMMF_DRIVER_HH
#define NVDIMMC_DRIVER_NVDIMMF_DRIVER_HH

#include <cstdint>
#include <deque>
#include <functional>

#include "common/event_queue.hh"
#include "common/stats.hh"
#include "ftl/ftl.hh"
#include "imc/imc.hh"

namespace nvdimmc::driver
{

/** NVDIMM-F statistics. */
struct NvdimmFStats
{
    Counter readOps;
    Counter writeOps;
    Histogram latency;
};

/** The block device. */
class NvdimmFDriver
{
  public:
    static constexpr std::uint32_t kPageBytes = 4096;
    /** Block-layer software cost per request. */
    static constexpr Tick kOpOverhead = 900 * kNs;
    /** Command/doorbell exchange with the DIMM controller. */
    static constexpr Tick kCommandCost = 250 * kNs;

    NvdimmFDriver(EventQueue& eq, ftl::Ftl& ftl, imc::Imc& imc);

    std::uint64_t capacityBytes() const
    {
        return ftl_.pageCount() * kPageBytes;
    }

    /** Block read: NAND -> aperture -> host buffer over the bus. */
    void read(Addr offset, std::uint32_t len, std::uint8_t* buf,
              std::function<void()> done);

    /** Block write: host buffer -> aperture -> NAND program. */
    void write(Addr offset, std::uint32_t len, const std::uint8_t* data,
               std::function<void()> done);

    const NvdimmFStats& stats() const { return stats_; }

  private:
    void readPages(std::uint64_t page, std::uint32_t pages,
                   std::uint8_t* buf, std::function<void()> done,
                   Tick started);
    void writePages(std::uint64_t page, std::uint32_t pages,
                    const std::uint8_t* data,
                    std::function<void()> done, Tick started);

    EventQueue& eq_;
    ftl::Ftl& ftl_;
    imc::Imc& imc_;
    NvdimmFStats stats_;
};

} // namespace nvdimmc::driver

#endif // NVDIMMC_DRIVER_NVDIMMF_DRIVER_HH
