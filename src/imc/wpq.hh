/**
 * @file
 * Write pending queue (WPQ).
 *
 * Stores from the CPU are posted: they complete (from the core's point
 * of view) as soon as they enter the WPQ, and drain to the DRAM in the
 * background. On Intel platforms the WPQ is inside the ADR persistence
 * domain for real NVDIMMs; the paper (§V-C) points out that with
 * NVDIMM-C the WPQ is only a *weak* persistence domain because the
 * FPGA's power-fail dump may read a page before the WPQ drained into
 * it. The power-failure model in core/power.cc exercises exactly that.
 */

#ifndef NVDIMMC_IMC_WPQ_HH
#define NVDIMMC_IMC_WPQ_HH

#include <cstddef>

#include "imc/request.hh"

namespace nvdimmc::imc
{

/** Bounded posted-write queue with a drain watermark. */
class WritePendingQueue : public RequestQueue
{
  public:
    WritePendingQueue(std::size_t capacity, std::size_t drain_watermark)
        : RequestQueue(capacity), watermark_(drain_watermark)
    {
    }

    /** True when the scheduler should prefer draining writes. */
    bool aboveWatermark() const { return size() >= watermark_; }

    /**
     * Drop every entry (simulated power failure *without* ADR flush):
     * the stores are lost. @return how many were lost.
     */
    std::size_t
    dropAll()
    {
        std::size_t n = size();
        clear();
        return n;
    }

  private:
    std::size_t watermark_;
};

} // namespace nvdimmc::imc

#endif // NVDIMMC_IMC_WPQ_HH
