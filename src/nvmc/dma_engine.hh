/**
 * @file
 * Window-gated DMA engine.
 *
 * The firmware enqueues DRAM transfers (CP polls, 4 KB slot moves,
 * acks); the engine executes them only inside refresh windows handed
 * to it by the NVMC top level, capped at bytesPerWindow per window
 * (4 KB on the PoC; 8 KB in the ASIC ablation). Transfers larger than
 * one window's budget resume in the next window.
 */

#ifndef NVDIMMC_NVMC_DMA_ENGINE_HH
#define NVDIMMC_NVMC_DMA_ENGINE_HH

#include <cstdint>
#include <deque>
#include <functional>
#include <memory>
#include <vector>

#include "common/event_queue.hh"
#include "common/span.hh"
#include "common/stats.hh"
#include "nvmc/ddr4_controller.hh"

namespace nvdimmc::nvmc
{

/** One queued DRAM transfer. */
struct DmaRequest
{
    Addr addr = 0;
    std::uint32_t bytes = 0;
    bool isWrite = false;
    /** Buffer shared with the firmware op that owns it. */
    std::shared_ptr<std::vector<std::uint8_t>> buffer;
    std::uint32_t bufferOffset = 0;
    std::function<void()> done;
    /** Host request span riding this transfer (0 = background). */
    span::Id span = 0;
};

/** DMA statistics. */
struct DmaStats
{
    Counter requests;
    Counter windowsUsed;
    Counter bytesMoved;
    Counter windowCarryovers; ///< Requests split across windows.
    /** Ticks actually spent driving transfers inside windows (the
     *  "used" half of window utilization). */
    Counter busyTicks;
    Histogram bytesPerWindow; ///< Bytes moved in each used window.
};

/** The engine. */
class DmaEngine
{
  public:
    DmaEngine(EventQueue& eq, NvmcDdr4Controller& ctrl,
              std::uint32_t bytes_per_window)
        : eq_(eq), ctrl_(ctrl), bytesPerWindow_(bytes_per_window),
          windowStartEvent_([this] { runNext(); },
                            "dma-window-start")
    {
    }

    void enqueue(DmaRequest req);

    bool idle() const { return queue_.empty() && !windowActive_; }
    std::size_t backlog() const { return queue_.size(); }

    /**
     * Called by the NVMC on each refresh window. Executes queued
     * requests until the byte budget or the window is exhausted.
     * @p on_window_done fires when this window's work is over (also
     * immediately if there is nothing to do).
     */
    void runWindow(Tick win_start, Tick win_end,
                   std::function<void()> on_window_done);

    std::uint32_t bytesPerWindow() const { return bytesPerWindow_; }
    void setBytesPerWindow(std::uint32_t b) { bytesPerWindow_ = b; }

    const DmaStats& stats() const { return dmaStats_; }

  private:
    /** Start the next transfer in the active window, which ends at
     *  windowEnd_ (its continuation then carries only `this` and a
     *  flag, small enough for std::function to hold inline). */
    void runNext();
    /** Close the active window: record used ticks/bytes, fire the
     *  window-done callback. */
    void closeWindow();

    EventQueue& eq_;
    NvmcDdr4Controller& ctrl_;
    std::uint32_t bytesPerWindow_;

    std::deque<DmaRequest> queue_;
    /** Kicks the first transfer once the granted window opens. */
    EventFunctionWrapper windowStartEvent_;
    bool windowActive_ = false;
    std::uint32_t windowBudget_ = 0;
    Tick windowEnd_ = 0;
    Tick windowOpenedAt_ = 0;
    std::uint64_t windowBytes_ = 0;
    std::function<void()> windowDone_;

    DmaStats dmaStats_;
};

} // namespace nvdimmc::nvmc

#endif // NVDIMMC_NVMC_DMA_ENGINE_HH
