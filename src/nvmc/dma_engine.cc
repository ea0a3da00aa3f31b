#include "nvmc/dma_engine.hh"

#include "common/logging.hh"
#include "common/trace.hh"

namespace nvdimmc::nvmc
{

void
DmaEngine::enqueue(DmaRequest req)
{
    NVDC_ASSERT(req.bytes > 0 && req.bytes % 64 == 0,
                "DMA request must be a 64B multiple");
    dmaStats_.requests.inc();
    queue_.push_back(std::move(req));
}

void
DmaEngine::runWindow(Tick win_start, Tick win_end,
                     std::function<void()> on_window_done)
{
    if (windowActive_) {
        // Overlapping grants only happen with a faulty detector
        // (false fires inside a genuine window); keep working the
        // current window and drop the bogus one.
        if (on_window_done)
            on_window_done();
        return;
    }
    if (queue_.empty()) {
        if (on_window_done)
            on_window_done();
        return;
    }
    windowActive_ = true;
    windowBudget_ = bytesPerWindow_;
    windowDone_ = std::move(on_window_done);
    dmaStats_.windowsUsed.inc();

    windowEnd_ = win_end;
    Tick start = std::max(win_start, eq_.now());
    windowOpenedAt_ = start;
    windowBytes_ = 0;
    eq_.schedule(windowStartEvent_, start);
}

void
DmaEngine::closeWindow()
{
    const Tick now = eq_.now();
    windowActive_ = false;
    dmaStats_.busyTicks.inc(now - windowOpenedAt_);
    dmaStats_.bytesPerWindow.record(windowBytes_);
    if (trace::enabled()) {
        trace::duration("nvmc.dma", "dma-burst", windowOpenedAt_, now);
        trace::counter("nvmc.dma", "bytes", now,
                       static_cast<double>(windowBytes_));
    }
    if (windowDone_) {
        auto cb = std::move(windowDone_);
        cb();
    }
}

void
DmaEngine::runNext()
{
    const Tick win_end = windowEnd_;
    // CP control lines (single-burst polls and acks) ride along for
    // free; the byte budget models the PoC's 4 KB data-DMA limit.
    bool control = !queue_.empty() && queue_.front().bytes <= 64;
    if (queue_.empty() || (windowBudget_ == 0 && !control) ||
        eq_.now() >= win_end) {
        closeWindow();
        return;
    }

    DmaRequest& req = queue_.front();
    // Everything between the previous mark and burst start was spent
    // waiting for a refresh window (plus queueing behind other DMA).
    span::phase(req.span, span::Phase::WindowWait, eq_.now());
    std::uint32_t chunk =
        control ? req.bytes : std::min(req.bytes, windowBudget_);
    std::uint8_t* rbuf = nullptr;
    const std::uint8_t* wdata = nullptr;
    if (req.buffer) {
        if (req.isWrite)
            wdata = req.buffer->data() + req.bufferOffset;
        else
            rbuf = req.buffer->data() + req.bufferOffset;
    }

    ctrl_.transferInWindow(
        req.addr, chunk, req.isWrite, rbuf, wdata, eq_.now(), win_end,
        [this, control](std::uint32_t moved) {
            DmaRequest& front = queue_.front();
            dmaStats_.bytesMoved.inc(moved);
            windowBytes_ += moved;
            if (!control)
                windowBudget_ -= std::min(windowBudget_, moved);
            front.addr += moved;
            front.bufferOffset += moved;
            front.bytes -= moved;
            if (moved > 0)
                span::phase(front.span, span::Phase::DmaBurst,
                            eq_.now());
            if (front.bytes == 0) {
                auto done = std::move(front.done);
                queue_.pop_front();
                if (done)
                    done();
            } else {
                dmaStats_.windowCarryovers.inc();
            }
            if (moved == 0) {
                // The window had no room left; resume next window
                // rather than spinning at this tick.
                closeWindow();
                return;
            }
            runNext();
        });
}

} // namespace nvdimmc::nvmc
