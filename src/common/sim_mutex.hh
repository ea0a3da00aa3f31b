/**
 * @file
 * A mutex for simulated software: FIFO grant order, asynchronous
 * acquire. Used for the nvdc driver's global lock, whose hold time is
 * what caps the paper's multi-thread scaling.
 */

#ifndef NVDIMMC_COMMON_SIM_MUTEX_HH
#define NVDIMMC_COMMON_SIM_MUTEX_HH

#include <deque>
#include <functional>
#include <utility>

#include "common/event_queue.hh"
#include "common/logging.hh"

namespace nvdimmc
{

/** FIFO simulated mutex. */
class SimMutex
{
  public:
    using Granted = std::function<void()>;

    explicit SimMutex(EventQueue& eq) : eq_(eq) {}

    /** Request the lock; @p granted fires when it is held. An
     *  uncontended acquire runs @p granted in place; only a parked one
     *  is stored, as a Granted. */
    template <typename F>
    void
    acquire(F&& granted)
    {
        if (!held_) {
            held_ = true;
            ++acquisitions_;
            granted();
            return;
        }
        waiters_.emplace_back(std::forward<F>(granted));
    }

    /** Release; the next waiter (if any) is granted at the same tick. */
    void
    release()
    {
        NVDC_ASSERT(held_, "release of an unheld SimMutex");
        if (waiters_.empty()) {
            held_ = false;
            return;
        }
        ++acquisitions_;
        Granted next = std::move(waiters_.front());
        waiters_.pop_front();
        // Defer one event so release() callers unwind first.
        eq_.scheduleAfter(0, std::move(next));
    }

    bool held() const { return held_; }
    std::size_t waiters() const { return waiters_.size(); }
    std::uint64_t acquisitions() const { return acquisitions_; }

  private:
    EventQueue& eq_;
    bool held_ = false;
    std::deque<Granted> waiters_;
    std::uint64_t acquisitions_ = 0;
};

} // namespace nvdimmc

#endif // NVDIMMC_COMMON_SIM_MUTEX_HH
