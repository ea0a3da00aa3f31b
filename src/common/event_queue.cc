#include "common/event_queue.hh"

#include <algorithm>

#include "common/logging.hh"

namespace nvdimmc
{

void
EventQueue::schedule(Event& ev, Tick when)
{
    if (when < now_) {
        panic("EventQueue: scheduling at tick ", when,
              " which is before now ", now_);
    }
    if (ev.sched_) {
        panic("EventQueue: '", ev.name(), "' is already scheduled for ",
              ev.when_, "; use reschedule()");
    }
    ev.when_ = when;
    ev.seq_ = nextSeq_++;
    ev.sched_ = true;
    heap_.push_back(HeapEntry{when, ev.seq_, &ev});
    std::push_heap(heap_.begin(), heap_.end(), Later{});
    ++livePending_;
    if (heap_.size() - livePending_ > livePending_)
        dropDeadEntries();
}

void
EventQueue::dropDeadEntries()
{
    heap_.erase(std::remove_if(heap_.begin(), heap_.end(),
                               [](const HeapEntry& e) { return !live(e); }),
                heap_.end());
    std::make_heap(heap_.begin(), heap_.end(), Later{});
}

bool
EventQueue::fireNextBound(Tick limit)
{
    auto pop = [this] {
        std::pop_heap(heap_.begin(), heap_.end(), Later{});
        heap_.pop_back();
    };
    // Dead entries leave as soon as they surface, whatever their tick.
    while (!heap_.empty() && !live(heap_.front()))
        pop();
    if (heap_.empty() || heap_.front().when > limit)
        return false;
    HeapEntry e = heap_.front();
    pop();
    NVDC_DASSERT(e.when >= now_, "event in the past");
    now_ = e.when;
    e.ev->sched_ = false;
    --livePending_;
    ++fired_;
    if (e.ev->oneShot_) {
        // Pooled one-shot: skip the virtual dispatch and recycle the
        // slot even if the callable throws (a panic propagating out
        // of a test).
        auto& ce = static_cast<CallbackEvent&>(*e.ev);
        struct Recycle
        {
            CallbackEvent& ce;
            ~Recycle() { ce.owner_.recycleCallback(ce); }
        } guard{ce};
        ce.call_(ce);
    } else {
        e.ev->process();
    }
    return true;
}

void
EventQueue::runUntil(Tick when)
{
    NVDC_ASSERT(when >= now_, "runUntil into the past");
    while (fireNextBound(when)) {
    }
    now_ = when;
}

std::uint64_t
EventQueue::runAll(std::uint64_t max_events)
{
    std::uint64_t n = 0;
    while (n < max_events && fireNext())
        ++n;
    return n;
}

void
EventQueue::growCallbackPool()
{
    auto slot = static_cast<std::uint32_t>(pool_.size());
    pool_.push_back(std::make_unique<CallbackEvent>(*this, slot));
    pool_.back()->oneShot_ = true;
    freeSlots_.push_back(slot);
}

void
EventQueue::CallbackEvent::process()
{
    // fireNextBound() calls a one-shot's callable directly; the
    // override exists only because Event::process is pure virtual.
    panic("one-shot event dispatched through process()");
}

} // namespace nvdimmc
