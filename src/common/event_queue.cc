#include "common/event_queue.hh"


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
    enqueueEntry(when, ev.seq_, &ev);
    ++livePending_;
}

bool
EventQueue::findWheelNextSlow(Tick bound, Tick& when_out,
                              std::uint64_t& seq_out)
{
    // Front slot first: while armed it is by construction <= every
    // bucket entry, so no scan or cascade is needed at all.
    if (haveFront_) {
        if (live(front_)) {
            focus_ = kFrontFocus;
            memoValid_ = true;
            memoWhen_ = front_.when;
            memoSeq_ = front_.seq;
            memoFocus_ = kFrontFocus;
            when_out = front_.when;
            seq_out = front_.seq;
            return true;
        }
        haveFront_ = false;
    }
    focus_ = kNoFocus;
    for (;;) {
        // Current 64-tick block: every occupied bucket here covers a
        // single tick and is already in seq order, so the first live
        // entry at or past the drain cursor is the wheel minimum.
        auto c0 = static_cast<std::uint32_t>(clock_) &
                  (kSlotsPerLevel - 1);
        std::uint64_t m = occ_[0] & (~std::uint64_t{0} << c0);
        while (m) {
            auto s = static_cast<std::uint32_t>(__builtin_ctzll(m));
            Bucket& b = wheel_[0][s];
            std::uint32_t& h = head0_[s];
            while (h < b.size() && !live(b[h])) {
                ++h;
                --bucketCount_;
            }
            if (h < b.size()) {
                focus_ = s;
                memoValid_ = true;
                memoWhen_ = b[h].when;
                memoSeq_ = b[h].seq;
                memoFocus_ = s;
                when_out = b[h].when;
                seq_out = b[h].seq;
                return true;
            }
            b.clear();
            h = 0;
            occ_[0] &= ~(std::uint64_t{1} << s);
            m &= m - 1;
        }
        // The block is exhausted: cascade the next occupied bucket,
        // lowest level first (nested blocks make that earliest-first),
        // then rescan. Each entry descends one level per cascade, so
        // it is touched at most kLevels times in its lifetime.
        bool cascaded = false;
        for (int l = 1; l < kLevels && !cascaded; ++l) {
            auto li = static_cast<std::size_t>(l);
            auto cl = static_cast<std::uint32_t>(
                (clock_ >> (kLevelBits * l)) & (kSlotsPerLevel - 1));
            std::uint64_t ml = occ_[li] & (~std::uint64_t{0} << cl);
            while (ml) {
                auto s = static_cast<std::uint32_t>(
                    __builtin_ctzll(ml));
                Bucket& b = wheel_[li][s];
                // Drop cancelled entries now; a dead-only bucket must
                // not pull the clock forward.
                std::size_t w = 0;
                for (std::size_t r = 0; r < b.size(); ++r)
                    if (live(b[r]))
                        b[w++] = b[r];
                bucketCount_ -= b.size() - w;
                b.resize(w);
                if (b.empty()) {
                    occ_[li] &= ~(std::uint64_t{1} << s);
                    ml &= ml - 1;
                    continue;
                }
                Tick start = slotStart(l, s);
                if (start > bound) {
                    // The caller has not committed now() past bound,
                    // so a later schedule() may still land before
                    // this bucket: report its minimum (the bucket is
                    // seq-ordered, so the first hit at the lowest
                    // tick is the right tie-break) without moving
                    // the clock.
                    Tick bw = kTickNever;
                    std::uint64_t bs = 0;
                    for (const WheelEntry& e : b) {
                        if (e.when < bw) {
                            bw = e.when;
                            bs = e.seq;
                        }
                    }
                    when_out = bw;
                    seq_out = bs;
                    return true;
                }
                NVDC_DASSERT(start > clock_,
                            "cascading an uncascaded current slot");
                clock_ = start;
                occ_[li] &= ~(std::uint64_t{1} << s);
                bucketCount_ -= b.size();
                for (const WheelEntry& e : b)
                    pushEntry(e.when, e.seq, e.ev);
                b.clear();
                cascaded = true;
                break;
            }
        }
        if (!cascaded)
            return false;
    }
}

void
EventQueue::fireFocused()
{
    NVDC_DASSERT(focus_ != kNoFocus, "firing without a focused entry");
    memoValid_ = false;
    WheelEntry e;
    if (focus_ == kFrontFocus) {
        e = front_;
        haveFront_ = false;
        // Leave clock_ alone: bucket entries pushed while the front
        // was armed were placed relative to the lagging clock.
    } else {
        Bucket& b = wheel_[0][focus_];
        e = b[head0_[focus_]];
        ++head0_[focus_];
        --bucketCount_;
        clock_ = e.when;
    }
    focus_ = kNoFocus;
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
}

bool
EventQueue::fireNextBound(Tick limit)
{
    Tick when = kTickNever;
    std::uint64_t seq = 0;
    if (!findWheelNext(limit, when, seq) || when > limit)
        return false;
    fireFocused();
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
EventQueue::cancel(EventId id)
{
    CallbackEvent* ce = lookupCallback(id);
    if (!ce)
        return;
    deschedule(*ce);
    // Release the captured state now rather than when the stale wheel
    // entry surfaces; the slot's generation bump retires the id.
    recycleCallback(*ce);
}

void
EventQueue::growCallbackPool()
{
    auto slot = static_cast<std::uint32_t>(pool_.size());
    pool_.push_back(std::make_unique<CallbackEvent>(*this, slot));
    pool_.back()->oneShot_ = true;
    freeSlots_.push_back(slot);
}

const EventQueue::CallbackEvent*
EventQueue::lookupCallback(EventId id) const
{
    EventId hi = id >> 32;
    if (hi == 0 || hi > pool_.size())
        return nullptr;
    const CallbackEvent* ce = pool_[hi - 1].get();
    if (ce->gen_ != static_cast<std::uint32_t>(id) || !ce->scheduled())
        return nullptr;
    return ce;
}

void
EventQueue::CallbackEvent::process()
{
    // Recycle even if the callable throws (a panic propagating out of
    // a test); the stale wheel entry is skipped by the generation.
    struct Recycle
    {
        CallbackEvent& ce;
        ~Recycle() { ce.owner_.recycleCallback(ce); }
    } guard{*this};
    call_(*this);
}

} // namespace nvdimmc
