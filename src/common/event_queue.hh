/**
 * @file
 * Discrete-event simulation kernel.
 *
 * A single EventQueue orders events by (tick, sequence-number) so a
 * whole-system simulation is fully deterministic: two events at the
 * same tick fire in the order they were scheduled, regardless of how
 * they were created.
 *
 * The kernel is allocation-free on its hot paths, gem5-style:
 *
 *  - Intrusive events. Components embed an Event subclass (usually an
 *    EventFunctionWrapper member) and schedule/reschedule it in
 *    place. Nothing is allocated per occurrence; a periodic event
 *    (refresh tick, controller step, GC pass) reuses the same object
 *    forever. Cancellation is O(1): the in-object scheduled flag and
 *    generation sequence are cleared and the stale heap entry is
 *    lazily skipped when it surfaces.
 *
 *  - One-shot callbacks. schedule(when, lambda) stores the callable
 *    in a pooled, small-buffer-optimized event slot (no heap
 *    allocation for captures up to kCallbackInlineBytes; the pool
 *    itself is recycled, so steady state allocates nothing — an
 *    sboOverflows() counter tracks any capture that spills so a
 *    hot-path regression is visible). The returned EventId is usable
 *    with cancel()/isPending().
 *
 * Pending events live in one binary min-heap of (tick, seq, event)
 * entries. The simulator keeps few events pending at once (a handful
 * on an uncached channel, a few dozen to a few hundred on a loaded
 * one), so a push or pop costs a few comparisons. A cancelled or
 * re-aimed event leaves its old entry behind. The dispatcher pops
 * such dead entries when they reach the top, and schedule() rebuilds
 * the heap from its live entries once dead ones outnumber live ones,
 * so the heap never holds more than twice the peak number of pending
 * events (see DESIGN.md § event kernel).
 *
 * Both kinds share one sequence counter, so their relative FIFO order
 * is exact.
 *
 * Lifetime rule for intrusive events: the Event object must outlive
 * every tick it was ever scheduled for — even if descheduled, the
 * queue still holds a (lazily discarded) reference until that tick is
 * reached. In practice events are members of sim components that live
 * for the whole run; the ASan CI job enforces the rule.
 *
 * Semantics of empty()/pending() under lazy deletion: cancelled or
 * descheduled entries never count, even while their stale heap
 * entries are still unpopped. Consequently runUntil() over a
 * fully-cancelled queue fires nothing and still advances now() to the
 * target tick.
 */

#ifndef NVDIMMC_COMMON_EVENT_QUEUE_HH
#define NVDIMMC_COMMON_EVENT_QUEUE_HH

#include <cstddef>
#include <cstdint>
#include <functional>
#include <memory>
#include <new>
#include <type_traits>
#include <utility>
#include <vector>

#include "common/types.hh"

namespace nvdimmc
{

class EventQueue;

/**
 * Intrusive event base class. Subclass (or use EventFunctionWrapper)
 * and embed in the owning component; EventQueue never owns it.
 */
class Event
{
  public:
    Event() = default;
    Event(const Event&) = delete;
    Event& operator=(const Event&) = delete;
    virtual ~Event() = default;

    /** Called when the event fires; it is descheduled beforehand, so
     *  process() may schedule() it again (the periodic idiom). */
    virtual void process() = 0;

    /** Debug label. */
    virtual const char* name() const { return "event"; }

    bool scheduled() const { return sched_; }

    /** Tick of the pending occurrence; only meaningful if scheduled(). */
    Tick when() const { return when_; }

  private:
    friend class EventQueue;

    Tick when_ = 0;
    /** Generation stamp: a heap entry is live iff its seq matches. */
    std::uint64_t seq_ = 0;
    bool sched_ = false;
    /** True for EventQueue's pooled one-shot slots: lets the
     *  dispatcher skip the virtual process() call on that hot path. */
    bool oneShot_ = false;
};

/**
 * An Event that runs a function object fixed at construction. The
 * gem5 EventFunctionWrapper idiom: one of these per recurring action,
 * owned by the component, rescheduled in place forever.
 */
class EventFunctionWrapper final : public Event
{
  public:
    explicit EventFunctionWrapper(std::function<void()> fn,
                                  const char* name = "wrapped-event")
        : fn_(std::move(fn)), name_(name)
    {
    }

    void process() override { fn_(); }
    const char* name() const override { return name_; }

  private:
    std::function<void()> fn_;
    const char* name_;
};

/**
 * Deterministic discrete-event scheduler keyed on picosecond ticks.
 * Scheduling in the past is a panic: simulated hardware cannot react
 * before its cause.
 */
class EventQueue
{
  public:
    using Callback = std::function<void()>;

    /** Captures up to this many bytes ride in the pooled slot without
     *  a heap allocation. */
    static constexpr std::size_t kCallbackInlineBytes = 96;

    EventQueue() = default;
    EventQueue(const EventQueue&) = delete;
    EventQueue& operator=(const EventQueue&) = delete;

    /** Current simulated time. */
    Tick now() const { return now_; }

    /** @name Intrusive API */
    /** @{ */

    /** Schedule @p ev at absolute tick @p when (>= now()). @p ev must
     *  not already be scheduled (use reschedule() for that). */
    void schedule(Event& ev, Tick when);

    /** Schedule @p ev @p delay ticks from now. */
    void scheduleAfter(Event& ev, Tick delay)
    {
        schedule(ev, now_ + delay);
    }

    /** Move @p ev to @p when, whether or not it is scheduled. */
    void reschedule(Event& ev, Tick when)
    {
        deschedule(ev);
        schedule(ev, when);
    }

    /** O(1) cancel; a no-op if @p ev is not scheduled. */
    void deschedule(Event& ev)
    {
        if (!ev.sched_)
            return;
        ev.sched_ = false;
        --livePending_;
    }

    /** @} */

    /** @name One-shot callback API */
    /** @{ */

    /**
     * Schedule callable @p fn at absolute tick @p when (>= now()).
     * Small captures are stored inline in a pooled event slot.
     * @return an id usable with cancel().
     */
    template <typename F>
    EventId
    schedule(Tick when, F&& fn)
    {
        CallbackEvent& ce = allocCallback();
        emplaceCallable(ce, std::forward<F>(fn));
        schedule(ce, when);
        return ce.id();
    }

    /** Schedule @p fn @p delay ticks from now. */
    template <typename F>
    EventId
    scheduleAfter(Tick delay, F&& fn)
    {
        return schedule(now_ + delay, std::forward<F>(fn));
    }

    /**
     * Cancel a pending one-shot. Cancelling an already-fired or
     * unknown id is a harmless no-op (ids are generation-stamped, so
     * the id space never aliases a later event).
     */
    void cancel(EventId id);

    /** @} */

    /** @return true iff @p id is scheduled and not yet fired/cancelled. */
    bool isPending(EventId id) const { return lookupCallback(id) != nullptr; }

    /** @} */

    /** @return true iff no runnable events remain (cancelled-but-
     *  unpopped heap entries never count). */
    bool empty() const { return livePending_ == 0; }

    /** Number of pending (non-cancelled) events of either kind. */
    std::size_t pending() const { return livePending_; }

    /**
     * Fire the single earliest event.
     * @return false if the queue was empty.
     */
    bool runOne() { return fireNext(); }

    /**
     * Run every event with tick <= @p when, then advance now() to
     * @p when even if the queue drained (or was fully cancelled)
     * earlier.
     */
    void runUntil(Tick when);

    /** runUntil(now() + delta). */
    void runFor(Tick delta) { runUntil(now_ + delta); }

    /**
     * Run until the queue drains or @p max_events fired.
     * @return number of events fired.
     */
    std::uint64_t runAll(std::uint64_t max_events = ~std::uint64_t{0});

    /** Total events fired since construction. */
    std::uint64_t eventsFired() const { return fired_; }

    /** One-shot callables whose captures exceeded
     *  kCallbackInlineBytes and fell back to a heap allocation. A
     *  nonzero steady-state rate here means a hot-path lambda grew
     *  past the SBO budget (bench_event_queue reports it). */
    std::uint64_t sboOverflows() const { return sboOverflows_; }

  private:
    /** Pooled slot for one-shot callbacks: SBO storage plus a
     *  generation counter that makes EventIds unambiguous. */
    class CallbackEvent final : public Event
    {
      public:
        CallbackEvent(EventQueue& owner, std::uint32_t slot)
            : owner_(owner), slot_(slot)
        {
        }

        ~CallbackEvent() override
        {
            if (destroy_)
                destroy_(*this);
        }

        void process() override;
        const char* name() const override { return "one-shot"; }

        EventId
        id() const
        {
            return (static_cast<EventId>(slot_) + 1) << 32 | gen_;
        }

        EventQueue& owner_;
        const std::uint32_t slot_;
        std::uint32_t gen_ = 1;
        void (*call_)(CallbackEvent&) = nullptr;
        void (*destroy_)(CallbackEvent&) = nullptr;
        void* heapFn_ = nullptr;
        alignas(std::max_align_t) unsigned char inline_[kCallbackInlineBytes];
    };

    /** @name Event heap */
    /** @{ */

    struct HeapEntry
    {
        Tick when;
        std::uint64_t seq;
        Event* ev;
    };

    /** The less-than for std::*_heap, which keep the greatest element
     *  on top: ordering by "later" makes the earliest (tick, seq) the
     *  greatest. A stateless function object rather than a function,
     *  so the heap algorithms inline the comparison instead of calling
     *  through a pointer. */
    struct Later
    {
        bool
        operator()(const HeapEntry& a, const HeapEntry& b) const
        {
            return a.when != b.when ? a.when > b.when : a.seq > b.seq;
        }
    };

    /** A heap entry is live iff the event is still scheduled for it. */
    static bool
    live(const HeapEntry& e)
    {
        return e.ev->sched_ && e.ev->seq_ == e.seq;
    }

    /** Rebuild the heap from its live entries: O(heap size), paid
     *  for by the cancels that left more dead entries than live. */
    void dropDeadEntries();

    /**
     * Fire the earliest event if its tick is <= @p limit.
     * @return whether one fired.
     */
    bool fireNextBound(Tick limit);

    /** fireNextBound with no bound: fire the earliest event, if any. */
    bool fireNext() { return fireNextBound(kTickNever); }

    /** @} */

    /** Grab a free pooled slot (grows the pool only on first use of a
     *  new depth; steady state never allocates). */
    CallbackEvent&
    allocCallback()
    {
        if (freeSlots_.empty())
            growCallbackPool();
        std::uint32_t slot = freeSlots_.back();
        freeSlots_.pop_back();
        return *pool_[slot];
    }

    /** Cold path of allocCallback: add one slot to the pool. */
    void growCallbackPool();

    /** Destroy the stored callable and return the slot to the pool,
     *  bumping the generation so stale EventIds miss. */
    void
    recycleCallback(CallbackEvent& ce)
    {
        if (ce.destroy_)
            ce.destroy_(ce);
        ce.call_ = nullptr;
        ce.destroy_ = nullptr;
        ++ce.gen_;
        freeSlots_.push_back(ce.slot_);
    }

    /** Decode an EventId; null unless it names a still-pending slot. */
    const CallbackEvent* lookupCallback(EventId id) const;
    CallbackEvent*
    lookupCallback(EventId id)
    {
        return const_cast<CallbackEvent*>(
            std::as_const(*this).lookupCallback(id));
    }

    template <typename F>
    static void
    emplaceCallable(CallbackEvent& ce, F&& fn)
    {
        using Fn = std::decay_t<F>;
        static_assert(std::is_invocable_v<Fn&>,
                      "EventQueue callbacks take no arguments");
        if constexpr (sizeof(Fn) <= kCallbackInlineBytes &&
                      alignof(Fn) <= alignof(std::max_align_t)) {
            ::new (static_cast<void*>(ce.inline_)) Fn(std::forward<F>(fn));
            ce.call_ = [](CallbackEvent& e) {
                invokeCallable(*std::launder(
                    reinterpret_cast<Fn*>(e.inline_)));
            };
            ce.destroy_ = [](CallbackEvent& e) {
                std::launder(reinterpret_cast<Fn*>(e.inline_))->~Fn();
            };
        } else {
            ++ce.owner_.sboOverflows_;
            ce.heapFn_ = new Fn(std::forward<F>(fn));
            ce.call_ = [](CallbackEvent& e) {
                invokeCallable(*static_cast<Fn*>(e.heapFn_));
            };
            ce.destroy_ = [](CallbackEvent& e) {
                delete static_cast<Fn*>(e.heapFn_);
                e.heapFn_ = nullptr;
            };
        }
    }

    /** A null std::function is legal and means "just advance time". */
    template <typename Fn>
    static void
    invokeCallable(Fn& fn)
    {
        if constexpr (std::is_constructible_v<bool, Fn&>) {
            if (fn)
                fn();
        } else {
            fn();
        }
    }

    /** Pending entries, live and dead, as a (tick, seq) min-heap. */
    std::vector<HeapEntry> heap_;

    std::vector<std::unique_ptr<CallbackEvent>> pool_;
    std::vector<std::uint32_t> freeSlots_;

    Tick now_ = 0;
    std::uint64_t nextSeq_ = 1;
    std::size_t livePending_ = 0;
    std::uint64_t fired_ = 0;
    std::uint64_t sboOverflows_ = 0;
};

} // namespace nvdimmc

#endif // NVDIMMC_COMMON_EVENT_QUEUE_HH
