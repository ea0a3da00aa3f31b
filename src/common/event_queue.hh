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
 *    generation sequence are cleared and the stale wheel entry is
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
 * Pending events live in a hierarchical timing wheel instead of a
 * binary heap: kLevels levels of 64 buckets, level l bucketing ticks
 * at 64^l granularity, so level 0 resolves single ticks and the top
 * level spans the whole 64-bit tick space (no far-future overflow
 * list is needed). schedule() appends to the owning bucket in O(1);
 * dispatch drains the current level-0 bucket FIFO (entries in a
 * single-tick bucket are already in seq order by construction) and
 * lazily cascades a higher-level bucket down one level each time the
 * wheel clock enters its range. A per-level occupancy bitmask makes
 * "find the next non-empty bucket" one count-trailing-zeros, so empty
 * tick ranges are skipped in O(1) rather than walked. Each entry is
 * touched at most once per level on its way down, so cost per event
 * is O(levels) worst case and O(1) for the near-future deltas that
 * dominate simulation (see DESIGN.md § event kernel for the cascade
 * protocol and the exact-order argument).
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
 * descheduled entries never count, even while their stale wheel
 * entries are still unvisited. Consequently runUntil() over a
 * fully-cancelled queue fires nothing and still advances now() to the
 * target tick.
 */

#ifndef NVDIMMC_COMMON_EVENT_QUEUE_HH
#define NVDIMMC_COMMON_EVENT_QUEUE_HH

#include <array>
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
    /** Generation stamp: a wheel entry is live iff its seq matches. */
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
        if (memoValid_ && ev.seq_ == memoSeq_)
            memoValid_ = false;
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
     *  unvisited wheel entries never count). */
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

    /** @name Timing wheel */
    /** @{ */

    /** log2 of the bucket fan-out per level. */
    static constexpr int kLevelBits = 6;
    static constexpr std::uint32_t kSlotsPerLevel = 1u << kLevelBits;
    /** 11 levels x 6 bits = 66 bits: the whole Tick space fits, so
     *  there is no far-future overflow structure to special-case. */
    static constexpr int kLevels = 11;
    static constexpr std::uint32_t kNoFocus = ~std::uint32_t{0};
    /** focus_ value naming the front slot rather than a bucket. */
    static constexpr std::uint32_t kFrontFocus = kSlotsPerLevel;

    struct WheelEntry
    {
        Tick when;
        std::uint64_t seq;
        Event* ev;
    };

    using Bucket = std::vector<WheelEntry>;

    /** A wheel entry is live iff the event is still scheduled for it. */
    static bool
    live(const WheelEntry& e)
    {
        return e.ev->sched_ && e.ev->seq_ == e.seq;
    }

    /** Level an entry for @p when belongs to, relative to clock_: the
     *  lowest level whose parent block contains both ticks. */
    int
    levelFor(Tick when) const
    {
        std::uint64_t x = when ^ clock_;
        if (x == 0)
            return 0;
        int bit = 63 - __builtin_clzll(x);
        return bit / kLevelBits;
    }

    /** First tick covered by slot @p s of level @p l (relative to the
     *  current clock_ block at level l+1). */
    Tick
    slotStart(int l, std::uint32_t s) const
    {
        int parent_shift = kLevelBits * (l + 1);
        Tick parent_mask = parent_shift >= 64
                               ? ~Tick{0}
                               : (Tick{1} << parent_shift) - 1;
        return (clock_ & ~parent_mask) |
               (static_cast<Tick>(s) << (kLevelBits * l));
    }

    /** Append an entry into its owning bucket. O(1). */
    void
    pushEntry(Tick when, std::uint64_t seq, Event* ev)
    {
        int l = levelFor(when);
        auto s = static_cast<std::uint32_t>(
            (when >> (kLevelBits * l)) & (kSlotsPerLevel - 1));
        wheel_[static_cast<std::size_t>(l)][s].push_back(
            WheelEntry{when, seq, ev});
        occ_[static_cast<std::size_t>(l)] |= std::uint64_t{1} << s;
        ++bucketCount_;
    }

    /** Insert an entry at the head of its owning bucket (before the
     *  level-0 drain cursor). Only legal for an entry (when, seq)-less
     *  than everything in the bucket: the demoted front. Buckets stay
     *  seq-ordered per tick, which the O(1) level-0 drain relies on. */
    void
    pushEntryFront(Tick when, std::uint64_t seq, Event* ev)
    {
        int l = levelFor(when);
        auto s = static_cast<std::uint32_t>(
            (when >> (kLevelBits * l)) & (kSlotsPerLevel - 1));
        Bucket& b = wheel_[static_cast<std::size_t>(l)][s];
        b.insert(b.begin() + (l == 0 ? head0_[s] : 0),
                 WheelEntry{when, seq, ev});
        occ_[static_cast<std::size_t>(l)] |= std::uint64_t{1} << s;
        ++bucketCount_;
    }

    /**
     * Admit an entry, preferring the front slot: when the buckets are
     * empty the entry is held in front_ and never touches the wheel
     * at all — the common simulation shape of one (or few)
     * outstanding events then costs no bucket or cascade work. The
     * armed front is always strictly (when, seq)-below every bucket
     * entry: arming requires empty buckets, later pushes either go
     * behind it or swap with it, and the front only ever decreases
     * while armed — so it is always the wheel minimum, and a demoted
     * front belongs at the head of whatever bucket receives it.
     */
    void
    enqueueEntry(Tick when, std::uint64_t seq, Event* ev)
    {
        if (haveFront_) {
            if (!live(front_)) {
                haveFront_ = false;
            } else if (when < front_.when) {
                pushEntryFront(front_.when, front_.seq, front_.ev);
                front_ = WheelEntry{when, seq, ev};
                // The new front is by construction the wheel minimum.
                memoValid_ = true;
                memoWhen_ = when;
                memoSeq_ = seq;
                memoFocus_ = kFrontFocus;
                return;
            } else {
                pushEntry(when, seq, ev);
                return;
            }
        }
        if (bucketCount_ == 0) {
            front_ = WheelEntry{when, seq, ev};
            haveFront_ = true;
            // The wheel was empty, so this is its minimum: pre-arm
            // the memo and the next dispatch skips the lookup too.
            memoValid_ = true;
            memoWhen_ = when;
            memoSeq_ = seq;
            memoFocus_ = kFrontFocus;
            return;
        }
        if (memoValid_ && when < memoWhen_)
            memoValid_ = false;
        pushEntry(when, seq, ev);
    }

    /**
     * Locate the earliest live wheel entry, cascading higher-level
     * buckets down as the wheel clock advances — but never advancing
     * clock_ past @p bound (the caller guarantees now() will reach at
     * least bound, so no later schedule() can land behind the clock).
     * On success @p when/@p seq describe the entry; if it was reached
     * (bucket start <= bound) it is focused for fireFocused(),
     * otherwise focus is invalid and only (when, seq) is reported.
     *
     * The memo fast path stays inline: consecutive dispatches that
     * did not disturb the minimum (every lone-timer step) cost three
     * loads and a branch.
     */
    bool
    findWheelNext(Tick bound, Tick& when, std::uint64_t& seq)
    {
        if (memoValid_) {
            focus_ = memoFocus_;
            when = memoWhen_;
            seq = memoSeq_;
            return true;
        }
        return findWheelNextSlow(bound, when, seq);
    }

    /** Scan/cascade path of findWheelNext on a memo miss. */
    bool findWheelNextSlow(Tick bound, Tick& when, std::uint64_t& seq);

    /** Fire the entry focused by findWheelNext(). */
    void fireFocused();

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

    /** wheel_[l][s]: entries for the 64^l-tick range of slot s within
     *  the clock's current level-(l+1) block; a level-0 bucket covers
     *  exactly one tick, so draining it head-to-tail is already
     *  (tick, seq) order. */
    std::array<std::array<Bucket, kSlotsPerLevel>, kLevels> wheel_{};
    /** Per-level bitmask of non-empty buckets (bit s = slot s). */
    std::array<std::uint64_t, kLevels> occ_{};
    /** Drain cursor per level-0 bucket: entries before it have fired
     *  or died; reset when the bucket is cleared. */
    std::array<std::uint32_t, kSlotsPerLevel> head0_{};
    /**
     * The wheel's dispatch position: every live entry is at tick >=
     * clock_, and for every level >= 1 the slot containing clock_ has
     * already been cascaded (so lower levels hold anything earlier
     * than the next occupied higher-level bucket). clock_ only moves
     * forward, and never past a tick the caller has not committed
     * now() to reach.
     */
    Tick clock_ = 0;
    /** Level-0 slot focused by findWheelNext for fireFocused, or
     *  kFrontFocus when the front slot holds the minimum. */
    std::uint32_t focus_ = kNoFocus;
    /**
     * Memo of the last located-and-focused wheel minimum. Valid until
     * that entry fires or dies, or a smaller (when, seq) is pushed —
     * so consecutive dispatches with no intervening earlier schedule
     * (the lone-timer shape) skip the wheel lookup entirely. A
     * focused minimum needs no clock movement to fire, so a memo hit
     * is bound-independent.
     */
    bool memoValid_ = false;
    Tick memoWhen_ = 0;
    std::uint64_t memoSeq_ = 0;
    std::uint32_t memoFocus_ = kNoFocus;
    /**
     * Front slot: the wheel minimum cached outside the buckets. Armed
     * only while the buckets are empty, so a lone in-flight event
     * (the dominant device-model shape: one timer stepping forward)
     * cycles schedule->fire entirely through this slot. Firing it
     * advances now() but never clock_: bucket entries pushed while
     * the front was armed were placed relative to the lagging clock,
     * and jumping it would strand uncascaded current slots.
     */
    WheelEntry front_{};
    bool haveFront_ = false;
    /** Entries (live or dead) currently resident in wheel_ buckets. */
    std::size_t bucketCount_ = 0;

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
