/**
 * @file
 * Tests for the intrusive event kernel: same-tick FIFO interleaving
 * of intrusive and one-shot events, in-place deschedule/reschedule,
 * periodic self-rescheduling, lazy-deletion bookkeeping across heap
 * rebuilds, order against a reference queue, and a regression check
 * that the one-shot (legacy-API shim) path and the intrusive path
 * drive a simulation to byte-identical stats.
 */

#include <gtest/gtest.h>

#include <array>
#include <memory>
#include <sstream>
#include <string>
#include <vector>

#include "common/event_queue.hh"
#include "common/logging.hh"

namespace nvdimmc
{
namespace
{

/** Intrusive event that appends a tag to a shared trace. */
class TraceEvent : public Event
{
  public:
    TraceEvent(std::vector<int>& trace, int tag)
        : trace_(trace), tag_(tag)
    {
    }

    void process() override { trace_.push_back(tag_); }
    const char* name() const override { return "trace"; }

  private:
    std::vector<int>& trace_;
    int tag_;
};

TEST(EventKernel, IntrusiveAndCallbackShareFifoOrder)
{
    // Same-tick order is schedule order, regardless of event kind.
    EventQueue eq;
    std::vector<int> trace;
    TraceEvent a(trace, 0);
    TraceEvent b(trace, 2);
    eq.schedule(a, 100);
    eq.schedule(100, [&] { trace.push_back(1); });
    eq.schedule(b, 100);
    eq.schedule(100, [&] { trace.push_back(3); });
    eq.runAll();
    EXPECT_EQ(trace, (std::vector<int>{0, 1, 2, 3}));
}

TEST(EventKernel, DescheduleThenRescheduleInPlace)
{
    EventQueue eq;
    std::vector<int> trace;
    TraceEvent ev(trace, 7);

    eq.schedule(ev, 50);
    EXPECT_TRUE(ev.scheduled());
    EXPECT_EQ(ev.when(), 50u);

    eq.deschedule(ev);
    EXPECT_FALSE(ev.scheduled());
    eq.runUntil(60);
    EXPECT_TRUE(trace.empty());

    // The same object is reusable immediately, with no allocation.
    eq.schedule(ev, 80);
    eq.runAll();
    EXPECT_EQ(trace, std::vector<int>{7});
    EXPECT_EQ(eq.now(), 80u);
}

TEST(EventKernel, RescheduleMovesBothDirections)
{
    EventQueue eq;
    std::vector<int> trace;
    TraceEvent ev(trace, 1);

    eq.schedule(ev, 100);
    eq.reschedule(ev, 40); // Earlier: the stale 100-tick entry dies.
    eq.runUntil(50);
    EXPECT_EQ(trace.size(), 1u);
    EXPECT_EQ(eq.now(), 50u);

    eq.schedule(ev, 60);
    eq.reschedule(ev, 200); // Later: the stale 60-tick entry dies.
    eq.runUntil(150);
    EXPECT_EQ(trace.size(), 1u);
    eq.runAll();
    EXPECT_EQ(trace.size(), 2u);
    EXPECT_EQ(eq.now(), 200u);
}

TEST(EventKernel, DoubleScheduleIsAPanic)
{
    EventQueue eq;
    std::vector<int> trace;
    TraceEvent ev(trace, 1);
    eq.schedule(ev, 10);
    EXPECT_THROW(eq.schedule(ev, 20), PanicError);
}

/** Periodic event: reschedules itself in place n times. */
class PeriodicEvent : public Event
{
  public:
    PeriodicEvent(EventQueue& eq, Tick period, int times)
        : eq_(eq), period_(period), left_(times)
    {
    }

    void
    process() override
    {
        ticks.push_back(eq_.now());
        if (--left_ > 0)
            eq_.scheduleAfter(*this, period_);
    }

    std::vector<Tick> ticks;

  private:
    EventQueue& eq_;
    Tick period_;
    int left_;
};

TEST(EventKernel, PeriodicSelfReschedule)
{
    EventQueue eq;
    PeriodicEvent refresh(eq, 7800, 5);
    eq.schedule(refresh, 7800);
    eq.runAll();
    EXPECT_EQ(refresh.ticks,
              (std::vector<Tick>{7800, 15600, 23400, 31200, 39000}));
    EXPECT_FALSE(refresh.scheduled());
    EXPECT_TRUE(eq.empty());
}

TEST(EventKernel, LazyDeletionNeverCountsCancelled)
{
    // pending()/empty() track live events only, even while
    // descheduled heap records are still unpopped.
    EventQueue eq;
    std::vector<int> trace;
    TraceEvent ev(trace, 0);
    TraceEvent later(trace, 1);
    eq.schedule(ev, 10);
    eq.schedule(later, 20);
    EXPECT_EQ(eq.pending(), 2u);

    eq.deschedule(ev);
    EXPECT_EQ(eq.pending(), 1u);
    eq.deschedule(later);
    EXPECT_EQ(eq.pending(), 0u);
    EXPECT_TRUE(eq.empty());

    // runUntil over a fully-descheduled queue fires nothing and still
    // lands now() on the target tick.
    eq.runUntil(100);
    EXPECT_EQ(eq.now(), 100u);
    EXPECT_EQ(eq.eventsFired(), 0u);
    EXPECT_TRUE(trace.empty());
}

TEST(EventKernel, LargeCapturesSpillSafely)
{
    // Captures beyond the inline budget take the heap fallback; the
    // payload must arrive intact.
    EventQueue eq;
    std::array<std::uint64_t, 32> big{};
    for (std::size_t i = 0; i < big.size(); ++i)
        big[i] = i * 3;
    std::uint64_t sum = 0;
    eq.schedule(5, [big, &sum] {
        for (auto v : big)
            sum += v;
    });
    eq.runAll();
    EXPECT_EQ(sum, 3u * (31u * 32u / 2u));
}

/**
 * The regression that guards the kernel rebuild: a toy simulation
 * (bursty producer, jittered service times, mid-flight deschedules)
 * run once through the one-shot legacy-API shim and once through
 * intrusive events must produce byte-identical stats.
 */
std::string
runToySim(bool intrusive)
{
    EventQueue eq;
    std::ostringstream os;
    std::uint64_t served = 0;
    Tick last_service = 0;

    struct Server : Event
    {
        EventQueue& eq;
        std::uint64_t& served;
        Tick& last_service;
        Tick period;
        int left;

        Server(EventQueue& q, std::uint64_t& s, Tick& ls, Tick p, int n)
            : eq(q), served(s), last_service(ls), period(p), left(n)
        {
        }

        void
        process() override
        {
            ++served;
            last_service = eq.now();
            if (--left > 0)
                eq.scheduleAfter(*this, period);
        }
    };

    Server server(eq, served, last_service, 130, 40);
    std::function<void()> serve_shim = [&] {
        ++served;
        last_service = eq.now();
        if (--server.left > 0)
            eq.scheduleAfter(130, serve_shim);
    };

    if (intrusive)
        eq.schedule(server, 130);
    else
        eq.schedule(130, serve_shim);

    // Same-tick contention with the server plus dead-entry churn:
    // each dead event is scheduled and descheduled at once.
    std::vector<std::unique_ptr<EventFunctionWrapper>> dead;
    for (int i = 0; i < 40; ++i) {
        Tick at = 130 * static_cast<Tick>(1 + i % 7);
        eq.schedule(at, [&served] { ++served; });
        dead.push_back(std::make_unique<EventFunctionWrapper>(
            [&served] { served += 1000; }, "dead"));
        eq.schedule(*dead.back(), at);
        eq.deschedule(*dead.back());
    }

    eq.runAll();
    os << eq.now() << ":" << eq.eventsFired() << ":" << served << ":"
       << last_service;
    return os.str();
}

TEST(EventKernel, ShimAndIntrusiveRunsAreByteIdentical)
{
    std::string shim = runToySim(false);
    std::string intrusive = runToySim(true);
    EXPECT_EQ(shim, intrusive);
    EXPECT_NE(shim.find(":"), std::string::npos);
}

/**
 * The kernel's contract as a linear scan: the live entry with the
 * least (tick, seq) fires next, with one sequence counter stamped in
 * program order, lazy cancellation and inclusive runUntil bounds.
 */
class ReferenceQueue
{
  public:
    /** Admit an entry; @return its index for kill(). */
    std::size_t
    add(Tick when, int label)
    {
        entries_.push_back({when, nextSeq_++, label, true});
        ++live_;
        return entries_.size() - 1;
    }

    /** Cancel entry @p i; a no-op once it fired or died. */
    void
    kill(std::size_t i)
    {
        if (entries_[i].live) {
            entries_[i].live = false;
            --live_;
        }
    }

    Tick now() const { return now_; }
    std::size_t pending() const { return live_; }

    /** Fire every entry up to @p until into @p order; now() = until. */
    void
    runUntil(Tick until, std::vector<int>& order)
    {
        for (;;) {
            std::size_t b = best();
            if (b == entries_.size() || entries_[b].when > until)
                break;
            fire(b, order);
        }
        now_ = until;
    }

    /** Fire everything left. */
    void
    drain(std::vector<int>& order)
    {
        for (std::size_t b = best(); b != entries_.size(); b = best())
            fire(b, order);
    }

  private:
    struct Entry
    {
        Tick when;
        std::uint64_t seq;
        int label;
        bool live;
    };

    std::size_t
    best() const
    {
        std::size_t b = entries_.size();
        for (std::size_t i = 0; i < entries_.size(); ++i) {
            if (!entries_[i].live)
                continue;
            if (b == entries_.size() || entries_[i].when < entries_[b].when ||
                (entries_[i].when == entries_[b].when &&
                 entries_[i].seq < entries_[b].seq))
                b = i;
        }
        return b;
    }

    void
    fire(std::size_t i, std::vector<int>& order)
    {
        order.push_back(entries_[i].label);
        kill(i);
    }

    std::vector<Entry> entries_;
    std::uint64_t nextSeq_ = 1;
    std::size_t live_ = 0;
    Tick now_ = 0;
};

/**
 * Differential fuzz: a random stream of one-shot and intrusive
 * schedules, deschedules, reschedules and bounded runs must dispatch
 * in exactly the order the reference queue produces, with pending()
 * equal to its live count. The delays mix same-tick pileups, near
 * deltas (< 64 and < 4096 ticks), mid deltas (< 262144) and far ones
 * (< 2^30), so ties, interleaving with bounded runs and long idle
 * gaps all occur.
 */
TEST(EventKernel, DifferentialFuzzAgainstReferenceOrder)
{
    for (std::uint64_t seed :
         {std::uint64_t{1}, std::uint64_t{0xdeadbeef},
          std::uint64_t{0x5eed5eed5eed}}) {
        std::uint64_t rng = seed;
        auto rnd = [&rng] {
            rng = rng * 6364136223846793005ull + 1442695040888963407ull;
            return rng >> 11;
        };

        EventQueue eq;
        ReferenceQueue ref;
        std::vector<int> real_order, ref_order;

        // Single-use intrusive shots that a later step may
        // deschedule: (event, ref index).
        std::vector<std::pair<std::unique_ptr<EventFunctionWrapper>,
                              std::size_t>>
            shots;
        // Intrusive events that get rescheduled in place.
        constexpr int kWrappers = 8;
        std::vector<std::unique_ptr<EventFunctionWrapper>> wrappers;
        std::size_t wrapper_ref[kWrappers];
        for (int w = 0; w < kWrappers; ++w) {
            wrappers.push_back(std::make_unique<EventFunctionWrapper>(
                [&real_order, w] { real_order.push_back(10000 + w); },
                "fuzz-wrapper"));
            wrapper_ref[w] = ~std::size_t{0};
        }

        auto rand_delta = [&]() -> Tick {
            switch (rnd() % 8) {
            case 0:
            case 1:
            case 2:
                return rnd() % 64; // Near.
            case 3:
            case 4:
                return rnd() % 4096; // Near, wider.
            case 5:
                return rnd() % 262144; // Mid.
            case 6:
                return rnd() % (Tick{1} << 30); // Far.
            default:
                return 0; // Same-tick pileup.
            }
        };

        int next_label = 0;
        for (int op = 0; op < 1500; ++op) {
            ASSERT_EQ(eq.now(), ref.now()) << "seed " << seed;
            switch (rnd() % 16) {
            case 0:
            case 1:
            case 2: { // One-shot schedule.
                Tick when = ref.now() + rand_delta();
                int label = next_label++;
                eq.schedule(when, [&real_order, label] {
                    real_order.push_back(label);
                });
                ref.add(when, label);
                break;
            }
            case 3:
            case 4:
            case 5: { // Intrusive shot schedule.
                Tick when = ref.now() + rand_delta();
                int label = next_label++;
                auto ev = std::make_unique<EventFunctionWrapper>(
                    [&real_order, label] {
                        real_order.push_back(label);
                    },
                    "fuzz-shot");
                eq.schedule(*ev, when);
                shots.push_back({std::move(ev), ref.add(when, label)});
                break;
            }
            case 6:
            case 7: { // Deschedule (possibly already fired: no-op).
                if (shots.empty())
                    break;
                auto& [ev, ri] = shots[rnd() % shots.size()];
                eq.deschedule(*ev);
                ref.kill(ri);
                break;
            }
            case 8:
            case 9: { // Intrusive reschedule (in place).
                int w = static_cast<int>(rnd() % kWrappers);
                Tick when = ref.now() + rand_delta();
                eq.reschedule(*wrappers[static_cast<std::size_t>(w)],
                              when);
                if (wrapper_ref[w] != ~std::size_t{0})
                    ref.kill(wrapper_ref[w]);
                wrapper_ref[w] = ref.add(when, 10000 + w);
                break;
            }
            case 10:
            case 11: // Live count must agree with the reference.
                ASSERT_EQ(eq.pending(), ref.pending()) << "seed " << seed;
                break;
            default: { // Inclusive bounded run.
                Tick until = ref.now() + rnd() % 300;
                eq.runUntil(until);
                ref.runUntil(until, ref_order);
                break;
            }
            }
        }

        eq.runAll();
        ref.drain(ref_order);

        ASSERT_EQ(real_order, ref_order) << "seed " << seed;
        EXPECT_TRUE(eq.empty()) << "seed " << seed;
    }
}

/**
 * The Imc::wake shape: one intrusive wake-up is pulled earlier again
 * and again while slower intrusive timers and completions wait, and
 * some completions are called off. Every pull leaves a dead
 * entry behind, so dead entries keep outnumbering live ones and the
 * queue rebuilds its heap about twice per round. Dispatch must still
 * follow the reference order, and pending() must stay exact.
 */
TEST(EventKernel, PulledEarlierWakeKeepsOrderAcrossHeapRebuilds)
{
    EventQueue eq;
    ReferenceQueue ref;
    std::vector<int> real_order, ref_order;

    constexpr std::size_t kNone = ~std::size_t{0};
    EventFunctionWrapper wake([&real_order] { real_order.push_back(0); },
                              "wake");
    std::size_t wake_ref = kNone;
    auto pull_wake = [&](Tick at) {
        // Imc::wake: only an earlier tick moves a scheduled wake-up.
        if (wake.scheduled() && wake.when() <= at)
            return;
        eq.reschedule(wake, at);
        if (wake_ref != kNone)
            ref.kill(wake_ref);
        wake_ref = ref.add(at, 0);
    };

    constexpr int kTimers = 6;
    std::vector<std::unique_ptr<EventFunctionWrapper>> timers;
    std::vector<std::size_t> timer_ref(kTimers, kNone);
    for (int t = 0; t < kTimers; ++t) {
        timers.push_back(std::make_unique<EventFunctionWrapper>(
            [&real_order, t] { real_order.push_back(100 + t); },
            "timer"));
    }

    // Completions that are called off before they fire: intrusive,
    // scheduled and descheduled in the same step, so each is free
    // again for the next round.
    auto never = [] { ADD_FAILURE() << "a called-off event fired"; };
    std::array<EventFunctionWrapper, 3> called_off{
        EventFunctionWrapper(never, "called-off"),
        EventFunctionWrapper(never, "called-off"),
        EventFunctionWrapper(never, "called-off")};

    int next_label = 1000;
    for (int round = 0; round < 100; ++round) {
        const Tick base = eq.now();
        // Completions: one-shots, except every third, which is called
        // off before it fires.
        for (int k = 0; k < 8; ++k) {
            Tick when = base + 50 + static_cast<Tick>(
                                        (round * 37 + k * 11) % 400);
            int label = next_label++;
            if (k % 3 == 0) {
                auto& ev = called_off[static_cast<std::size_t>(k / 3)];
                eq.schedule(ev, when);
                ref.kill(ref.add(when, label));
                eq.deschedule(ev);
                continue;
            }
            eq.schedule(when, [&real_order, label] {
                real_order.push_back(label);
            });
            ref.add(when, label);
        }
        // One timer re-aimed per round, often after it fired.
        auto t = static_cast<std::size_t>(round % kTimers);
        Tick when = base + 500 + 13 * t;
        eq.reschedule(*timers[t], when);
        if (timer_ref[t] != kNone)
            ref.kill(timer_ref[t]);
        timer_ref[t] = ref.add(when, 100 + static_cast<int>(t));
        // The next command falls due sooner and sooner; some pulls
        // land on a completion's tick, where seq breaks the tie.
        for (Tick k = 0; k < 40; ++k) {
            pull_wake(base + 400 - 9 * k);
            ASSERT_EQ(eq.pending(), ref.pending()) << "round " << round;
        }
        Tick until = base + 120 + static_cast<Tick>(round % 50);
        eq.runUntil(until);
        ref.runUntil(until, ref_order);
        ASSERT_EQ(eq.pending(), ref.pending()) << "round " << round;
    }

    eq.runAll();
    ref.drain(ref_order);
    EXPECT_EQ(real_order, ref_order);
    EXPECT_TRUE(eq.empty());
    EXPECT_FALSE(wake.scheduled());
}

} // namespace
} // namespace nvdimmc
