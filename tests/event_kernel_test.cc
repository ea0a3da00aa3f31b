/**
 * @file
 * Tests for the intrusive event kernel: same-tick FIFO interleaving
 * of intrusive and one-shot events, in-place cancel/reschedule,
 * periodic self-rescheduling, lazy-deletion bookkeeping, and a
 * regression check that the one-shot (legacy-API shim) path and the
 * intrusive path drive a simulation to byte-identical stats.
 */

#include <gtest/gtest.h>

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
    // pending()/empty() track live events only, even while cancelled
    // heap records are still unpopped.
    EventQueue eq;
    std::vector<int> trace;
    TraceEvent ev(trace, 0);
    eq.schedule(ev, 10);
    EventId id = eq.schedule(20, [] {});
    EXPECT_EQ(eq.pending(), 2u);

    eq.deschedule(ev);
    EXPECT_EQ(eq.pending(), 1u);
    eq.cancel(id);
    EXPECT_EQ(eq.pending(), 0u);
    EXPECT_TRUE(eq.empty());

    // runUntil over a fully-cancelled queue fires nothing and still
    // lands now() on the target tick.
    eq.runUntil(100);
    EXPECT_EQ(eq.now(), 100u);
    EXPECT_EQ(eq.eventsFired(), 0u);
    EXPECT_TRUE(trace.empty());
}

TEST(EventKernel, CancelledIdNeverAliasesALaterEvent)
{
    // The pooled slot behind a cancelled id is recycled, but the
    // generation stamp keeps the old id dead forever.
    EventQueue eq;
    bool late_fired = false;
    EventId a = eq.schedule(10, [&] { late_fired = true; });
    eq.cancel(a);
    int fires = 0;
    EventId b = eq.schedule(10, [&] { ++fires; });
    EXPECT_FALSE(eq.isPending(a));
    EXPECT_TRUE(eq.isPending(b));
    eq.cancel(a); // Still a no-op, even though the slot was reused.
    eq.runAll();
    EXPECT_EQ(fires, 1);
    EXPECT_FALSE(late_fired);
    EXPECT_FALSE(eq.isPending(b));
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
 * (bursty producer, jittered service times, mid-flight cancels) run
 * once through the one-shot legacy-API shim and once through
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

    // Same-tick contention with the server plus cancel churn.
    for (int i = 0; i < 40; ++i) {
        Tick at = 130 * static_cast<Tick>(1 + i % 7);
        eq.schedule(at, [&served] { ++served; });
        EventId dead = eq.schedule(at, [&served] { served += 1000; });
        eq.cancel(dead);
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
 * Differential fuzz: a random stream of schedule / cancel /
 * reschedule / bounded-run operations executed on the timing wheel
 * must dispatch in exactly the order a reference (tick, seq) min-scan
 * produces. The reference mirrors the kernel's contract directly —
 * one shared sequence counter stamped in program order, lazy
 * cancellation, inclusive runUntil bounds — so any wheel bug (cascade
 * ordering, front-slot demotion, memo staleness, bound handling)
 * shows up as an order divergence.
 */
TEST(EventKernel, DifferentialFuzzAgainstReferenceOrder)
{
    struct RefEntry
    {
        Tick when;
        std::uint64_t seq;
        int label;
        bool live;
    };

    for (std::uint64_t seed :
         {std::uint64_t{1}, std::uint64_t{0xdeadbeef},
          std::uint64_t{0x5eed5eed5eed}}) {
        std::uint64_t rng = seed;
        auto rnd = [&rng] {
            rng = rng * 6364136223846793005ull + 1442695040888963407ull;
            return rng >> 11;
        };

        EventQueue eq;
        std::vector<int> real_order, ref_order;
        std::vector<RefEntry> entries;
        Tick ref_now = 0;
        std::uint64_t ref_seq = 1;

        auto ref_best = [&]() -> std::size_t {
            std::size_t best = entries.size();
            for (std::size_t i = 0; i < entries.size(); ++i) {
                if (!entries[i].live)
                    continue;
                if (best == entries.size() ||
                    entries[i].when < entries[best].when ||
                    (entries[i].when == entries[best].when &&
                     entries[i].seq < entries[best].seq))
                    best = i;
            }
            return best;
        };
        auto ref_run = [&](Tick until) {
            for (;;) {
                std::size_t b = ref_best();
                if (b == entries.size() || entries[b].when > until)
                    break;
                entries[b].live = false;
                ref_order.push_back(entries[b].label);
            }
            ref_now = until;
        };

        // Cancelable one-shots: (id from the real queue, ref index).
        std::vector<std::pair<EventId, std::size_t>> shots;
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
                return rnd() % 64; // In-block (level 0).
            case 3:
            case 4:
                return rnd() % 4096; // Level-1 cascades.
            case 5:
                return rnd() % 262144; // Level-2 cascades.
            case 6:
                return rnd() % (Tick{1} << 30); // Deep levels.
            default:
                return 0; // Same-tick pileup.
            }
        };

        int next_label = 0;
        for (int op = 0; op < 1500; ++op) {
            ASSERT_EQ(eq.now(), ref_now) << "seed " << seed;
            switch (rnd() % 16) {
            case 0:
            case 1:
            case 2:
            case 3:
            case 4:
            case 5: { // One-shot schedule.
                Tick when = ref_now + rand_delta();
                int label = next_label++;
                EventId id = eq.schedule(
                    when, [&real_order, label] {
                        real_order.push_back(label);
                    });
                entries.push_back({when, ref_seq++, label, true});
                shots.push_back({id, entries.size() - 1});
                break;
            }
            case 6:
            case 7: { // Cancel (possibly already fired: no-op).
                if (shots.empty())
                    break;
                auto& [id, ri] = shots[rnd() % shots.size()];
                eq.cancel(id);
                entries[ri].live = false;
                break;
            }
            case 8:
            case 9: { // Intrusive reschedule (in place).
                int w = static_cast<int>(rnd() % kWrappers);
                Tick when = ref_now + rand_delta();
                eq.reschedule(*wrappers[static_cast<std::size_t>(w)],
                              when);
                if (wrapper_ref[w] != ~std::size_t{0})
                    entries[wrapper_ref[w]].live = false;
                entries.push_back({when, ref_seq++, 10000 + w, true});
                wrapper_ref[w] = entries.size() - 1;
                break;
            }
            case 10:
            case 11: { // Live count must agree with the reference.
                std::size_t live = 0;
                for (const RefEntry& e : entries)
                    live += e.live ? 1 : 0;
                ASSERT_EQ(eq.pending(), live) << "seed " << seed;
                break;
            }
            default: { // Inclusive bounded run.
                Tick until = ref_now + rnd() % 300;
                eq.runUntil(until);
                ref_run(until);
                break;
            }
            }
        }

        eq.runAll();
        for (;;) { // Drain the reference completely.
            std::size_t b = ref_best();
            if (b == entries.size())
                break;
            entries[b].live = false;
            ref_order.push_back(entries[b].label);
        }

        ASSERT_EQ(real_order, ref_order) << "seed " << seed;
        EXPECT_TRUE(eq.empty()) << "seed " << seed;
    }
}

} // namespace
} // namespace nvdimmc
