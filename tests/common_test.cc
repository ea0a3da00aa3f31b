/**
 * @file
 * Unit tests for the simulation kernel and utilities.
 */

#include <gtest/gtest.h>

#include <cstdio>
#include <fstream>
#include <limits>
#include <map>
#include <set>
#include <sstream>
#include <vector>

#include "common/config.hh"
#include "common/event_queue.hh"
#include "common/logging.hh"
#include "common/random.hh"
#include "common/sim_mutex.hh"
#include "common/sparse_store.hh"
#include "common/stats.hh"
#include "common/trace.hh"
#include "common/types.hh"

namespace nvdimmc
{
namespace
{

TEST(Types, UnitConversions)
{
    EXPECT_EQ(kNs, 1000u);
    EXPECT_EQ(kUs, 1000000u);
    EXPECT_DOUBLE_EQ(ticksToUs(7800 * kNs), 7.8);
    EXPECT_EQ(usToTicks(7.8), 7800 * kNs);
    EXPECT_NEAR(bytesPerTickToMBps(4096, 2230 * kNs), 1836.8, 1.0);
    EXPECT_NEAR(opsPerTickToKiops(1000, 1 * kMs), 1000.0, 0.01);
}

TEST(EventQueue, FiresInTickOrder)
{
    EventQueue eq;
    std::vector<int> order;
    eq.schedule(30, [&] { order.push_back(3); });
    eq.schedule(10, [&] { order.push_back(1); });
    eq.schedule(20, [&] { order.push_back(2); });
    eq.runAll();
    EXPECT_EQ(order, (std::vector<int>{1, 2, 3}));
    EXPECT_EQ(eq.now(), 30u);
}

TEST(EventQueue, SameTickFifoOrder)
{
    EventQueue eq;
    std::vector<int> order;
    for (int i = 0; i < 8; ++i)
        eq.schedule(100, [&order, i] { order.push_back(i); });
    eq.runAll();
    for (int i = 0; i < 8; ++i)
        EXPECT_EQ(order[static_cast<std::size_t>(i)], i);
}

TEST(EventQueue, RunUntilAdvancesTimeEvenWhenEmpty)
{
    EventQueue eq;
    eq.runUntil(5000);
    EXPECT_EQ(eq.now(), 5000u);
    bool fired = false;
    eq.schedule(6000, [&] { fired = true; });
    eq.runUntil(5500);
    EXPECT_FALSE(fired);
    eq.runUntil(6000);
    EXPECT_TRUE(fired);
}

TEST(EventQueue, SchedulingInThePastPanics)
{
    EventQueue eq;
    eq.schedule(100, [] {});
    eq.runAll();
    EXPECT_THROW(eq.schedule(50, [] {}), PanicError);
}

TEST(EventQueue, ScheduleAfterUsesCurrentTime)
{
    EventQueue eq;
    Tick seen = kTickNever;
    eq.schedule(100, [&] {
        eq.scheduleAfter(25, [&] { seen = eq.now(); });
    });
    eq.runAll();
    EXPECT_EQ(seen, 125u);
}

TEST(EventQueue, PendingCountsLiveEvents)
{
    EventQueue eq;
    EventFunctionWrapper a([] {}, "a");
    eq.schedule(a, 10);
    eq.schedule(20, [] {});
    EXPECT_EQ(eq.pending(), 2u);
    eq.deschedule(a);
    EXPECT_EQ(eq.pending(), 1u);
    eq.runAll();
    EXPECT_EQ(eq.pending(), 0u);
}

TEST(EventQueue, NestedSchedulingWhileRunning)
{
    EventQueue eq;
    int depth = 0;
    std::function<void()> recurse = [&] {
        if (++depth < 100)
            eq.scheduleAfter(1, recurse);
    };
    eq.schedule(0, recurse);
    eq.runAll();
    EXPECT_EQ(depth, 100);
    EXPECT_EQ(eq.now(), 99u);
}

TEST(Histogram, MeanMinMax)
{
    Histogram h;
    h.record(100);
    h.record(200);
    h.record(300);
    EXPECT_EQ(h.count(), 3u);
    EXPECT_EQ(h.min(), 100u);
    EXPECT_EQ(h.max(), 300u);
    EXPECT_DOUBLE_EQ(h.mean(), 200.0);
}

TEST(Histogram, PercentileMonotone)
{
    Histogram h;
    for (Tick t = 1; t <= 1000; ++t)
        h.record(t * kNs);
    Tick p10 = h.percentile(10);
    Tick p50 = h.percentile(50);
    Tick p99 = h.percentile(99);
    EXPECT_LE(p10, p50);
    EXPECT_LE(p50, p99);
    EXPECT_GE(p99, 500 * kNs);
    EXPECT_LE(h.percentile(0), h.percentile(100));
}

TEST(Histogram, MergeCombinesCounts)
{
    Histogram a, b;
    a.record(10);
    b.record(1000);
    a.merge(b);
    EXPECT_EQ(a.count(), 2u);
    EXPECT_EQ(a.min(), 10u);
    EXPECT_EQ(a.max(), 1000u);
}

TEST(Histogram, ZeroSample)
{
    Histogram h;
    h.record(0);
    EXPECT_EQ(h.count(), 1u);
    EXPECT_EQ(h.min(), 0u);
}

TEST(Histogram, TopBucketPercentileIsDefined)
{
    // Samples landing in the top log2 bucket used to compute the
    // bucket's upper edge as 1 << 64 — undefined behaviour on a
    // 64-bit Tick. The edge must clamp to max() instead. Run under
    // UBSan this is a regression test for the shift.
    Histogram h;
    h.record(std::numeric_limits<Tick>::max());
    h.record(std::numeric_limits<Tick>::max() - 1);
    h.record(Tick{1} << 63);
    for (double p : {0.0, 50.0, 99.0, 100.0}) {
        Tick v = h.percentile(p);
        EXPECT_GE(v, h.min());
        EXPECT_LE(v, h.max());
    }
}

TEST(Histogram, MergeWithEmptyIsNeutral)
{
    Histogram full, empty;
    full.record(42);
    full.merge(empty);
    EXPECT_EQ(full.count(), 1u);
    EXPECT_EQ(full.min(), 42u);
    EXPECT_EQ(full.max(), 42u);

    // The other direction must not drag in the empty histogram's
    // min sentinel.
    Histogram target;
    target.merge(full);
    EXPECT_EQ(target.count(), 1u);
    EXPECT_EQ(target.min(), 42u);
    EXPECT_EQ(target.max(), 42u);
    EXPECT_DOUBLE_EQ(target.mean(), 42.0);
}

TEST(Histogram, SingleSamplePercentiles)
{
    Histogram h;
    h.record(777);
    EXPECT_EQ(h.percentile(0), 777u);
    EXPECT_EQ(h.percentile(50), 777u);
    EXPECT_EQ(h.percentile(100), 777u);
}

TEST(ThroughputMeter, ZeroIntervalYieldsZero)
{
    ThroughputMeter m;
    m.recordOp(4096);
    EXPECT_DOUBLE_EQ(m.mbps(0), 0.0);
    EXPECT_DOUBLE_EQ(m.kiops(0), 0.0);
    m.reset();
    EXPECT_EQ(m.ops(), 0u);
    EXPECT_EQ(m.bytes(), 0u);
}

TEST(StatRegistry, CountersHistogramsAndJson)
{
    Counter c;
    c.inc(3);
    Histogram h;
    h.record(100);
    h.record(300);

    StatRegistry reg;
    reg.addCounter("cnt", c);
    reg.addHistogram("lat", h);
    reg.add("answer", [] { return 42.0; });

    auto vals = reg.collect();
    auto find = [&](const std::string& n) {
        for (const auto& [name, v] : vals)
            if (name == n)
                return v;
        ADD_FAILURE() << "missing stat " << n;
        return -1.0;
    };
    EXPECT_DOUBLE_EQ(find("cnt"), 3.0);
    EXPECT_DOUBLE_EQ(find("lat.count"), 2.0);
    EXPECT_DOUBLE_EQ(find("lat.mean"), 200.0);
    EXPECT_DOUBLE_EQ(find("lat.max"), 300.0);
    EXPECT_DOUBLE_EQ(find("answer"), 42.0);

    // Registered getters are live: later counter bumps show up.
    c.inc();
    EXPECT_DOUBLE_EQ(reg.collect()[0].second, 4.0);

    // The JSON dump is a single-line object (it gets embedded in
    // JSONL by the benches) with every registered key.
    std::ostringstream os;
    reg.dumpJson(os);
    std::string json = os.str();
    EXPECT_EQ(json.find('\n'), std::string::npos);
    EXPECT_EQ(json.front(), '{');
    EXPECT_EQ(json.back(), '}');
    EXPECT_NE(json.find("\"cnt\":4"), std::string::npos);
    EXPECT_NE(json.find("\"lat.p50\":"), std::string::npos);
}

TEST(Trace, RoundTripWritesLoadableJson)
{
    const char* path = "trace_test_out.json";
    EXPECT_FALSE(trace::enabled());
    trace::start(path);
    EXPECT_TRUE(trace::enabled());

    trace::duration("track.a", "span", 1 * kUs, 3 * kUs);
    trace::instant("track.a", "blip", 2 * kUs);
    trace::counter("track.b", "depth", 2 * kUs, 7.0);
    EXPECT_EQ(trace::eventCount(), 3u);

    ASSERT_TRUE(trace::stop());
    EXPECT_FALSE(trace::enabled());

    std::ifstream in(path);
    ASSERT_TRUE(in.good());
    std::stringstream buf;
    buf << in.rdbuf();
    std::string json = buf.str();
    // A JSON array with per-track metadata plus our three events.
    EXPECT_EQ(json.front(), '[');
    EXPECT_NE(json.find("\"ph\":\"X\""), std::string::npos);
    EXPECT_NE(json.find("\"ph\":\"i\""), std::string::npos);
    EXPECT_NE(json.find("\"ph\":\"C\""), std::string::npos);
    EXPECT_NE(json.find("\"span\""), std::string::npos);
    EXPECT_NE(json.find("track.b.depth"), std::string::npos);
    EXPECT_NE(json.find("thread_name"), std::string::npos);
    std::remove(path);

    // With tracing off again the record calls are no-ops.
    trace::duration("track.a", "ignored", 0, 1);
    EXPECT_EQ(trace::eventCount(), 0u);
}

TEST(Rng, Deterministic)
{
    Rng a(42), b(42);
    for (int i = 0; i < 100; ++i)
        EXPECT_EQ(a.next64(), b.next64());
}

TEST(Rng, DifferentSeedsDiffer)
{
    Rng a(1), b(2);
    int same = 0;
    for (int i = 0; i < 64; ++i) {
        if (a.next() == b.next())
            ++same;
    }
    EXPECT_LT(same, 4);
}

TEST(Rng, InstancesShareNoState)
{
    // Interleaved draws from two same-seed generators must equal an
    // isolated run of one: any hidden global state would skew them
    // (concurrent sweep points each own their generators).
    Rng a(7, 3), b(7, 3), ref(7, 3);
    std::vector<std::uint32_t> interleaved_a, isolated;
    for (int i = 0; i < 64; ++i) {
        interleaved_a.push_back(a.next());
        (void)b.next();
    }
    for (int i = 0; i < 64; ++i)
        isolated.push_back(ref.next());
    EXPECT_EQ(interleaved_a, isolated);
}

TEST(Rng, BelowStaysInBounds)
{
    Rng r(7);
    for (std::uint64_t bound : {1ull, 2ull, 3ull, 1000ull, 1ull << 40}) {
        for (int i = 0; i < 200; ++i)
            EXPECT_LT(r.below(bound), bound);
    }
    EXPECT_EQ(r.below(0), 0u);
}

TEST(Rng, UniformInUnitInterval)
{
    Rng r(9);
    double sum = 0;
    for (int i = 0; i < 10000; ++i) {
        double u = r.uniform();
        ASSERT_GE(u, 0.0);
        ASSERT_LT(u, 1.0);
        sum += u;
    }
    EXPECT_NEAR(sum / 10000.0, 0.5, 0.02);
}

TEST(Rng, ZipfSkewsLow)
{
    Rng r(11);
    std::uint64_t low = 0;
    const int n = 20000;
    for (int i = 0; i < n; ++i) {
        if (r.zipf(1000, 0.8) < 100)
            ++low;
    }
    // With strong skew, far more than 10% of draws land in the first
    // 10% of ranks.
    EXPECT_GT(low, static_cast<std::uint64_t>(n) * 3 / 10);
    // Theta 0 degenerates to uniform.
    low = 0;
    for (int i = 0; i < n; ++i) {
        if (r.zipf(1000, 0.0) < 100)
            ++low;
    }
    EXPECT_NEAR(static_cast<double>(low) / n, 0.1, 0.02);
}

TEST(SparseStore, UnwrittenLeavesReadZeroAndMakeNothing)
{
    SparseStore<std::uint8_t> store(4096);
    EXPECT_EQ(store.leaf(0), nullptr);
    EXPECT_EQ(store.leaf(std::uint64_t{1} << 40), nullptr);
    EXPECT_EQ(store.get(12345), 0u);
    EXPECT_EQ(store.get(std::uint64_t{1} << 50), 0u);
    std::vector<std::uint8_t> buf(10000, 0xee);
    store.read(4000, buf.data(), buf.size());
    for (std::uint8_t b : buf)
        ASSERT_EQ(b, 0u);
    EXPECT_EQ(store.leafCount(), 0u);
    int visited = 0;
    store.forEachLeaf([&](std::uint64_t, const std::uint8_t*) {
        ++visited;
    });
    EXPECT_EQ(visited, 0);

    // A fresh leaf is all zero, however it is made.
    const std::uint8_t* l = store.touch(7);
    EXPECT_EQ(store.leaf(7), l);
    for (std::size_t i = 0; i < store.leafLen(); ++i)
        ASSERT_EQ(l[i], 0u);
    EXPECT_EQ(store.leafCount(), 1u);
    EXPECT_THROW(SparseStore<std::uint8_t>(12), PanicError);
}

TEST(SparseStore, WritesAcrossALeafBoundary)
{
    SparseStore<std::uint8_t> store(16);
    std::vector<std::uint8_t> data(20);
    for (std::size_t i = 0; i < data.size(); ++i)
        data[i] = static_cast<std::uint8_t>(i + 1);
    store.write(10, data.data(), data.size());
    EXPECT_EQ(store.leafCount(), 2u) << "bytes 10..29 span leaves 0, 1";
    EXPECT_EQ(store.leaf(2), nullptr);

    std::vector<std::uint8_t> back(40, 0xee);
    store.read(0, back.data(), back.size());
    for (std::size_t i = 0; i < back.size(); ++i) {
        std::uint8_t want = (i >= 10 && i < 30)
                                ? static_cast<std::uint8_t>(i - 9)
                                : 0;
        EXPECT_EQ(back[i], want) << "byte " << i;
    }

    SparseStore<std::uint32_t> table(kTableLeafLen);
    table.at(kTableLeafLen - 1) = 5;
    table.at(kTableLeafLen) = 6;
    EXPECT_EQ(table.leafCount(), 2u);
    EXPECT_EQ(table.get(kTableLeafLen - 1), 5u);
    EXPECT_EQ(table.get(kTableLeafLen), 6u);
    EXPECT_EQ(table.get(kTableLeafLen + 1), 0u);
}

TEST(SparseStore, DroppedLeafReadsZeroWhenTouchedAgain)
{
    SparseStore<std::uint8_t> store(64);
    std::vector<std::uint8_t> ones(64, 1);
    store.write(3 * 64, ones.data(), ones.size());
    store.write(5 * 64, ones.data(), ones.size());
    ASSERT_EQ(store.leafCount(), 2u);

    store.drop(3);
    EXPECT_EQ(store.leaf(3), nullptr);
    EXPECT_EQ(store.get(3 * 64), 0u);
    EXPECT_EQ(store.leafCount(), 1u);
    store.drop(3); // Absent: nothing happens.
    store.drop(std::uint64_t{1} << 40);
    EXPECT_EQ(store.leafCount(), 1u);
    EXPECT_EQ(store.get(5 * 64 + 63), 1u) << "other leaves keep data";

    // The dropped leaf's memory comes back for the next leaf made, and
    // reads zero there.
    const std::uint8_t* again = store.touch(3);
    for (std::size_t i = 0; i < 64; ++i)
        ASSERT_EQ(again[i], 0u) << "byte " << i;
    const std::uint8_t* other = store.touch(9);
    for (std::size_t i = 0; i < 64; ++i)
        ASSERT_EQ(other[i], 0u) << "byte " << i;
    EXPECT_EQ(store.leafCount(), 3u);

    store.clear();
    EXPECT_EQ(store.leafCount(), 0u);
    EXPECT_EQ(store.leaf(5), nullptr);
    EXPECT_EQ(store.touch(5)[0], 0u);
}

TEST(SparseStore, IteratesLeavesInIndexOrder)
{
    SparseStore<std::uint32_t> store(4);
    // Across index tables (512 leaves each) and out of order.
    const std::vector<std::uint64_t> made = {700, 3, 100000, 511, 512, 0,
                                             1u << 20};
    for (std::uint64_t n : made)
        store.touch(n)[1] = static_cast<std::uint32_t>(n + 1);
    store.drop(512);

    std::vector<std::uint64_t> seen;
    store.forEachLeaf([&](std::uint64_t n, const std::uint32_t* l) {
        EXPECT_EQ(l[1], n + 1) << "leaf " << n;
        seen.push_back(n);
    });
    const std::vector<std::uint64_t> want = {0, 3, 511, 700, 100000,
                                             1u << 20};
    EXPECT_EQ(seen, want);
    EXPECT_EQ(store.leafCount(), want.size());
}

TEST(SparseStore, MatchesAMapReference)
{
    // Random touches, writes, reads and drops against a std::map of
    // the non-zero elements and a set of the leaves held.
    constexpr std::size_t kLeaf = 8;
    SparseStore<std::uint32_t> store(kLeaf);
    std::map<std::uint64_t, std::uint32_t> ref;
    std::set<std::uint64_t> leaves;
    auto refGet = [&](std::uint64_t i) {
        auto it = ref.find(i);
        return it == ref.end() ? 0u : it->second;
    };
    Rng rng(2024);
    for (int step = 0; step < 20000; ++step) {
        // Mostly a dense range, sometimes far above it.
        std::uint64_t i = rng.below(8) == 0
                              ? rng.below(std::uint64_t{1} << 32)
                              : rng.below(4096);
        switch (rng.below(5)) {
          case 0: { // One element.
            std::uint32_t v = rng.next();
            store.at(i) = v;
            ref[i] = v;
            leaves.insert(i / kLeaf);
            break;
          }
          case 1: { // A run of up to three leaves.
            std::vector<std::uint32_t> run(1 + rng.below(3 * kLeaf));
            for (std::uint32_t& v : run)
                v = rng.next();
            store.write(i, run.data(), run.size());
            for (std::size_t k = 0; k < run.size(); ++k) {
                ref[i + k] = run[k];
                leaves.insert((i + k) / kLeaf);
            }
            break;
          }
          case 2: { // Drop the leaf holding i.
            store.drop(i / kLeaf);
            std::uint64_t first = i / kLeaf * kLeaf;
            ref.erase(ref.lower_bound(first), ref.lower_bound(first + kLeaf));
            leaves.erase(i / kLeaf);
            break;
          }
          case 3: { // A run read.
            std::vector<std::uint32_t> got(1 + rng.below(3 * kLeaf), 7);
            store.read(i, got.data(), got.size());
            for (std::size_t k = 0; k < got.size(); ++k)
                ASSERT_EQ(got[k], refGet(i + k)) << "step " << step;
            break;
          }
          default:
            ASSERT_EQ(store.get(i), refGet(i)) << "step " << step;
            ASSERT_EQ(store.leaf(i / kLeaf) != nullptr,
                      leaves.count(i / kLeaf) != 0)
                << "step " << step;
        }
        ASSERT_EQ(store.leafCount(), leaves.size()) << "step " << step;
    }
    auto next = leaves.begin();
    store.forEachLeaf([&](std::uint64_t n, const std::uint32_t* l) {
        ASSERT_NE(next, leaves.end());
        EXPECT_EQ(n, *next++);
        for (std::size_t k = 0; k < kLeaf; ++k)
            EXPECT_EQ(l[k], refGet(n * kLeaf + k)) << "leaf " << n;
    });
    EXPECT_EQ(next, leaves.end());
}

TEST(Config, ParseAndTypedGet)
{
    Config c = Config::parse("a=1,b=2.5,c=hello,d=true,e=0x10");
    EXPECT_EQ(c.getUint("a", 0), 1u);
    EXPECT_EQ(c.getString("b", ""), "2.5");
    EXPECT_EQ(c.getString("c", ""), "hello");
    EXPECT_TRUE(c.getBool("d", false));
    EXPECT_EQ(c.getUint("e", 0), 16u);
    EXPECT_EQ(c.getUint("missing", 99), 99u);
}

TEST(Config, MalformedInputsThrow)
{
    EXPECT_THROW(Config::parse("noequals"), FatalError);
    EXPECT_THROW(Config::parse("=value"), FatalError);
    Config c = Config::parse("a=xyz");
    EXPECT_THROW(c.getUint("a", 0), FatalError);
    EXPECT_THROW(c.getBool("a", false), FatalError);
}

TEST(Config, RejectsUnreadKeys)
{
    Config c = Config::parse("a=1,typo=2");
    EXPECT_EQ(c.getUint("a", 0), 1u);
    try {
        c.rejectUnreadKeys();
        FAIL() << "an unread key must be rejected";
    } catch (const FatalError& e) {
        std::string what = e.what();
        EXPECT_NE(what.find("typo"), std::string::npos) << what;
        EXPECT_EQ(what.find("'a'"), std::string::npos) << what;
    }
    EXPECT_EQ(c.getUint("typo", 0), 2u);
    EXPECT_NO_THROW(c.rejectUnreadKeys());
}

TEST(SimMutex, FifoGrantOrder)
{
    EventQueue eq;
    SimMutex m(eq);
    std::vector<int> order;
    m.acquire([&] { order.push_back(0); });
    m.acquire([&] { order.push_back(1); });
    m.acquire([&] { order.push_back(2); });
    EXPECT_EQ(order.size(), 1u);
    EXPECT_EQ(m.waiters(), 2u);
    m.release();
    eq.runAll();
    // The second holder got the lock but has not released yet.
    EXPECT_EQ(order, (std::vector<int>{0, 1}));
    m.release();
    eq.runAll();
    EXPECT_EQ(order, (std::vector<int>{0, 1, 2}));
    m.release();
    EXPECT_FALSE(m.held());
    EXPECT_EQ(m.acquisitions(), 3u);
}

TEST(SimMutex, WakeOrderIsRepeatable)
{
    // Two identical contention patterns must grant in the same order:
    // the deferred-grant event ordering is part of the deterministic
    // surface every rerun relies on.
    auto run = [] {
        EventQueue eq;
        SimMutex m(eq);
        std::vector<int> order;
        for (int i = 0; i < 4; ++i) {
            eq.schedule(Tick{10}, [&eq, &m, &order, i] {
                m.acquire([&eq, &m, &order, i] {
                    order.push_back(i);
                    eq.scheduleAfter(5, [&m] { m.release(); });
                });
            });
        }
        eq.runAll();
        return order;
    };
    std::vector<int> first = run();
    EXPECT_EQ(first, run());
    EXPECT_EQ(first, (std::vector<int>{0, 1, 2, 3}));
}

TEST(SimMutex, ReleaseUnheldPanics)
{
    EventQueue eq;
    SimMutex m(eq);
    EXPECT_THROW(m.release(), PanicError);
}

TEST(Logging, PanicAndFatalThrow)
{
    EXPECT_THROW(panic("boom ", 42), PanicError);
    EXPECT_THROW(fatal("bad config"), FatalError);
}

/** Property sweep: percentile never exceeds max or undercuts min. */
class HistogramProperty : public ::testing::TestWithParam<int>
{
};

TEST_P(HistogramProperty, PercentilesBounded)
{
    Rng r(static_cast<std::uint64_t>(GetParam()));
    Histogram h;
    for (int i = 0; i < 500; ++i)
        h.record(r.inRange(1, 1'000'000'000));
    for (double p : {0.0, 25.0, 50.0, 75.0, 99.0, 100.0}) {
        Tick v = h.percentile(p);
        EXPECT_GE(v, h.min());
        EXPECT_LE(v, h.max());
    }
}

INSTANTIATE_TEST_SUITE_P(Seeds, HistogramProperty,
                         ::testing::Range(1, 11));

} // namespace
} // namespace nvdimmc
