/**
 * @file
 * Time-series telemetry tests (common/telemetry.hh).
 *
 * Covers the observability tentpole's determinism contract:
 *  - collector probe semantics (gauge, delta, exact-permille ratio)
 *    and the sampling cadence on the simulated-time event queue;
 *  - windowed SLO percentiles: every interval's per-class digest must
 *    match an offline recompute from the raw span records, using the
 *    spansClosed bucketing rule (window k covers close-sequence
 *    numbers in (spansClosed[k-1], spansClosed[k]]);
 *  - byte-identity: telemetry JSONL identical on a rerun of the same
 *    config, and sim results identical with telemetry on vs off;
 *  - the flight recorder: bounded rings, the explicit dump path, and
 *    the span-audit / fault-corruption auto-trigger paths.
 *
 * Suite names start with "Telemetry" so CI's TSan ctest filter picks
 * the whole file up.
 */

#include <gtest/gtest.h>

#include <cstdio>
#include <fstream>
#include <sstream>
#include <string>
#include <vector>

#include "common/event_queue.hh"
#include "common/span.hh"
#include "common/stats.hh"
#include "common/telemetry.hh"
#include "core/system.hh"
#include "fault/campaign.hh"
#include "workload/fio.hh"

namespace nvdimmc
{
namespace
{

/** Fresh, enabled telemetry + span layers for one test; clean (and
 *  disarmed) on the way out — both layers outlive the test on its
 *  thread. */
struct TelemetryScope
{
    TelemetryScope()
    {
        span::enable();
        span::reset();
        telemetry::enable();
    }
    ~TelemetryScope()
    {
        telemetry::flightDisarm();
        telemetry::disable();
        span::reset();
        span::disable();
    }
};

std::string
slurp(const std::string& path)
{
    std::ifstream is(path, std::ios::binary);
    std::ostringstream os;
    os << is.rdbuf();
    return os.str();
}

/** Short random-write fio run over a 2-channel scaledTest system with
 *  a fixed 10 us telemetry interval; the region is twice the cached
 *  page count so hits, misses and writebacks all show up. Returns the
 *  telemetry JSONL export; @p stats_out (optional) gets the full
 *  deterministic result + stats dump. */
std::string
telemetryRun(std::string* stats_out = nullptr)
{
    // Span counters (closedCount, window histograms) outlive a system
    // on its thread; start each run from zero so two runs export
    // identical series.
    span::reset();
    core::SystemConfig cfg = core::SystemConfig::scaledTest();
    cfg.channels = 2;
    cfg.telemetryIntervalTicks = 10 * kUs;
    core::NvdimmcSystem sys(cfg);
    const std::uint32_t pages = sys.totalSlotCount() - 64 * 2;
    sys.precondition(0, pages, true);

    workload::FioConfig fio;
    fio.pattern = workload::FioConfig::Pattern::RandWrite;
    fio.blockSize = 4096;
    fio.threads = 2;
    fio.regionBytes = std::uint64_t{pages} * 2 * 4096;
    fio.rampTime = 50 * kUs;
    fio.runTime = 500 * kUs;
    fio.seed = 42;
    workload::AccessFn fn = [&sys](Addr off, std::uint32_t len,
                                   bool is_write,
                                   std::function<void()> done) {
        if (is_write)
            sys.driver().write(off, len, nullptr, std::move(done));
        else
            sys.driver().read(off, len, nullptr, std::move(done));
    };
    workload::FioJob job(sys.eq(), fn, fio);
    workload::FioResult res = job.run();
    EXPECT_TRUE(sys.hardwareClean());

    if (stats_out) {
        std::ostringstream os;
        os.precision(17);
        os << res.mbps << " " << res.kiops << " " << res.ops << "\n";
        sys.dumpStats(os);
        *stats_out = os.str();
    }
    std::string jsonl;
    if (sys.telemetryCollector()) {
        std::ostringstream os;
        sys.telemetryCollector()->writeJsonl(os, "telemetry_test");
        jsonl = os.str();
    }
    return jsonl;
}

// ---------------------------------------------------------------------
// Collector probe semantics and cadence.

TEST(TelemetryCollector, GaugeDeltaAndRatioAreExactIntegers)
{
    TelemetryScope scope;
    EventQueue eq;
    telemetry::Collector c(eq, 10);

    std::uint64_t depth = 0, ops = 0, busy = 0, window = 0;
    c.addGauge("depth", [&] { return depth; });
    c.addDelta("ops", [&] { return ops; });
    c.addRatioPermille("util", [&] { return busy; },
                       [&] { return window; });

    depth = 3, ops = 100, busy = 25, window = 100;
    c.sample();
    depth = 1, ops = 150, busy = 25, window = 100;
    c.sample();

    ASSERT_EQ(c.records().size(), 2u);
    // Gauge: instantaneous. Delta: vs the previous sample (baseline
    // 0 without start()). Ratio: permille of the two deltas, exact
    // integer division, 0 on an idle denominator.
    EXPECT_EQ(c.records()[0].values,
              (std::vector<std::uint64_t>{3, 100, 250}));
    EXPECT_EQ(c.records()[1].values,
              (std::vector<std::uint64_t>{1, 50, 0}));
    EXPECT_EQ(c.probeNames(),
              (std::vector<std::string>{"depth", "ops", "util"}));
}

TEST(TelemetryCollector, SamplesOnSimulatedTimeCadence)
{
    TelemetryScope scope;
    EventQueue eq;
    telemetry::Collector c(eq, 10 * kUs);
    c.addGauge("now", [&] { return eq.now(); });
    c.start();
    eq.runFor(55 * kUs);
    c.stop();
    eq.runFor(100 * kUs); // No further samples after stop().

    ASSERT_EQ(c.records().size(), 5u);
    for (std::size_t k = 0; k < 5; ++k) {
        EXPECT_EQ(c.records()[k].at, Tick{(k + 1) * 10 * kUs});
        EXPECT_EQ(c.records()[k].index, k + 1);
        // The gauge read the sample tick.
        EXPECT_EQ(c.records()[k].values,
                  (std::vector<std::uint64_t>{c.records()[k].at}));
    }
}

// ---------------------------------------------------------------------
// Windowed SLO percentiles: offline recompute.

TEST(TelemetryWindow, PercentilesMatchOfflineRecompute)
{
    TelemetryScope scope;
    std::string path = testing::TempDir() + "/telemetry_window.json";
    // Cap far above the run's span count: the ring never evicts, so
    // ring index i is exactly close-sequence number i + 1.
    telemetry::flightArm(path, /*spanCap=*/1 << 22,
                         /*intervalCap=*/1 << 16);

    core::SystemConfig cfg = core::SystemConfig::scaledTest();
    cfg.channels = 2;
    cfg.telemetryIntervalTicks = 10 * kUs;
    core::NvdimmcSystem sys(cfg);
    const std::uint32_t pages = sys.totalSlotCount() - 64 * 2;
    sys.precondition(0, pages, true);

    workload::FioConfig fio;
    fio.pattern = workload::FioConfig::Pattern::RandWrite;
    fio.blockSize = 4096;
    fio.threads = 2;
    fio.regionBytes = std::uint64_t{pages} * 2 * 4096;
    fio.runTime = 500 * kUs;
    fio.seed = 7;
    workload::AccessFn fn = [&sys](Addr off, std::uint32_t len,
                                   bool is_write,
                                   std::function<void()> done) {
        if (is_write)
            sys.driver().write(off, len, nullptr, std::move(done));
        else
            sys.driver().read(off, len, nullptr, std::move(done));
    };
    workload::FioJob(sys.eq(), fn, fio).run();

    ASSERT_NE(sys.telemetryCollector(), nullptr);
    const auto& recs = sys.telemetryCollector()->records();
    ASSERT_GT(recs.size(), 10u);
    std::vector<telemetry::FlightSpan> spans = telemetry::flightSpans();
    ASSERT_GE(spans.size(), recs.back().spansClosed);

    // Recompute every interval's per-class digest from the raw span
    // ring with the spansClosed bucketing rule and the same log2
    // histogram the collector drains. Every field must match exactly.
    std::uint64_t prev = 0, nonempty = 0;
    for (const telemetry::IntervalRecord& rec : recs) {
        std::array<Histogram, span::kClassCount> hist;
        std::array<std::uint64_t, span::kClassCount> sums{};
        for (std::uint64_t i = prev; i < rec.spansClosed; ++i) {
            hist[spans[i].cls].record(spans[i].e2ePs);
            sums[spans[i].cls] += spans[i].e2ePs;
        }
        for (std::uint32_t c = 0; c < span::kClassCount; ++c) {
            const telemetry::WindowDigest& d = rec.window[c];
            EXPECT_EQ(d.count, hist[c].count())
                << "interval " << rec.index << " class " << c;
            EXPECT_EQ(d.sumPs, sums[c]);
            if (d.count == 0)
                continue;
            ++nonempty;
            EXPECT_EQ(d.p50, hist[c].percentile(50.0));
            EXPECT_EQ(d.p95, hist[c].percentile(95.0));
            EXPECT_EQ(d.p99, hist[c].percentile(99.0))
                << "interval " << rec.index << " class " << c;
            EXPECT_EQ(d.p999, hist[c].percentile(99.9));
            EXPECT_EQ(d.max, hist[c].max());
        }
        prev = rec.spansClosed;
    }
    // A write-heavy over-capacity run must fill write windows.
    EXPECT_GT(nonempty, 10u);
}

// ---------------------------------------------------------------------
// Determinism contract.

TEST(TelemetryDeterminism, JsonlByteIdenticalOnRerun)
{
    TelemetryScope scope;
    std::string t1 = telemetryRun();
    std::string t2 = telemetryRun();
    ASSERT_FALSE(t1.empty());
    EXPECT_GT(t1.size(), 1000u);
    EXPECT_EQ(t1, t2);
    // The header carries the schema stamp and probe list.
    EXPECT_NE(t1.find("\"schema_version\":1"), std::string::npos);
    EXPECT_NE(t1.find("nvdc.miss_queue_depth"), std::string::npos);
}

TEST(TelemetryDeterminism, SimResultsByteIdenticalTelemetryOnVsOff)
{
    telemetry::disable();
    span::disable();
    span::reset();
    std::string stats_off;
    telemetryRun(&stats_off);

    std::string stats_on;
    {
        TelemetryScope scope;
        std::string jsonl = telemetryRun(&stats_on);
        EXPECT_FALSE(jsonl.empty());
    }
    // Telemetry only observes: the simulation must not move by a tick.
    EXPECT_EQ(stats_off, stats_on);
}

// ---------------------------------------------------------------------
// Flight recorder.

TEST(TelemetryFlight, RingIsBoundedAndKeepsNewest)
{
    TelemetryScope scope;
    std::string path = testing::TempDir() + "/flight_ring.json";
    telemetry::flightArm(path, /*spanCap=*/4, /*intervalCap=*/2);
    for (Tick t = 1; t <= 10; ++t) {
        span::Id id = span::open(0, t * 100, span::OpClass::Hit);
        span::close(id, t * 100 + t);
    }
    std::vector<telemetry::FlightSpan> spans = telemetry::flightSpans();
    ASSERT_EQ(spans.size(), 4u);
    // Oldest first, and only the last four survive (e2e = 7..10).
    for (Tick i = 0; i < 4; ++i)
        EXPECT_EQ(spans[i].e2ePs, i + 7);
}

TEST(TelemetryFlight, ExplicitDumpWritesReasonSpansAndIntervals)
{
    TelemetryScope scope;
    std::string path = testing::TempDir() + "/flight_flag.json";
    telemetry::flightArm(path);
    EXPECT_TRUE(telemetry::flightArmed());

    span::Id id = span::open(3, 100, span::OpClass::Write);
    span::close(id, 350);
    EventQueue eq;
    telemetry::Collector c(eq, 10);
    c.addGauge("depth", [] { return std::uint64_t{5}; });
    c.sample();

    ASSERT_TRUE(telemetry::flightDump("flag"));
    EXPECT_EQ(telemetry::flightDumpCount(), 1u);
    std::string dump = slurp(path);
    EXPECT_NE(dump.find("\"reason\":\"flag\""), std::string::npos);
    EXPECT_NE(dump.find("\"schema_version\":1"), std::string::npos);
    EXPECT_NE(dump.find("\"cls\":\"write\""), std::string::npos);
    EXPECT_NE(dump.find("\"ch\":3"), std::string::npos);
    EXPECT_NE(dump.find("\"e2e_ps\":250"), std::string::npos);
    EXPECT_NE(dump.find("\"depth\":5"), std::string::npos);
    std::remove(path.c_str());

    // Disarmed: recording and dumping become no-ops.
    telemetry::flightDisarm();
    EXPECT_FALSE(telemetry::flightArmed());
    EXPECT_FALSE(telemetry::flightDump("flag"));
}

TEST(TelemetryFlight, SpanAuditFailureTriggersDump)
{
    TelemetryScope scope;
    std::string path = testing::TempDir() + "/flight_audit.json";
    telemetry::flightArm(path);

    span::Id ok = span::open(0, 0, span::OpClass::Hit);
    span::close(ok, 5);
    (void)span::open(0, 0, span::OpClass::Hit); // Deliberately leaked.
    span::AuditResult a = span::audit();
    EXPECT_FALSE(a.ok());

    EXPECT_EQ(telemetry::flightDumpCount(), 1u);
    std::string dump = slurp(path);
    EXPECT_NE(dump.find("\"reason\":\"span-audit\""),
              std::string::npos);
    std::remove(path.c_str());
}

TEST(TelemetryFlight, FaultCorruptionTriggersDump)
{
    TelemetryScope scope;
    std::string path = testing::TempDir() + "/flight_fault.json";
    telemetry::flightArm(path);

    // Without ADR the WPQ is lost on a cut, so committed records may
    // corrupt — the modeled hardware reality the recorder exists for.
    // Scan a few cut points; at least one must corrupt and dump.
    fault::PowerFailCampaignConfig cfg;
    cfg.seed = 1;
    cfg.adrWorks = false;
    fault::PowerFailCampaignResult full =
        fault::runPowerFailCampaign(cfg);
    ASSERT_EQ(telemetry::flightDumpCount(), 0u); // Uncut run is clean.

    std::uint64_t corrupt = 0;
    for (Tick denom : {6, 10, 8, 3, 5}) {
        cfg.haltAtTick = full.workloadElapsed / denom;
        fault::PowerFailCampaignResult res =
            fault::runPowerFailCampaign(cfg);
        corrupt += res.corruptRecords;
        if (corrupt > 0)
            break;
    }
    ASSERT_GT(corrupt, 0u)
        << "no-ADR cuts produced no corruption; pick other cut points";
    EXPECT_GE(telemetry::flightDumpCount(), 1u);
    std::string dump = slurp(path);
    EXPECT_NE(dump.find("\"reason\":\"fault-corruption\""),
              std::string::npos);
    std::remove(path.c_str());
}

} // namespace
} // namespace nvdimmc
