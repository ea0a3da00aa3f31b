/**
 * @file
 * Request-span layer tests (common/span.hh).
 *
 * Covers the observability tentpole:
 *  - deterministic span ids and the cursor-tiling attribution model
 *    (phase sums tile the end-to-end latency by construction);
 *  - the end-of-run auditor: leaked spans, unattributed residue,
 *    backwards marks and window-wait-cap violations all fail ok();
 *  - CP line transport: the span id survives encode/decode and rides
 *    the otherwise-unused word 4, so timing is span-agnostic;
 *  - zero-overhead-off: a full system run produces byte-identical
 *    stats with the span layer on vs. off;
 *  - a real cached run opens==closes thousands of spans, audits
 *    clean, and exports every op class it exercised;
 *  - trace integration: flow/async span events appear in the Chrome
 *    trace file, and the configurable capture cap drops+counts;
 *  - thread confinement: runs on two threads at once each export
 *    exactly what the same run exports alone.
 */

#include <gtest/gtest.h>

#include <cstdio>
#include <fstream>
#include <sstream>
#include <string>
#include <thread>

#include "common/span.hh"
#include "common/trace.hh"
#include "core/system.hh"
#include "nvmc/cp_protocol.hh"
#include "workload/fio.hh"

namespace nvdimmc
{
namespace
{

/** Fresh, enabled span layer for one test; clean on the way out. */
struct SpanScope
{
    SpanScope()
    {
        span::enable();
        span::reset();
    }
    ~SpanScope()
    {
        span::reset();
        span::disable();
    }
};

std::string
breakdownJson()
{
    std::ostringstream os;
    span::writeBreakdownJson(os);
    return os.str();
}

// ---------------------------------------------------------------------
// Round-trip and attribution.

TEST(SpanRoundTrip, IdsAreChannelShiftedSequences)
{
    SpanScope scope;
    // Per-channel sequences start at 1 so no real span is ever id 0.
    EXPECT_EQ(span::open(0, 10, span::OpClass::Hit),
              (span::Id{0} << 48) | 1);
    EXPECT_EQ(span::open(0, 10, span::OpClass::Hit),
              (span::Id{0} << 48) | 2);
    EXPECT_EQ(span::open(3, 10, span::OpClass::Hit),
              (span::Id{3} << 48) | 1);
    EXPECT_EQ(span::openedCount(), 3u);
}

TEST(SpanRoundTrip, PhaseSumsTileEndToEnd)
{
    SpanScope scope;
    span::Id id = span::open(2, 100, span::OpClass::Write);
    span::phase(id, span::Phase::LockWait, 150);
    span::phase(id, span::Phase::Memcpy, 400);
    span::close(id, 400);

    span::AuditResult a = span::audit();
    EXPECT_TRUE(a.ok());
    EXPECT_EQ(a.opened, 1u);
    EXPECT_EQ(a.closed, 1u);

    // [100,150) -> lock_wait, [150,400) -> memcpy; the sums tile the
    // 300-tick end-to-end latency exactly, nothing unattributed.
    std::string json = breakdownJson();
    EXPECT_NE(json.find("\"write\":{\"spans\":1,\"e2e\":{\"count\":1,"
                        "\"sum_ps\":300"),
              std::string::npos)
        << json;
    EXPECT_NE(json.find("\"lock_wait\":{\"count\":1,\"sum_ps\":50"),
              std::string::npos)
        << json;
    EXPECT_NE(json.find("\"memcpy\":{\"count\":1,\"sum_ps\":250"),
              std::string::npos)
        << json;
}

TEST(SpanRoundTrip, ClassUpgradeIsMonotone)
{
    SpanScope scope;
    span::Id id = span::open(0, 0, span::OpClass::Hit);
    span::classify(id, span::OpClass::DirtyMiss);
    span::classify(id, span::OpClass::CleanMiss); // Downgrade ignored.
    span::close(id, 10);
    std::string json = breakdownJson();
    EXPECT_NE(json.find("\"dirty_miss\":{\"spans\":1"),
              std::string::npos);
    EXPECT_EQ(json.find("\"clean_miss\""), std::string::npos);
}

TEST(SpanRoundTrip, DisabledLayerIsInert)
{
    span::reset();
    ASSERT_FALSE(span::enabled());
    span::Id id = span::open(5, 100, span::OpClass::Write);
    EXPECT_EQ(id, 0u);
    // Every downstream call on id 0 must be a no-op, not a violation.
    span::classify(id, span::OpClass::DirtyMiss);
    span::phase(id, span::Phase::Memcpy, 200);
    span::close(id, 300);
    span::AuditResult a = span::audit();
    EXPECT_EQ(a.opened, 0u);
    EXPECT_EQ(a.orderViolations, 0u);
}

// ---------------------------------------------------------------------
// Auditor failure modes.

TEST(SpanAudit, CatchesLeakedSpan)
{
    SpanScope scope;
    span::Id ok = span::open(0, 0, span::OpClass::Hit);
    span::close(ok, 5);
    (void)span::open(0, 0, span::OpClass::Hit); // Deliberately leaked.
    span::AuditResult a = span::audit();
    EXPECT_EQ(a.opened, 2u);
    EXPECT_EQ(a.closed, 1u);
    EXPECT_EQ(a.leaked, 1u);
    EXPECT_FALSE(a.ok());
}

TEST(SpanAudit, FlagsUnattributedResidue)
{
    SpanScope scope;
    span::Id id = span::open(0, 0, span::OpClass::Hit);
    span::phase(id, span::Phase::CacheLookup, 10);
    // Close 90 ticks past the last mark: the residue lands in the
    // Unattributed pseudo-phase and must trip the one-tick budget.
    span::close(id, 100);
    span::AuditResult a = span::audit();
    EXPECT_EQ(a.unattributedSpans, 1u);
    EXPECT_EQ(a.maxUnattributed, Tick{90});
    EXPECT_FALSE(a.ok());
}

TEST(SpanAudit, CountsBackwardsMarks)
{
    SpanScope scope;
    span::Id id = span::open(0, 100, span::OpClass::Hit);
    span::phase(id, span::Phase::CacheLookup, 200);
    span::phase(id, span::Phase::LockWait, 150); // Runs backwards.
    span::close(id, 200);
    span::AuditResult a = span::audit();
    EXPECT_EQ(a.orderViolations, 1u);
    EXPECT_FALSE(a.ok());
}

TEST(SpanAudit, EnforcesWindowWaitCap)
{
    SpanScope scope;
    span::setWindowWaitCap(50);
    EXPECT_EQ(span::windowWaitCap(), Tick{50});
    span::Id id = span::open(0, 0, span::OpClass::CleanMiss);
    span::phase(id, span::Phase::WindowWait, 200); // 200 > cap 50.
    span::close(id, 200);
    span::AuditResult a = span::audit();
    EXPECT_EQ(a.windowWaitViolations, 1u);
    EXPECT_FALSE(a.ok());

    // Under the cap is fine.
    span::reset();
    span::setWindowWaitCap(50);
    id = span::open(0, 0, span::OpClass::CleanMiss);
    span::phase(id, span::Phase::WindowWait, 40);
    span::close(id, 40);
    EXPECT_TRUE(span::audit().ok());
}

// ---------------------------------------------------------------------
// CP line transport.

TEST(SpanCp, SpanIdSurvivesEncodeDecode)
{
    nvmc::CpCommand cmd;
    cmd.phase = 7;
    cmd.opcode = nvmc::CpOpcode::WritebackCachefill;
    cmd.dramSlot = 123;
    cmd.nandPage = 456;
    cmd.dramSlot2 = 789;
    cmd.nandPage2 = 1011;
    cmd.spanId = (span::Id{3} << 48) | 0xdeadbeef;

    std::uint8_t line[64];
    nvmc::encodeCpCommand(cmd, line);
    EXPECT_EQ(nvmc::decodeCpCommand(line), cmd);

    // Span 0 (layer off) must encode too: the line's bytes differ only
    // in word 4, never in length or timing-relevant layout.
    cmd.spanId = 0;
    nvmc::encodeCpCommand(cmd, line);
    EXPECT_EQ(nvmc::decodeCpCommand(line).spanId, 0u);
}

// ---------------------------------------------------------------------
// Whole-system behaviour.

/** Short single-queue fio run over a preconditioned system; returns
 *  the full stats dump (the spans-on/off comparison surface). The
 *  region is twice the cached page count so the run exercises hits
 *  AND the fault path (CP command -> NVMC -> FTL -> NAND). */
std::string
systemRun()
{
    core::SystemConfig cfg = core::SystemConfig::scaledTest();
    cfg.channels = 2;
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
    std::ostringstream os;
    os.precision(17);
    os << res.mbps << " " << res.kiops << " " << res.ops << "\n";
    sys.dumpStats(os);
    return os.str();
}

TEST(SpanSystem, StatsByteIdenticalSpansOnVsOff)
{
    span::disable();
    span::reset();
    std::string off = systemRun();

    std::string on;
    {
        SpanScope scope;
        on = systemRun();
        EXPECT_GT(span::closedCount(), 0u);
    }
    // The layer only observes: the simulation must not move by a tick.
    EXPECT_EQ(off, on);
}

TEST(SpanSystem, BreakdownJsonByteIdenticalOnRerun)
{
    // Spans open, mark and close in the event queue's deterministic
    // order, so the exact-integer JSON export matches byte for byte
    // on a rerun: the --latency-breakdown determinism guarantee.
    auto run = [] {
        SpanScope scope;
        systemRun();
        EXPECT_TRUE(span::audit().ok());
        return breakdownJson();
    };
    std::string first = run();
    EXPECT_EQ(first, run());
    EXPECT_NE(first.find("\"classes\":{"), std::string::npos);
    EXPECT_NE(first.find("\"write\":{\"spans\":"), std::string::npos);
}

TEST(SpanSystem, RealRunAuditsCleanAndExportsClasses)
{
    SpanScope scope;
    systemRun();
    span::AuditResult a = span::audit();
    EXPECT_TRUE(a.ok());
    EXPECT_GT(a.opened, 100u);
    EXPECT_EQ(a.opened, a.closed);

    std::string json = breakdownJson();
    // A write-only run over a preconditioned region: every span is a
    // host write, and the export carries the full audit block.
    EXPECT_NE(json.find("\"write\":{\"spans\":"), std::string::npos);
    EXPECT_NE(json.find("\"audit\":{\"opened\":"), std::string::npos);

    std::ostringstream table;
    span::writeBreakdownTable(table, "span_test");
    EXPECT_NE(table.str().find("-- write:"), std::string::npos);
    EXPECT_NE(table.str().find("[ok]"), std::string::npos);
}

// ---------------------------------------------------------------------
// Trace integration.

std::string
slurp(const std::string& path)
{
    std::ifstream is(path, std::ios::binary);
    std::ostringstream os;
    os << is.rdbuf();
    return os.str();
}

TEST(SpanTrace, FlowAndAsyncEventsReachTraceFile)
{
    SpanScope scope;
    std::string path = testing::TempDir() + "/span_trace.json";
    trace::start(path);
    systemRun();
    ASSERT_TRUE(trace::stop());
    EXPECT_TRUE(span::audit().ok());

    std::string file = slurp(path);
    ASSERT_FALSE(file.empty());
    // Async op lanes and flow arrows, stitched across the span tracks.
    EXPECT_NE(file.find("\"cat\":\"span\""), std::string::npos);
    EXPECT_NE(file.find("\"cat\":\"spanflow\""), std::string::npos);
    EXPECT_NE(file.find("\"ph\":\"b\""), std::string::npos);
    EXPECT_NE(file.find("\"ph\":\"s\""), std::string::npos);
    EXPECT_NE(file.find("\"ph\":\"f\""), std::string::npos);
    EXPECT_NE(file.find("span.driver"), std::string::npos);
    EXPECT_NE(file.find("span.nvmc"), std::string::npos);
    std::remove(path.c_str());
}

TEST(SpanTrace, ConfigurableCapDropsAndCounts)
{
    std::string path = testing::TempDir() + "/span_cap_trace.json";
    trace::start(path, /*maxEvents=*/16);
    EXPECT_EQ(trace::maxEvents(), 16u);
    for (int i = 0; i < 100; ++i)
        trace::instant("cap.test", "tick", Tick(i));
    EXPECT_LE(trace::eventCount(), 16u);
    EXPECT_GT(trace::droppedCount(), 0u);
    ASSERT_TRUE(trace::stop());
    std::remove(path.c_str());
}

// ---------------------------------------------------------------------
// Thread confinement.

/** What one traced, span-recorded systemRun() leaves on its thread. */
struct Observed
{
    std::string breakdown;
    span::AuditResult audit;
    std::string trace;
};

Observed
observedRun(const std::string& tracePath)
{
    SpanScope scope;
    trace::start(tracePath);
    systemRun();
    EXPECT_TRUE(trace::stop());
    Observed out{breakdownJson(), span::audit(), slurp(tracePath)};
    std::remove(tracePath.c_str());
    return out;
}

TEST(SpanThreads, ConcurrentRunsEqualTheRunAlone)
{
    // The span registry and the trace capture belong to the thread
    // that runs the system, so two runs side by side each export
    // exactly what the run exports alone.
    const std::string dir = testing::TempDir();
    const Observed alone = observedRun(dir + "/span_alone.json");
    ASSERT_TRUE(alone.audit.ok());
    ASSERT_GT(alone.audit.closed, 0u);

    Observed a, b;
    std::thread ta([&] { a = observedRun(dir + "/span_thread_a.json"); });
    std::thread tb([&] { b = observedRun(dir + "/span_thread_b.json"); });
    ta.join();
    tb.join();
    for (const Observed* run : {&a, &b}) {
        EXPECT_EQ(run->breakdown, alone.breakdown);
        EXPECT_EQ(run->audit, alone.audit);
        // Traces run to megabytes: compare without printing them.
        EXPECT_TRUE(run->trace == alone.trace) << "trace files differ";
    }
}

} // namespace
} // namespace nvdimmc
