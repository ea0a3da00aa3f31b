#include "common/span.hh"

#include <algorithm>
#include <array>
#include <cinttypes>
#include <cstdio>
#include <unordered_map>
#include <vector>

#include "common/stats.hh"
#include "common/telemetry.hh"
#include "common/trace.hh"

namespace nvdimmc::span
{

const char*
toString(OpClass cls)
{
    switch (cls) {
      case OpClass::Hit: return "hit";
      case OpClass::CleanMiss: return "clean_miss";
      case OpClass::DirtyMiss: return "dirty_miss";
      case OpClass::Write: return "write";
    }
    return "?";
}

const char*
toString(Phase p)
{
    switch (p) {
      case Phase::CacheLookup: return "cache_lookup";
      case Phase::LockWait: return "lock_wait";
      case Phase::LockHold: return "lock_hold";
      case Phase::FaultEntry: return "fault_entry";
      case Phase::FillWait: return "fill_wait";
      case Phase::ZeroFill: return "zero_fill";
      case Phase::Clflush: return "clflush";
      case Phase::Metadata: return "metadata";
      case Phase::Memcpy: return "memcpy";
      case Phase::DriverPost: return "driver_post";
      case Phase::CpQueue: return "cp_queue";
      case Phase::CpWrite: return "cp_write";
      case Phase::CpAck: return "cp_ack";
      case Phase::WindowWait: return "window_wait";
      case Phase::FwDecode: return "fw_decode";
      case Phase::DmaBurst: return "dma_burst";
      case Phase::FwPost: return "fw_post";
      case Phase::FtlMap: return "ftl_map";
      case Phase::NandRead: return "nand_read";
      case Phase::NandProgram: return "nand_program";
      case Phase::LinkWait: return "link_wait";
      case Phase::LinkReq: return "link_req";
      case Phase::DevCopy: return "dev_copy";
      case Phase::LinkResp: return "link_resp";
      case Phase::Unattributed: return "unattributed";
    }
    return "?";
}

namespace detail
{

namespace
{

/** Which trace track a phase's slice lands on (layer crossing). */
const char*
phaseTrack(Phase p)
{
    switch (p) {
      case Phase::WindowWait:
      case Phase::FwDecode:
      case Phase::DmaBurst:
      case Phase::FwPost:
        return "span.nvmc";
      case Phase::FtlMap:
        return "span.ftl";
      case Phase::NandRead:
      case Phase::NandProgram:
        return "span.znand";
      case Phase::LinkWait:
      case Phase::LinkReq:
      case Phase::DevCopy:
      case Phase::LinkResp:
        return "span.link";
      default:
        return "span.driver";
    }
}

struct Slice
{
    Phase p;
    Tick start;
    Tick end;
};

struct SpanState
{
    Tick openedAt = 0;
    Tick cursor = 0;
    OpClass cls = OpClass::Hit;
    std::array<Tick, kPhaseCount> phaseTicks{};
    /** Trace-mode only: the attributed slices in span order. */
    std::vector<Slice> slices;
};

struct ClassAgg
{
    Histogram e2e;
    std::uint64_t e2eSumPs = 0;
    std::array<Histogram, kPhaseCount> phases;
    std::array<std::uint64_t, kPhaseCount> phaseSumsPs{};
    /** Interval-reset shadow of e2e: cleared by every drainWindow()
     *  call (the telemetry sampling cadence). */
    Histogram winE2e;
    std::uint64_t winSumPs = 0;
};

/** One thread's recorder. Opens, marks and closes arrive from the
 *  thread's one event loop in deterministic order, so aggregation
 *  order is deterministic too. */
struct Registry
{
    std::unordered_map<Id, SpanState> open;
    std::vector<std::uint64_t> channelSeq;
    std::array<ClassAgg, kClassCount> agg;
    Tick windowWaitCap = 0;
    std::uint64_t opened = 0;
    std::uint64_t closed = 0;
    std::uint64_t unattributedSpans = 0;
    Tick maxUnattributed = 0;
    std::uint64_t orderViolations = 0;
    std::uint64_t windowWaitViolations = 0;
};

Registry&
reg()
{
    thread_local Registry r;
    return r;
}

AuditResult
auditOf(const Registry& r)
{
    AuditResult a;
    a.opened = r.opened;
    a.closed = r.closed;
    a.leaked = r.open.size();
    a.unattributedSpans = r.unattributedSpans;
    a.maxUnattributed = r.maxUnattributed;
    a.orderViolations = r.orderViolations;
    a.windowWaitViolations = r.windowWaitViolations;
    return a;
}

} // namespace

Id
openImpl(std::uint32_t channel, Tick now, OpClass cls)
{
    Registry& r = reg();
    if (channel >= r.channelSeq.size())
        r.channelSeq.resize(channel + 1, 0);
    // Sequences start at 1 so channel 0's first span is not id 0.
    Id id = (Id{channel} << 48) | ++r.channelSeq[channel];
    SpanState& s = r.open[id];
    s.openedAt = now;
    s.cursor = now;
    s.cls = cls;
    ++r.opened;
    return id;
}

void
classifyImpl(Id id, OpClass cls)
{
    Registry& r = reg();
    auto it = r.open.find(id);
    if (it == r.open.end()) {
        ++r.orderViolations;
        return;
    }
    it->second.cls = std::max(it->second.cls, cls);
}

void
phaseImpl(Id id, Phase p, Tick at)
{
    Registry& r = reg();
    auto it = r.open.find(id);
    if (it == r.open.end()) {
        ++r.orderViolations;
        return;
    }
    SpanState& s = it->second;
    if (at < s.cursor) {
        ++r.orderViolations;
        at = s.cursor;
    }
    Tick d = at - s.cursor;
    s.phaseTicks[static_cast<std::uint32_t>(p)] += d;
    if (d > 0 && trace::enabled())
        s.slices.push_back({p, s.cursor, at});
    s.cursor = at;
}

void
closeImpl(Id id, Tick now)
{
    Registry& r = reg();
    auto it = r.open.find(id);
    if (it == r.open.end()) {
        ++r.orderViolations;
        return;
    }
    SpanState& s = it->second;
    if (now < s.cursor) {
        ++r.orderViolations;
        now = s.cursor;
    }
    Tick leftover = now - s.cursor;
    constexpr auto kUnatt =
        static_cast<std::uint32_t>(Phase::Unattributed);
    if (leftover > 0) {
        s.phaseTicks[kUnatt] += leftover;
        if (trace::enabled())
            s.slices.push_back({Phase::Unattributed, s.cursor, now});
    }
    if (s.phaseTicks[kUnatt] > 1) {
        ++r.unattributedSpans;
        r.maxUnattributed =
            std::max(r.maxUnattributed, s.phaseTicks[kUnatt]);
    }
    constexpr auto kWw = static_cast<std::uint32_t>(Phase::WindowWait);
    if (r.windowWaitCap > 0 && s.phaseTicks[kWw] > r.windowWaitCap)
        ++r.windowWaitViolations;

    ClassAgg& agg = r.agg[static_cast<std::uint32_t>(s.cls)];
    Tick e2e = now - s.openedAt;
    agg.e2e.record(e2e);
    agg.e2eSumPs += e2e;
    agg.winE2e.record(e2e);
    agg.winSumPs += e2e;
    if (telemetry::flightArmed())
        telemetry::flightRecordSpan(
            static_cast<std::uint8_t>(s.cls),
            static_cast<std::uint32_t>(id >> 48), s.openedAt, now,
            e2e);
    for (std::uint32_t p = 0; p < kPhaseCount; ++p) {
        if (s.phaseTicks[p] == 0)
            continue;
        agg.phases[p].record(s.phaseTicks[p]);
        agg.phaseSumsPs[p] += s.phaseTicks[p];
    }
    ++r.closed;

    if (trace::enabled()) {
        const char* cls = toString(s.cls);
        trace::asyncBegin("span.ops", cls, s.openedAt, id);
        trace::asyncEnd("span.ops", cls, now, id);
        for (std::size_t i = 0; i < s.slices.size(); ++i) {
            const Slice& sl = s.slices[i];
            const char* track = phaseTrack(sl.p);
            trace::duration(track, toString(sl.p), sl.start, sl.end);
            // Flow arrows stitch the slices into one Perfetto lane:
            // start on the first slice, step on each crossing, finish
            // on the last.
            if (i == 0)
                trace::flowStart(track, "span", sl.start, id);
            else if (i + 1 == s.slices.size())
                trace::flowEnd(track, "span", sl.start, id);
            else
                trace::flowStep(track, "span", sl.start, id);
        }
    }

    r.open.erase(it);
}

} // namespace detail

void
enable()
{
    detail::gEnabled = true;
}

void
disable()
{
    detail::gEnabled = false;
}

void
reset()
{
    detail::reg() = detail::Registry{};
}

void
setWindowWaitCap(Tick cap)
{
    detail::reg().windowWaitCap = cap;
}

Tick
windowWaitCap()
{
    return detail::reg().windowWaitCap;
}

AuditResult
audit()
{
    AuditResult res = detail::auditOf(detail::reg());
    // A failed audit is exactly the moment the flight recorder exists
    // for: dump the last-N spans + last-K telemetry intervals before
    // the harness aborts the run.
    if (!res.ok() && telemetry::flightArmed())
        telemetry::flightDump("span-audit");
    return res;
}

void
drainWindow(std::array<Histogram, kClassCount>& hist,
            std::array<std::uint64_t, kClassCount>& sumPs)
{
    detail::Registry& r = detail::reg();
    for (std::uint32_t c = 0; c < kClassCount; ++c) {
        detail::ClassAgg& agg = r.agg[c];
        hist[c] = agg.winE2e;
        sumPs[c] = agg.winSumPs;
        agg.winE2e.reset();
        agg.winSumPs = 0;
    }
}

std::uint64_t
phaseSumPs(Phase p)
{
    std::uint64_t total = 0;
    for (const detail::ClassAgg& agg : detail::reg().agg)
        total += agg.phaseSumsPs[static_cast<std::uint32_t>(p)];
    return total;
}

std::uint64_t
openedCount()
{
    return detail::reg().opened;
}

std::uint64_t
closedCount()
{
    return detail::reg().closed;
}

namespace
{

/** Picosecond tick count as fixed-point microseconds ("1.234"). */
std::string
usStr(Tick t)
{
    char buf[48];
    std::snprintf(buf, sizeof(buf), "%" PRIu64 ".%03" PRIu64,
                  t / kUs, (t % kUs) / kNs);
    return buf;
}

} // namespace

void
writeBreakdownTable(std::ostream& os, const std::string& title)
{
    detail::Registry& r = detail::reg();
    os << "== latency breakdown: " << title << " ==\n";
    for (std::uint32_t c = 0; c < kClassCount; ++c) {
        const detail::ClassAgg& agg = r.agg[c];
        if (agg.e2e.count() == 0)
            continue;
        os << "-- " << toString(static_cast<OpClass>(c)) << ": "
           << agg.e2e.count() << " spans, e2e p50 "
           << usStr(agg.e2e.percentile(50.0)) << " us / p95 "
           << usStr(agg.e2e.percentile(95.0)) << " us / p99 "
           << usStr(agg.e2e.percentile(99.0)) << " us / max "
           << usStr(agg.e2e.max()) << " us\n";
        char line[160];
        std::snprintf(line, sizeof(line),
                      "   %-14s %10s %7s %10s %10s %10s %10s\n",
                      "phase", "count", "share%", "p50_us", "p95_us",
                      "p99_us", "max_us");
        os << line;
        for (std::uint32_t p = 0; p < kPhaseCount; ++p) {
            const Histogram& h = agg.phases[p];
            if (h.count() == 0)
                continue;
            // Exact integer share in tenths of a percent: phase sums
            // tile the e2e latency, so the column sums to ~100%.
            std::uint64_t tenths =
                agg.e2eSumPs == 0
                    ? 0
                    : (agg.phaseSumsPs[p] * 1000 + agg.e2eSumPs / 2) /
                          agg.e2eSumPs;
            std::snprintf(
                line, sizeof(line),
                "   %-14s %10" PRIu64 " %6" PRIu64 ".%" PRIu64
                " %10s %10s %10s %10s\n",
                toString(static_cast<Phase>(p)), h.count(),
                tenths / 10, tenths % 10,
                usStr(h.percentile(50.0)).c_str(),
                usStr(h.percentile(95.0)).c_str(),
                usStr(h.percentile(99.0)).c_str(),
                usStr(h.max()).c_str());
            os << line;
        }
    }
    const AuditResult a = detail::auditOf(r);
    os << "-- audit: opened " << a.opened << ", closed " << a.closed
       << ", leaked " << a.leaked << ", unattributed "
       << a.unattributedSpans << ", order violations "
       << a.orderViolations << ", window-wait violations "
       << a.windowWaitViolations << (a.ok() ? " [ok]" : " [FAIL]")
       << "\n";
}

void
writeBreakdownJson(std::ostream& os)
{
    detail::Registry& r = detail::reg();
    auto histo = [&os](const Histogram& h, std::uint64_t sumPs) {
        os << "{\"count\":" << h.count() << ",\"sum_ps\":" << sumPs
           << ",\"p50_ps\":" << h.percentile(50.0)
           << ",\"p95_ps\":" << h.percentile(95.0)
           << ",\"p99_ps\":" << h.percentile(99.0)
           << ",\"max_ps\":" << h.max() << '}';
    };
    os << "{\"audit\":{\"opened\":" << r.opened
       << ",\"closed\":" << r.closed
       << ",\"leaked\":" << r.open.size()
       << ",\"unattributed_spans\":" << r.unattributedSpans
       << ",\"max_unattributed_ps\":" << r.maxUnattributed
       << ",\"order_violations\":" << r.orderViolations
       << ",\"window_wait_violations\":" << r.windowWaitViolations
       << ",\"window_wait_cap_ps\":" << r.windowWaitCap
       << "},\"classes\":{";
    bool firstClass = true;
    for (std::uint32_t c = 0; c < kClassCount; ++c) {
        const detail::ClassAgg& agg = r.agg[c];
        if (agg.e2e.count() == 0)
            continue;
        if (!firstClass)
            os << ',';
        firstClass = false;
        os << '"' << toString(static_cast<OpClass>(c))
           << "\":{\"spans\":" << agg.e2e.count() << ",\"e2e\":";
        histo(agg.e2e, agg.e2eSumPs);
        os << ",\"phases\":{";
        bool firstPhase = true;
        for (std::uint32_t p = 0; p < kPhaseCount; ++p) {
            if (agg.phases[p].count() == 0)
                continue;
            if (!firstPhase)
                os << ',';
            firstPhase = false;
            os << '"' << toString(static_cast<Phase>(p)) << "\":";
            histo(agg.phases[p], agg.phaseSumsPs[p]);
        }
        os << "}}";
    }
    os << "}}";
}

} // namespace nvdimmc::span
