/**
 * @file
 * End-to-end causal request spans with per-phase latency attribution.
 *
 * A span follows one host-visible driver operation (a 4 KB read or
 * write segment) across every component it touches: CPU thread ->
 * nvdc driver -> CP page -> refresh-window wait -> DMA -> FTL ->
 * Z-NAND. The driver opens a span when the op issues, every layer
 * stamps typed phase transitions as the op moves through it, and the
 * driver closes the span when the op's completion callback fires.
 *
 * Attribution is by *cursor tiling*: each span keeps a cursor that
 * starts at the open tick; phase(id, p, at) attributes [cursor, at)
 * to phase p and advances the cursor to at. Phase times therefore
 * tile the span exactly — their sum equals the end-to-end latency by
 * construction — and anything between the last mark and close() lands
 * in the Unattributed pseudo-phase, which the end-of-run auditor
 * flags when it exceeds one tick. The auditor also checks that every
 * opened span closed and that no span waited longer than the
 * configured window-wait cap (tREFI x detector-miss budget), turning
 * silent accounting bugs into test failures.
 *
 * Span IDs are deterministic: (channel << 48) | per-channel sequence,
 * allocated at host-op issue in the event queue's deterministic
 * order. Marks and closes run in that order too, so aggregation order
 * — and thus every exported table/JSON byte — is identical on every
 * rerun of the same config.
 *
 * Like the tracer, the layer is zero-overhead-off: open() pays one
 * predicted-not-taken branch and returns id 0, and every other call
 * on id 0 is an inline no-op. Simulated behaviour is identical with
 * spans on vs. off (the layer only observes; span_test pins this).
 *
 * The recorder is per thread: the enable flag, the open spans, the
 * aggregates and the audit counters all belong to the calling thread.
 * A system runs wholly on the thread that drives its EventQueue, so
 * the thread's recorder is that system's, and systems on different
 * threads (the bench driver's job pool) never see each other's spans.
 *
 * Exports: (1) a human-readable breakdown table and an exact-integer
 * JSON block (writeBreakdownTable/Json — the --latency-breakdown
 * bench flag), (2) Chrome trace flow/async events at close() when the
 * tracer is also on, so one miss shows as an arrow-connected lane
 * across the span.driver / span.nvmc / span.ftl / span.znand tracks
 * in Perfetto.
 */

#ifndef NVDIMMC_COMMON_SPAN_HH
#define NVDIMMC_COMMON_SPAN_HH

#include <array>
#include <cstdint>
#include <ostream>
#include <string>

#include "common/stats.hh"
#include "common/types.hh"

namespace nvdimmc::span
{

/** Span handle; 0 = no span (layer off or caller untracked). */
using Id = std::uint64_t;

/**
 * Request class a span is accounted under. A read opens as Hit and is
 * upgraded (classify) when the driver discovers it faults; upgrades
 * are monotone Hit -> CleanMiss -> DirtyMiss so a racing revalidate
 * can never downgrade a span. Writes open as Write and stay there —
 * the cache-state split (hit/miss) matters less than the op
 * direction for the paper's Fig 8 classes.
 */
enum class OpClass : std::uint8_t
{
    Hit = 0,       ///< Read serviced from the DRAM cache.
    CleanMiss = 1, ///< Read fault, victim clean (cachefill only).
    DirtyMiss = 2, ///< Read fault, dirty victim (writeback + fill).
    Write = 3,     ///< Host write (any cache state).
};

constexpr std::uint32_t kClassCount = 4;

/** Typed phase a slice of a span's latency is attributed to. */
enum class Phase : std::uint8_t
{
    // Driver / CPU side.
    CacheLookup = 0, ///< PTE walk + hit-path entry overhead.
    LockWait,        ///< Waiting on the per-channel driver mutex.
    LockHold,        ///< Critical-section hold (revalidate window).
    FaultEntry,      ///< Fault-path entry overhead (PTE miss trap).
    FillWait,        ///< Parked behind another op's fill/writeback.
    ZeroFill,        ///< Zero-fill of a never-written page.
    Clflush,         ///< Cache-line flushes (slot lines, CP line).
    Metadata,        ///< Slot metadata write to the reserved area.
    Memcpy,          ///< Host memcpy into/out of the DRAM slot.
    DriverPost,      ///< Driver completion epilogue.
    // CP protocol.
    CpQueue,   ///< Waiting for a free CP command index.
    CpWrite,   ///< Writing + flushing the CP command line.
    CpAck,     ///< Polling for the firmware's ack.
    // NVMC side.
    WindowWait, ///< Waiting for a refresh DMA window.
    FwDecode,   ///< Firmware command decode.
    DmaBurst,   ///< DMA data movement inside windows.
    FwPost,     ///< Firmware post-op overhead before the ack.
    // Backend.
    FtlMap,      ///< FTL lookup/allocate (incl. unmapped zero-read).
    NandRead,    ///< Z-NAND tR + channel transfer.
    NandProgram, ///< Z-NAND tPROG + channel transfer.
    // Transport link (CXL.mem hybrid backend).
    LinkWait, ///< Waiting for an outstanding-request credit.
    LinkReq,  ///< Request flit crossing the link to the device.
    DevCopy,  ///< Device-side copy between NAND buffer and DRAM slot.
    LinkResp, ///< Response flit crossing the link back to the host.
    // Accounting residue.
    Unattributed, ///< Close-time gap past the last mark (audited).
};

constexpr std::uint32_t kPhaseCount =
    static_cast<std::uint32_t>(Phase::Unattributed) + 1;

const char* toString(OpClass cls);
const char* toString(Phase p);

namespace detail
{

/** Inline and constinit: enabled() compiles to one thread-local
 *  load, with no TLS-init call. */
inline thread_local constinit bool gEnabled = false;

Id openImpl(std::uint32_t channel, Tick now, OpClass cls);
void classifyImpl(Id id, OpClass cls);
void phaseImpl(Id id, Phase p, Tick at);
void closeImpl(Id id, Tick now);

} // namespace detail

/** Is the span layer collecting? The one branch paid at op issue. */
inline bool enabled() { return detail::gEnabled; }

/** Start collecting on this thread (idempotent; aggregates
 *  accumulate until reset()). Call before building the system under
 *  test. */
void enable();

/** Stop collecting. Open spans and aggregates are kept so a
 *  subsequent audit()/export still sees the finished run. */
void disable();

/** Drop all spans, aggregates and audit counters (fresh run). */
void reset();

/**
 * Open a span for a host op issued on @p channel at tick @p now.
 * Returns 0 when the layer is off — every downstream call on id 0 is
 * a no-op, so callers thread the id unconditionally.
 */
inline Id
open(std::uint32_t channel, Tick now, OpClass cls)
{
    return enabled() ? detail::openImpl(channel, now, cls) : 0;
}

/** Upgrade the span's class (monotone; downgrades are ignored). */
inline void
classify(Id id, OpClass cls)
{
    if (id != 0)
        detail::classifyImpl(id, cls);
}

/** Attribute [cursor, @p at) to @p p and advance the cursor. */
inline void
phase(Id id, Phase p, Tick at)
{
    if (id != 0)
        detail::phaseImpl(id, p, at);
}

/** Close the span at tick @p now; leftover time past the cursor is
 *  recorded as Unattributed and audited. */
inline void
close(Id id, Tick now)
{
    if (id != 0)
        detail::closeImpl(id, now);
}

/**
 * Per-span window-wait budget: closes whose WindowWait total exceeds
 * the cap count as audit violations. Benches set it to
 * tREFI x detector-miss budget; 0 (default) disables the check.
 */
void setWindowWaitCap(Tick cap);
Tick windowWaitCap();

/** End-of-run accounting audit. */
struct AuditResult
{
    std::uint64_t opened = 0;
    std::uint64_t closed = 0;
    std::uint64_t leaked = 0; ///< Still open at audit time.
    /** Spans whose Unattributed residue exceeded one tick. */
    std::uint64_t unattributedSpans = 0;
    Tick maxUnattributed = 0;
    /** phase()/close() marks that ran backwards in span time. */
    std::uint64_t orderViolations = 0;
    /** Spans whose WindowWait total exceeded the configured cap. */
    std::uint64_t windowWaitViolations = 0;

    bool ok() const
    {
        return leaked == 0 && unattributedSpans == 0 &&
               orderViolations == 0 && windowWaitViolations == 0;
    }

    bool operator==(const AuditResult&) const = default;
};

AuditResult audit();

/** Spans opened / closed so far (for tests). */
std::uint64_t openedCount();
std::uint64_t closedCount();

/** Picoseconds attributed to phase @p p by closed spans, summed over
 *  every op class (the sum_ps fields of the breakdown's phase). */
std::uint64_t phaseSumPs(Phase p);

/**
 * Drain the *interval-reset* per-class end-to-end histograms: copy
 * the e2e latency distribution of every span closed since the last
 * drain (or reset()) into @p hist / @p sumPs, then clear the window.
 * The telemetry Collector calls this once per sampling interval —
 * the windowed-percentile (SLO) substrate. Closes run in
 * deterministic event order, so consecutive drains at fixed sample
 * ticks see identical windows on every rerun.
 */
void drainWindow(std::array<Histogram, kClassCount>& hist,
                 std::array<std::uint64_t, kClassCount>& sumPs);

/** Human-readable per-class x per-phase breakdown table. */
void writeBreakdownTable(std::ostream& os, const std::string& title);

/**
 * One JSON object: {"audit": {...}, "classes": {...}} with exact
 * integer fields only (counts and picosecond sums/percentiles), so
 * two deterministic runs produce byte-equal output. No trailing
 * newline.
 */
void writeBreakdownJson(std::ostream& os);

} // namespace nvdimmc::span

#endif // NVDIMMC_COMMON_SPAN_HH
