/**
 * @file
 * Deterministic time-series telemetry: windowed metrics on a
 * simulated-time cadence, streaming SLO percentiles, and a crash
 * flight recorder.
 *
 * The StatRegistry (stats.hh) answers "what happened over the whole
 * run"; this layer answers "what was happening at t = 1.3 ms". A
 * `Collector` samples registered probes every `interval` ticks of
 * *simulated* time, appending one exact-integer record per interval:
 *
 *  - **gauges** read an instantaneous value (miss-queue depth, WPQ
 *    occupancy, host-link credits in use, backend queue depth);
 *  - **deltas** read a cumulative counter and record the per-interval
 *    difference (DMA bytes, refreshes, GC relocations);
 *  - **ratio probes** divide two cumulative-counter deltas and record
 *    the result in exact-integer permille (window utilization);
 *  - **windowed span percentiles** drain the span layer's
 *    interval-reset per-class e2e histograms and record
 *    p50/p95/p99/p99.9/max plus count and sum — the streaming SLO
 *    substrate (ROADMAP item 3).
 *
 * Determinism contract (the repo's crown jewel, DESIGN §9):
 *
 *  1. *Telemetry-on never changes sim results.* Probes only observe;
 *     the sampling event adds queue work but never touches simulated
 *     state, so stats with telemetry on are byte-identical to
 *     telemetry off (pinned by telemetry_test).
 *  2. *Telemetry output is byte-identical on every rerun.* Samples
 *     fire at config-derived ticks and read probes in registration
 *     order, which is config-derived too.
 *
 * The **flight recorder** is a bounded ring of the last N completed
 * spans and last K telemetry intervals, dumped to JSON when the span
 * auditor fails, a fault campaign detects corruption, or a bench is
 * run with `--flight-dump`.
 *
 * Like trace:: and span::, the layer is zero-overhead when off (one
 * thread-local bool branch) and per thread: the enable flag, the
 * flight recorder and the interned probe names belong to the calling
 * thread, which is the thread that runs the system being observed.
 */

#ifndef NVDIMMC_COMMON_TELEMETRY_HH
#define NVDIMMC_COMMON_TELEMETRY_HH

#include <array>
#include <cstdint>
#include <functional>
#include <iosfwd>
#include <memory>
#include <string>
#include <vector>

#include "common/event_queue.hh"
#include "common/span.hh"
#include "common/types.hh"

namespace nvdimmc::telemetry
{

/** Version stamp for telemetry JSONL and flight-recorder dumps
 *  (`_meta.schema_version`); bump on any format change so
 *  check_bench_regression.py refuses cross-version comparisons. */
inline constexpr std::uint32_t kSchemaVersion = 1;

namespace detail
{
/** Inline and constinit: enabled() compiles to one thread-local
 *  load, with no TLS-init call. */
inline thread_local constinit bool gEnabled = false;
} // namespace detail

/** Is telemetry collection requested on this thread? Systems
 *  construct a Collector in their constructor iff this is set (the
 *  one branch paid when off). */
inline bool enabled() { return detail::gEnabled; }

/** Request telemetry: systems built after this call self-attach a
 *  Collector (interval from SystemConfig::telemetryIntervalTicks,
 *  0 = 4 x tREFI). */
void enable();
void disable();

/** Interval to sample at when the config leaves
 *  telemetryIntervalTicks at 0: @p trefi x 4 (~31 us of simulated
 *  time at the paper's 7.8 us tREFI). */
Tick defaultInterval(Tick trefi);

/** Percentile digest of one op-class's spans that *closed* inside one
 *  interval — drained from the span layer's interval-reset
 *  histograms. All fields are exact integers (picoseconds). */
struct WindowDigest
{
    std::uint64_t count = 0;
    Tick p50 = 0;
    Tick p95 = 0;
    Tick p99 = 0;
    Tick p999 = 0;
    Tick max = 0;
    std::uint64_t sumPs = 0;
};

/** One sampled interval. */
struct IntervalRecord
{
    Tick at = 0;              ///< Sample tick (k x interval).
    std::uint64_t index = 0;  ///< 1-based interval number.
    /** Total spans closed by this sample (span::closedCount());
     *  window k covers closes with seq in (spans[k-1], spans[k]] —
     *  the exact bucketing rule the offline-recompute test uses. */
    std::uint64_t spansClosed = 0;
    std::vector<std::uint64_t> values; ///< Parallel to probe list.
    std::array<WindowDigest, span::kClassCount> window;
};

/**
 * Samples registered probes on a simulated-time cadence. One per
 * simulated system; constructed (and probes registered) by the
 * system's constructor when telemetry::enabled(), sampling on the
 * system's host event queue.
 */
class Collector
{
  public:
    /** @param interval sample period in ticks (> 0). */
    Collector(EventQueue& eq, Tick interval);
    ~Collector();

    Collector(const Collector&) = delete;
    Collector& operator=(const Collector&) = delete;

    /** @name Probe registration (before start(); sampled in
     *  registration order). @{ */
    /** Instantaneous value. */
    void addGauge(std::string name, std::function<std::uint64_t()> get);
    /** Cumulative counter; the record holds the per-interval delta. */
    void addDelta(std::string name, std::function<std::uint64_t()> get);
    /** Exact-integer permille of two cumulative-counter deltas
     *  (1000 * d(num) / d(den); 0 when d(den) == 0). */
    void addRatioPermille(std::string name,
                          std::function<std::uint64_t()> num,
                          std::function<std::uint64_t()> den);
    /** @} */

    /** Schedule the first sample at now + interval. */
    void start();
    /** Cancel sampling (also done by the destructor). */
    void stop();

    /** Take one sample now. Normally driven by the embedded event;
     *  public so tests can sample at chosen ticks. */
    void sample();

    Tick interval() const { return interval_; }
    const std::vector<IntervalRecord>& records() const
    {
        return records_;
    }
    const std::vector<std::string>& probeNames() const
    {
        return names_;
    }

    /**
     * Export the series as JSONL: a `_meta` header line (schema
     * version, interval, probe list), then one line per interval with
     * exact-integer values only. Byte-identical across reruns of the
     * same config (determinism contract above).
     * @param label written as "bench" on the `_meta` header line
     *        only; interval lines carry no label, so a reader
     *        attributes them to the header above them.
     */
    void writeJsonl(std::ostream& os, const std::string& label) const;

  private:
    struct Probe;
    class SampleEvent;

    /** One interval as a JSON object (no trailing newline). */
    void writeRecord(std::ostream& os,
                     const IntervalRecord& rec) const;

    EventQueue& eq_;
    Tick interval_;
    std::vector<Probe> probes_;
    std::vector<std::string> names_;
    std::vector<IntervalRecord> records_;
    std::unique_ptr<SampleEvent> event_;
    bool running_ = false;
};

/** @name Flight recorder
 * This thread's crash-dump ring: the last N completed spans (pushed
 * by span::detail::closeImpl while armed) plus the last K telemetry
 * interval lines (pushed by every Collector::sample). Dumped to the
 * armed path when the span auditor fails (span::audit), a fault
 * campaign detects corruption, or a bench point finishes under
 * `--flight-dump`. Recording while disarmed is a no-op.
 * @{ */

/** One completed span as the flight ring stores it. */
struct FlightSpan
{
    std::uint8_t cls = 0;       ///< span::OpClass.
    std::uint32_t channel = 0;
    Tick openedAt = 0;
    Tick closedAt = 0;
    Tick e2ePs = 0; ///< Exactly the value span recorded (close-open).
};

/** Arm the recorder: keep the last @p spanCap spans and
 *  @p intervalCap telemetry lines, dumping to @p path. */
void flightArm(std::string path, std::size_t spanCap = 4096,
               std::size_t intervalCap = 128);
/** Disarm and clear the rings (does not remove a written dump). */
void flightDisarm();
bool flightArmed();

/** Record hooks (no-ops while disarmed). */
void flightRecordSpan(std::uint8_t cls, std::uint32_t channel,
                      Tick openedAt, Tick closedAt, Tick e2ePs);
void flightRecordInterval(const std::string& jsonLine);

/**
 * Write the dump file now (overwriting a previous dump at the same
 * path) and bump flightDumpCount().
 * @param reason stamped into the dump ("span-audit",
 *        "fault-corruption", "flag", ...).
 * @return true if the file was written (false while disarmed or on
 *         I/O failure).
 */
bool flightDump(const std::string& reason);

/** Dumps written since the recorder was armed. */
std::uint64_t flightDumpCount();

/** Snapshot of the span ring, oldest first (offline-recompute
 *  tests). */
std::vector<FlightSpan> flightSpans();

/** @} */

} // namespace nvdimmc::telemetry

#endif // NVDIMMC_COMMON_TELEMETRY_HH
