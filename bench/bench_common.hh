/**
 * @file
 * Shared scaffolding for the paper-reproduction benches.
 *
 * Every bench binary regenerates one table/figure from the paper's
 * evaluation (§VII) on the scaled bench configuration. Counters named
 * "paper_*" carry the paper's reported value for side-by-side
 * comparison; see EXPERIMENTS.md for the discussion. System-building
 * helpers live in bench_systems.hh (benchmark-harness-free, also used
 * by the sweep runner).
 */

#ifndef NVDIMMC_BENCH_BENCH_COMMON_HH
#define NVDIMMC_BENCH_BENCH_COMMON_HH

#include <benchmark/benchmark.h>

#include <cstdlib>
#include <cstring>
#include <fstream>
#include <iostream>
#include <string>

#include "bench_systems.hh"
#include "common/span.hh"
#include "common/telemetry.hh"
#include "common/trace.hh"

namespace nvdimmc::bench
{

/** Attach measured-vs-paper counters to a benchmark state. */
inline void
report(benchmark::State& state, const workload::FioResult& res,
       double paper_mbps, double paper_kiops)
{
    state.counters["MBps"] = res.mbps;
    state.counters["KIOPS"] = res.kiops;
    state.counters["lat_us"] = ticksToUs(res.meanLatency);
    if (paper_mbps > 0)
        state.counters["paper_MBps"] = paper_mbps;
    if (paper_kiops > 0)
        state.counters["paper_KIOPS"] = paper_kiops;
}

/** Observability switches a bench binary accepts on top of the
 *  Google Benchmark flags (stripped before benchmark::Initialize):
 *
 *      --trace[=path]   capture a Chrome trace_event JSON of the whole
 *                       run (default trace.json); open in Perfetto.
 *      --stats[=path]   append one JSON line per benchmark with the
 *                       system's full hierarchical stat dump
 *                       (default stats.jsonl).
 *      --channels=N     build every system with N memory channels
 *                       (N complete NVDIMM-C modules, page-interleaved;
 *                       default 1 = the PoC machine).
 *      --backend=nvdimmc|cxl|pmem
 *                       media-transport backend every system is built
 *                       with: the paper's CP-over-DDR4 module
 *                       (default), the CXL.mem hybrid device (same
 *                       DRAM cache + Z-NAND behind a modeled link, no
 *                       refresh windows, 256 B interleave), or the
 *                       emulated-pmem baseline machine.
 *      --latency-breakdown[=path]
 *                       record request spans and print a per-op-class
 *                       per-phase latency table after each benchmark,
 *                       appending a JSON line to @p path (default
 *                       latency_breakdown.jsonl). Deterministic: the
 *                       output is byte-identical on every rerun.
 *      --telemetry[=path]
 *                       sample the deterministic time-series telemetry
 *                       every 4 x tREFI of simulated time and append
 *                       one JSONL series per benchmark (default
 *                       telemetry.jsonl). Implies span recording (the
 *                       windowed SLO percentiles ride on it). Output
 *                       is byte-identical on every rerun.
 *      --flight-dump[=path]
 *                       arm the crash flight recorder (last-N spans +
 *                       last-K telemetry intervals) and dump it at
 *                       exit (default flight.json). It also dumps
 *                       automatically on span-audit failure or fault
 *                       campaign corruption.
 *      --trace-max-events=N
 *                       override the tracer's in-memory event cap.
 */
struct Observability
{
    bool traceOn = false;
    std::string tracePath = "trace.json";
    std::string statsPath; ///< Empty = stats export off.
    bool breakdownOn = false;
    std::string breakdownPath = "latency_breakdown.jsonl";
    bool telemetryOn = false;
    std::string telemetryPath = "telemetry.jsonl";
    bool flightOn = false;
    std::string flightPath = "flight.json";
    std::uint64_t traceMaxEvents = 0; ///< 0 = tracer default.
};

inline Observability&
observability()
{
    static Observability obs;
    return obs;
}

/**
 * Strip --trace / --stats from argv (call before
 * benchmark::Initialize) and start the tracer if asked. Tracing is
 * process-wide and single-threaded; benches run systems serially.
 */
inline void
initObservability(int* argc, char** argv)
{
    Observability& obs = observability();
    int out = 1;
    for (int i = 1; i < *argc; ++i) {
        const char* a = argv[i];
        if (std::strcmp(a, "--trace") == 0) {
            obs.traceOn = true;
        } else if (std::strncmp(a, "--trace=", 8) == 0) {
            obs.traceOn = true;
            obs.tracePath = a + 8;
        } else if (std::strcmp(a, "--stats") == 0) {
            obs.statsPath = "stats.jsonl";
        } else if (std::strncmp(a, "--stats=", 8) == 0) {
            obs.statsPath = a + 8;
        } else if (std::strcmp(a, "--latency-breakdown") == 0) {
            obs.breakdownOn = true;
        } else if (std::strncmp(a, "--latency-breakdown=", 20) == 0) {
            obs.breakdownOn = true;
            obs.breakdownPath = a + 20;
        } else if (std::strcmp(a, "--telemetry") == 0) {
            obs.telemetryOn = true;
        } else if (std::strncmp(a, "--telemetry=", 12) == 0) {
            obs.telemetryOn = true;
            obs.telemetryPath = a + 12;
        } else if (std::strcmp(a, "--flight-dump") == 0) {
            obs.flightOn = true;
        } else if (std::strncmp(a, "--flight-dump=", 14) == 0) {
            obs.flightOn = true;
            obs.flightPath = a + 14;
        } else if (std::strncmp(a, "--trace-max-events=", 19) == 0) {
            obs.traceMaxEvents = std::strtoull(a + 19, nullptr, 10);
        } else if (std::strncmp(a, "--channels=", 11) == 0) {
            int n = std::atoi(a + 11);
            if (n >= 1)
                benchChannels() = static_cast<std::uint32_t>(n);
        } else if (std::strncmp(a, "--backend=", 10) == 0) {
            backend::BackendKind kind;
            if (!backend::parseBackendKind(a + 10, kind)) {
                std::cerr << "unknown --backend '" << (a + 10)
                          << "' (expected nvdimmc, cxl or pmem)\n";
                std::exit(1);
            }
            benchBackend() = kind;
        } else {
            argv[out++] = argv[i];
        }
    }
    *argc = out;
    if (obs.traceOn)
        trace::start(obs.tracePath, obs.traceMaxEvents);
    if (obs.breakdownOn)
        span::enable();
    if (obs.telemetryOn) {
        // The windowed SLO percentiles drain the span layer's
        // interval-reset histograms, so telemetry implies spans.
        span::enable();
        telemetry::enable();
    }
    if (obs.flightOn) {
        span::enable(); // The span ring is the recorder's substrate.
        telemetry::flightArm(obs.flightPath);
    }
}

/** Append one {"bench": name, "_meta": {...}, "stats": {...}} line
 *  to the stats JSONL file (no-op unless --stats was given). The
 *  _meta.schema_version stamp lets check_bench_regression.py refuse
 *  cross-version comparisons instead of silently diffing. */
inline void
writeSystemStats(const std::string& name,
                 const core::NvdimmcSystem& sys)
{
    const Observability& obs = observability();
    if (obs.statsPath.empty())
        return;
    std::ofstream os(obs.statsPath, std::ios::app);
    if (!os)
        return;
    os << "{\"bench\":\"" << name
       << "\",\"_meta\":{\"schema_version\":"
       << telemetry::kSchemaVersion << "},\"stats\":";
    sys.dumpStatsJson(os);
    os << "}\n";
}

/** Same, for a backend-polymorphic device (tags the line with the
 *  backend so head-to-head runs can be merged from one JSONL). */
inline void
writeSystemStats(const std::string& name, const BenchDevice& dev)
{
    const Observability& obs = observability();
    if (obs.statsPath.empty())
        return;
    std::ofstream os(obs.statsPath, std::ios::app);
    if (!os)
        return;
    os << "{\"bench\":\"" << name << "\",\"backend\":\""
       << backend::toString(benchBackend())
       << "\",\"_meta\":{\"schema_version\":"
       << telemetry::kSchemaVersion << "},\"stats\":";
    dev.dumpStatsJson(os);
    os << "}\n";
}

/** Append the system's telemetry series (header + one line per
 *  interval) to the telemetry JSONL file (no-op unless --telemetry
 *  was given). Call while the system is still alive, right after the
 *  workload finishes. */
inline void
writeTelemetry(const std::string& name, core::NvdimmcSystem& sys)
{
    const Observability& obs = observability();
    if (!obs.telemetryOn || !sys.telemetryCollector())
        return;
    std::ofstream os(obs.telemetryPath, std::ios::app);
    if (os)
        sys.telemetryCollector()->writeJsonl(os, name);
}

/** Same, for a backend-polymorphic device. */
inline void
writeTelemetry(const std::string& name, BenchDevice& dev)
{
    const Observability& obs = observability();
    if (!obs.telemetryOn || !dev.telemetryCollector())
        return;
    std::ofstream os(obs.telemetryPath, std::ios::app);
    if (os)
        dev.telemetryCollector()->writeJsonl(os, name);
}

/**
 * Print the per-op-class per-phase latency table for the spans
 * recorded since the last call, append the JSON block to the
 * breakdown file, then reset the recorder so the next benchmark
 * starts clean (no-op unless --latency-breakdown was given).
 */
inline void
writeLatencyBreakdown(const std::string& name)
{
    const Observability& obs = observability();
    if (!obs.breakdownOn)
        return;
    span::writeBreakdownTable(std::cout, name);
    if (!obs.breakdownPath.empty()) {
        std::ofstream os(obs.breakdownPath, std::ios::app);
        if (os) {
            os << "{\"bench\":\"" << name << "\",\"breakdown\":";
            span::writeBreakdownJson(os);
            os << "}\n";
        }
    }
    span::reset();
}

/** Flush the trace file and the armed flight recorder (no-ops
 *  unless --trace / --flight-dump were given). */
inline void
finishObservability()
{
    if (observability().traceOn)
        trace::stop();
    if (observability().flightOn)
        telemetry::flightDump("flag");
}

} // namespace nvdimmc::bench

/** BENCHMARK_MAIN() plus the --trace / --stats observability flags
 *  (stripped from argv before Google Benchmark sees them). */
#define NVDIMMC_BENCH_MAIN()                                          \
    int main(int argc, char** argv)                                   \
    {                                                                 \
        nvdimmc::bench::initObservability(&argc, argv);               \
        benchmark::Initialize(&argc, argv);                           \
        if (benchmark::ReportUnrecognizedArguments(argc, argv))       \
            return 1;                                                 \
        benchmark::RunSpecifiedBenchmarks();                          \
        benchmark::Shutdown();                                        \
        nvdimmc::bench::finishObservability();                        \
        return 0;                                                     \
    }                                                                 \
    int main(int, char**)

#endif // NVDIMMC_BENCH_BENCH_COMMON_HH
