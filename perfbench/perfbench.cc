/**
 * @file
 * One benchmark run of one workload, in its own process.
 *
 * Builds the system the workload names, preconditions it, runs the
 * closed-loop load and prints one JSON line on stdout: host set-up and
 * phase times, the simulated per-op latencies and throughput the
 * benchmark measured itself (eq.now() at each driver call and at its
 * wrapped completion), and the correctness counters. run.py launches
 * this binary once per repetition and turns the lines into metrics.
 *
 *     perfbench --workload NAME [--seed N] [--trace] [--short]
 *
 * --trace adds request spans, the stats dump before and after the
 * phase, and host self times of the calls this file makes into the
 * driver and of the workload's completion callbacks; the rest of the
 * phase is the event kernel and everything it dispatches.
 * --short shrinks every window for the self-test.
 */

#include <algorithm>
#include <array>
#include <chrono>
#include <cmath>
#include <cstdint>
#include <cstdlib>
#include <functional>
#include <iostream>
#include <memory>
#include <sstream>
#include <string>
#include <vector>

#include "common/random.hh"
#include "common/span.hh"
#include "core/system.hh"
#include "workload/fio.hh"
#include "workload/mixedload.hh"

namespace nvdimmc::perfbench
{
namespace
{

using Clock = std::chrono::steady_clock;

double
secondsSince(Clock::time_point t0)
{
    return std::chrono::duration<double>(Clock::now() - t0).count();
}

/**
 * Host self time per layer along the benchmark's own calls. Frames
 * nest: a frame's self time is its duration minus its children's, so
 * the buckets tile the root frame (the phase) exactly.
 */
class SelfTimer
{
  public:
    enum Bucket : std::size_t { Kernel, Driver, Workload, kBuckets };

    void
    enter(Bucket b)
    {
        stack_.push_back({b, Clock::now(), Clock::duration::zero()});
    }

    void
    leave()
    {
        Frame f = stack_.back();
        stack_.pop_back();
        Clock::duration dur = Clock::now() - f.start;
        self_[f.bucket] += dur - f.children;
        if (!stack_.empty())
            stack_.back().children += dur;
    }

    double
    seconds(Bucket b) const
    {
        return std::chrono::duration<double>(self_[b]).count();
    }

  private:
    struct Frame
    {
        Bucket bucket;
        Clock::time_point start;
        Clock::duration children;
    };
    std::vector<Frame> stack_;
    std::array<Clock::duration, kBuckets> self_{};
};

/** Times one frame when a timer is attached; free when it is not. */
class Scope
{
  public:
    Scope(SelfTimer* t, SelfTimer::Bucket b) : t_(t)
    {
        if (t_)
            t_->enter(b);
    }
    ~Scope()
    {
        if (t_)
            t_->leave();
    }
    Scope(const Scope&) = delete;
    Scope& operator=(const Scope&) = delete;

  private:
    SelfTimer* t_;
};

/**
 * Per-op simulated latency, measured from the driver call to the
 * wrapped completion. Only completions inside (windowStart, windowEnd]
 * are sampled, the same half-open window FioJob counts ops over.
 */
struct OpLog
{
    EventQueue* eq = nullptr;
    SelfTimer* timer = nullptr;
    Tick windowStart = 0;
    Tick windowEnd = kTickNever;
    std::uint64_t issued = 0;
    std::uint64_t completed = 0;
    std::vector<Tick> latencies;

    /** Wrap a completion: count it, sample it, time it as workload
     *  code (the driver calls it makes nest inside). */
    std::function<void()>
    wrap(std::function<void()> done)
    {
        ++issued;
        return [this, t0 = eq->now(), done = std::move(done)] {
            Tick t = eq->now();
            ++completed;
            if (t > windowStart && t <= windowEnd)
                latencies.push_back(t - t0);
            Scope s(timer, SelfTimer::Workload);
            done();
        };
    }
};

struct Options
{
    std::string workload;
    std::uint64_t seed = 1;
    bool trace = false;
    bool shortWindow = false;
};

[[noreturn]] void
usage(const std::string& why)
{
    std::cerr << "perfbench: " << why
              << "\nusage: perfbench --workload "
                 "cached_rw_4ch|uncached_rw_1ch|mixedload_250u "
                 "[--seed N] [--trace] [--short]\n";
    std::exit(2);
}

Options
parseArgs(int argc, char** argv)
{
    Options o;
    for (int i = 1; i < argc; ++i) {
        std::string a = argv[i];
        if (a == "--trace") {
            o.trace = true;
        } else if (a == "--short") {
            o.shortWindow = true;
        } else if ((a == "--workload" || a == "--seed") &&
                   i + 1 < argc) {
            std::string v = argv[++i];
            if (a == "--workload") {
                o.workload = v;
            } else {
                char* end = nullptr;
                o.seed = std::strtoull(v.c_str(), &end, 10);
                if (v.empty() || *end != '\0')
                    usage("bad --seed " + v);
            }
        } else {
            usage("unknown argument " + a);
        }
    }
    if (o.workload.empty())
        usage("--workload is required");
    return o;
}

/** What every workload reports, traced or not. */
struct Result
{
    double buildS = 0;
    double preconditionS = 0;
    double phaseS = 0;
    Tick simElapsed = 0;  ///< Simulated duration of the window.
    Tick phaseTicks = 0;  ///< Simulated duration of the whole phase.
    /** Did the workload module's own accounting agree (FioJob's op
     *  count; every mixed-load transaction finished)? */
    bool refOk = false;
    std::uint64_t validationFailures = 0;
    std::uint64_t eventsBefore = 0;
    std::uint64_t eventsAfter = 0;
    std::string statsBefore;
    std::string statsAfter;
};

std::string
statsJson(const core::NvdimmcSystem& sys)
{
    std::ostringstream os;
    sys.dumpStatsJson(os);
    return os.str();
}

core::SystemConfig
baseConfig(std::uint32_t channels, bool bulk_memcpy)
{
    core::SystemConfig cfg = core::SystemConfig::scaledBench();
    cfg.channels = channels;
    cfg.threads = 0;
    cfg.memcpy.bulkMode = bulk_memcpy;
    // A span stuck in window waits past 32 tREFI is an accounting bug
    // (the bound the paper benches arm).
    span::setWindowWaitCap(cfg.refresh.tREFI * 32);
    return cfg;
}

std::unique_ptr<core::NvdimmcSystem>
buildSystem(const core::SystemConfig& cfg, Result& r)
{
    auto t0 = Clock::now();
    auto sys = std::make_unique<core::NvdimmcSystem>(cfg);
    r.buildS = secondsSince(t0);
    return sys;
}

void
beginPhase(core::NvdimmcSystem& sys, const Options& o, Result& r)
{
    if (o.trace)
        r.statsBefore = statsJson(sys);
    r.eventsBefore = sys.eq().eventsFired();
}

void
endPhase(core::NvdimmcSystem& sys, const Options& o, Result& r)
{
    r.eventsAfter = sys.eq().eventsFired();
    if (o.trace)
        r.statsAfter = statsJson(sys);
}

/**
 * 4 KB random ops from closed-loop FIO threads, each op a read or a
 * write by the benchmark's own seeded draw. FioJob picks the offsets
 * and runs ramp + window + drain.
 */
void
runFio(core::NvdimmcSystem& sys, OpLog& log, const Options& o,
       unsigned threads, Addr base, std::uint64_t bytes, Tick ramp,
       Tick window, Result& r)
{
    Rng direction(o.seed, 0x7065726662656e63ull);
    workload::AccessFn access =
        [&sys, &log, &direction](Addr off, std::uint32_t len, bool,
                                 std::function<void()> done) {
            bool is_write = direction.below(2) == 1;
            auto cb = log.wrap(std::move(done));
            Scope s(log.timer, SelfTimer::Driver);
            if (is_write)
                sys.driver().write(off, len, nullptr, std::move(cb));
            else
                sys.driver().read(off, len, nullptr, std::move(cb));
        };

    workload::FioConfig fc;
    fc.pattern = workload::FioConfig::Pattern::RandRead;
    fc.blockSize = 4096;
    fc.threads = threads;
    fc.regionOffset = base;
    fc.regionBytes = bytes;
    fc.rampTime = ramp;
    fc.runTime = window;
    fc.seed = o.seed;

    Tick t0 = sys.eq().now();
    log.windowStart = t0 + ramp;
    log.windowEnd = t0 + ramp + window;
    workload::FioJob job(sys.eq(), access, fc);

    beginPhase(sys, o, r);
    auto p0 = Clock::now();
    workload::FioResult fr;
    {
        Scope phase(log.timer, SelfTimer::Kernel);
        fr = job.run();
    }
    r.phaseS = secondsSince(p0);
    endPhase(sys, o, r);

    r.simElapsed = window;
    r.phaseTicks = sys.eq().now() - t0;
    r.refOk = fr.ops == log.latencies.size();
}

/** Fig 8/9 cached path at channel scale: every access hits. */
std::unique_ptr<core::NvdimmcSystem>
cachedRw4ch(const Options& o, OpLog& log, Result& r)
{
    auto sys = buildSystem(baseConfig(4, true), r);
    auto t0 = Clock::now();
    // Leave 64 slots per channel free so hits never evict.
    std::uint32_t slots = sys->totalSlotCount() - 64 * 4;
    sys->precondition(0, slots, true);
    r.preconditionS = secondsSince(t0);

    log.eq = &sys->eq();
    runFio(*sys, log, o, 16, 0, std::uint64_t{slots} * 4096,
           o.shortWindow ? 1 * kMs : 2 * kMs,
           o.shortWindow ? 3 * kMs : 30 * kMs, r);
    return sys;
}

/** Fig 8 uncached path: a dirty eviction plus a cachefill per op. */
std::unique_ptr<core::NvdimmcSystem>
uncachedRw1ch(const Options& o, OpLog& log, Result& r)
{
    auto sys = buildSystem(baseConfig(1, true), r);
    auto t0 = Clock::now();
    sys->precondition(0, sys->totalSlotCount(), true);
    // Every block holds data, so every fill is a real cachefill.
    sys->driver().markEverWritten(
        0, sys->driver().capacityBytes() / 4096);
    r.preconditionS = secondsSince(t0);

    Addr base = std::uint64_t{sys->totalSlotCount() + 128} * 4096;
    log.eq = &sys->eq();
    runFio(*sys, log, o, 1, base,
           sys->driver().capacityBytes() - base,
           o.shortWindow ? 1 * kMs : 5 * kMs,
           o.shortWindow ? 10 * kMs : 100 * kMs, r);
    return sys;
}

/** §VII-B5 integrity run on a cold cache, real bytes end to end. */
std::unique_ptr<core::NvdimmcSystem>
mixedload250u(const Options& o, OpLog& l, Result& r)
{
    auto sys = buildSystem(baseConfig(1, false), r);
    core::NvdimmcSystem& s = *sys;
    l.eq = &s.eq();

    workload::DataDevice dev;
    dev.capacityBytes = s.driver().capacityBytes();
    dev.read = [&s, &l](Addr off, std::uint32_t len, std::uint8_t* buf,
                        std::function<void()> done) {
        auto cb = l.wrap(std::move(done));
        Scope sc(l.timer, SelfTimer::Driver);
        s.driver().read(off, len, buf, std::move(cb));
    };
    dev.write = [&s, &l](Addr off, std::uint32_t len,
                         const std::uint8_t* data,
                         std::function<void()> done) {
        auto cb = l.wrap(std::move(done));
        Scope sc(l.timer, SelfTimer::Driver);
        s.driver().write(off, len, data, std::move(cb));
    };

    workload::MixedLoadConfig mc;
    mc.users = o.shortWindow ? 50 : 250;
    mc.transactionsPerUser = o.shortWindow ? 2 : 4;
    mc.recordBytes = 4096;
    mc.regionBytes = std::uint64_t{mc.users} * 32 * 4096;
    mc.seed = o.seed;

    Tick t0 = s.eq().now();
    beginPhase(s, o, r);
    auto p0 = Clock::now();
    workload::MixedLoadResult mr;
    {
        Scope phase(l.timer, SelfTimer::Kernel);
        mr = workload::runMixedLoad(s.eq(), dev, mc);
    }
    r.phaseS = secondsSince(p0);
    endPhase(s, o, r);

    r.simElapsed = mr.elapsed;
    r.phaseTicks = s.eq().now() - t0;
    r.refOk = !mr.halted &&
              mr.transactions ==
                  std::uint64_t{mc.users} * mc.transactionsPerUser;
    r.validationFailures = mr.validationFailures;
    return sys;
}

/** Nearest-rank percentile of exact samples (ps). */
Tick
percentile(std::vector<Tick> v, double p)
{
    if (v.empty())
        return 0;
    std::sort(v.begin(), v.end());
    auto rank = static_cast<std::size_t>(
        std::ceil(p / 100.0 * static_cast<double>(v.size())));
    return v[std::max<std::size_t>(rank, 1) - 1];
}

std::string
jsonString(const std::string& s)
{
    std::string out = "\"";
    for (char c : s) {
        if (c == '"' || c == '\\')
            out += '\\';
        out += c;
    }
    return out + "\"";
}

/** Was this binary built with a sanitizer? CMake passes
 *  PERFBENCH_SANITIZED when the flags ask for one. */
constexpr bool kSanitized =
#if defined(PERFBENCH_SANITIZED) || defined(__SANITIZE_ADDRESS__) || \
    defined(__SANITIZE_THREAD__)
    true;
#else
    false;
#endif

#ifdef NDEBUG
constexpr bool kNdebug = true;
#else
constexpr bool kNdebug = false;
#endif

int
run(int argc, char** argv)
{
    Options o = parseArgs(argc, argv);
    Result r;
    SelfTimer timer;
    if (o.trace) {
        span::reset();
        span::enable();
    }

    OpLog log;
    log.timer = o.trace ? &timer : nullptr;
    std::unique_ptr<core::NvdimmcSystem> sys;
    if (o.workload == "cached_rw_4ch")
        sys = cachedRw4ch(o, log, r);
    else if (o.workload == "uncached_rw_1ch")
        sys = uncachedRw1ch(o, log, r);
    else if (o.workload == "mixedload_250u")
        sys = mixedload250u(o, log, r);
    else
        usage("unknown workload " + o.workload);

    const std::vector<Tick>& lat = log.latencies;
    std::uint64_t ops = lat.size();
    double kiops = static_cast<double>(ops) /
                   (static_cast<double>(r.simElapsed) / kSec) / 1e3;

    std::ostringstream os;
    os.precision(17);
    os << "{\"workload\":" << jsonString(o.workload)
       << ",\"seed\":" << o.seed
       << ",\"build_s\":" << r.buildS
       << ",\"precondition_s\":" << r.preconditionS
       << ",\"phase_s\":" << r.phaseS
       << ",\"ops\":" << ops
       << ",\"ref_ok\":" << (r.refOk ? 1 : 0)
       << ",\"issued\":" << log.issued
       << ",\"completed\":" << log.completed
       << ",\"window_ps\":" << r.simElapsed
       << ",\"phase_ps\":" << r.phaseTicks
       << ",\"sim_kiops\":" << kiops
       << ",\"lat_p50_ps\":" << percentile(lat, 50)
       << ",\"lat_p99_ps\":" << percentile(lat, 99)
       << ",\"events\":" << r.eventsAfter - r.eventsBefore
       << ",\"hardware_clean\":" << (sys->hardwareClean() ? 1 : 0)
       << ",\"validation_failures\":" << r.validationFailures
       << ",\"build\":{\"ndebug\":" << (kNdebug ? 1 : 0)
       << ",\"sanitized\":" << (kSanitized ? 1 : 0)
       << ",\"compiler\":" << jsonString(PERFBENCH_COMPILER)
       << ",\"build_type\":" << jsonString(PERFBENCH_BUILD_TYPE) << "}";
    if (o.trace) {
        span::AuditResult a = span::audit();
        std::ostringstream bd;
        span::writeBreakdownJson(bd);
        os << ",\"trace\":{\"kernel_s\":"
           << timer.seconds(SelfTimer::Kernel)
           << ",\"driver_s\":" << timer.seconds(SelfTimer::Driver)
           << ",\"workload_s\":" << timer.seconds(SelfTimer::Workload)
           << ",\"span_audit_ok\":" << (a.ok() ? 1 : 0)
           << ",\"breakdown\":" << bd.str()
           << ",\"stats_before\":" << r.statsBefore
           << ",\"stats_after\":" << r.statsAfter << "}";
    }
    os << "}";
    std::cout << os.str() << std::endl;
    return 0;
}

} // namespace
} // namespace nvdimmc::perfbench

int
main(int argc, char** argv)
{
    return nvdimmc::perfbench::run(argc, argv);
}
