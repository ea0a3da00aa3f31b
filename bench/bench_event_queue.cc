/**
 * @file
 * Simulator-kernel microbenchmark: raw event throughput of
 * common/event_queue, independent of any device model.
 *
 * Patterns matching how the simulator actually drives the queue, each
 * named by its pending count, delta range and share of dead entries:
 *
 *  - chain: 1 pending one-shot, 100-tick deltas, no dead entries;
 *    each firing schedules the next (a controller state machine
 *    stepping).
 *  - churn4k: 4096 pending one-shots, 100-196-tick deltas, no dead
 *    entries (many in-flight ops).
 *  - intrusive_periodic: 64 pending owner-embedded events, 50-128-tick
 *    deltas, no dead entries (iMC wakeups, controller steps).
 *  - shape_*: three more shapes (dense near, sparse far,
 *    reschedule-heavy), described at their definitions.
 *
 * The simulator itself keeps few events pending at a dispatch: 2-5 on
 * the uncached 1-channel perfbench workload, 8-24 on the cached
 * 4-channel one, and mostly 4-31 (peak 251) on the 250-user mixed
 * load.
 *
 * Every pattern reports events/sec via items_per_second. By default
 * the binary writes its results to BENCH_kernel.json in the working
 * directory (override with --benchmark_out=...).
 */

#include <benchmark/benchmark.h>

#include <cstdint>
#include <cstring>
#include <deque>
#include <vector>

#include "common/event_queue.hh"

namespace nvdimmc::bench
{
namespace
{

void
BM_OneShotChain(benchmark::State& state)
{
    const std::uint64_t kEvents = 1'000'000;
    for (auto _ : state) {
        EventQueue eq;
        std::uint64_t fired = 0;
        std::function<void()> step = [&] {
            if (++fired < kEvents)
                eq.scheduleAfter(100, step);
        };
        eq.scheduleAfter(100, step);
        eq.runAll();
        benchmark::DoNotOptimize(fired);
    }
    state.SetItemsProcessed(static_cast<std::int64_t>(kEvents) *
                            state.iterations());
}

void
BM_OneShotChurn4k(benchmark::State& state)
{
    const std::uint64_t kOutstanding = 4096;
    const std::uint64_t kEvents = 1'000'000;
    for (auto _ : state) {
        EventQueue eq;
        std::uint64_t fired = 0;
        std::vector<std::function<void()>> steps(kOutstanding);
        for (std::uint64_t i = 0; i < kOutstanding; ++i) {
            steps[i] = [&, i] {
                if (++fired < kEvents)
                    eq.scheduleAfter(100 + (fired * 7 + i) % 97,
                                     steps[i]);
            };
            eq.scheduleAfter(1 + i, steps[i]);
        }
        eq.runAll();
        benchmark::DoNotOptimize(fired);
    }
    state.SetItemsProcessed(static_cast<std::int64_t>(kEvents) *
                            state.iterations());
}

class PeriodicEvent final : public Event
{
  public:
    PeriodicEvent(EventQueue& eq, std::uint64_t& fired,
                  std::uint64_t budget, Tick period)
        : eq_(eq), fired_(fired), budget_(budget), period_(period)
    {
    }

    void
    process() override
    {
        if (++fired_ < budget_)
            eq_.scheduleAfter(*this, period_);
    }

    const char* name() const override { return "bench-periodic"; }

  private:
    EventQueue& eq_;
    std::uint64_t& fired_;
    std::uint64_t budget_;
    Tick period_;
};

void
BM_IntrusivePeriodic(benchmark::State& state)
{
    const std::uint64_t kEvents = 1'000'000;
    const std::size_t kActors = 64;
    for (auto _ : state) {
        EventQueue eq;
        std::uint64_t fired = 0;
        std::deque<PeriodicEvent> actors; // Events pin their address.
        for (std::size_t i = 0; i < kActors; ++i) {
            actors.emplace_back(eq, fired, kEvents,
                                Tick{50 + 13 * (i % 7)});
            eq.schedule(actors.back(), 1 + i);
        }
        eq.runAll();
        benchmark::DoNotOptimize(fired);
    }
    state.SetItemsProcessed(static_cast<std::int64_t>(kEvents) *
                            state.iterations());
}

// ---------------------------------------------------------------------
// Scheduler-shape microbenches: each isolates one traffic shape so a
// future kernel change shows where it moved the needle.
// ---------------------------------------------------------------------

/**
 * Dense near-future: 512 pending one-shots, 1-61-tick deltas, no
 * dead entries. Many events share a tick, so same-tick order is exercised.
 */
void
BM_ShapeDenseNear(benchmark::State& state)
{
    const std::uint64_t kOutstanding = 512;
    const std::uint64_t kEvents = 1'000'000;
    for (auto _ : state) {
        EventQueue eq;
        std::uint64_t fired = 0;
        std::vector<std::function<void()>> steps(kOutstanding);
        for (std::uint64_t i = 0; i < kOutstanding; ++i) {
            steps[i] = [&, i] {
                if (++fired < kEvents)
                    eq.scheduleAfter(1 + (fired * 3 + i) % 61,
                                     steps[i]);
            };
            eq.scheduleAfter(1 + i % 61, steps[i]);
        }
        eq.runAll();
        benchmark::DoNotOptimize(fired);
    }
    state.SetItemsProcessed(static_cast<std::int64_t>(kEvents) *
                            state.iterations());
}

/**
 * Sparse far-future: 16 pending one-shots, 64K-16M-tick deltas, no
 * dead entries; every dispatch jumps simulated time across a long idle
 * gap.
 */
void
BM_ShapeSparseFar(benchmark::State& state)
{
    const std::uint64_t kOutstanding = 16;
    const std::uint64_t kEvents = 1'000'000;
    for (auto _ : state) {
        EventQueue eq;
        std::uint64_t fired = 0;
        std::vector<std::function<void()>> steps(kOutstanding);
        for (std::uint64_t i = 0; i < kOutstanding; ++i) {
            steps[i] = [&, i] {
                if (++fired < kEvents) {
                    Tick delta = Tick{65536}
                                 << ((fired * 5 + i) % 9);
                    eq.scheduleAfter(delta, steps[i]);
                }
            };
            eq.scheduleAfter(65536 + i * 4096, steps[i]);
        }
        eq.runAll();
        benchmark::DoNotOptimize(fired);
    }
    state.SetItemsProcessed(static_cast<std::int64_t>(kEvents) *
                            state.iterations());
}

/**
 * Reschedule-heavy: 185-256 pending intrusive events, 60-130-tick
 * periods, 32 of them re-aimed (deschedule + schedule, new sequence
 * number) 30-79 ticks out every 40 ticks, so 22% of the entries die
 * before they fire: the iMC wakeup pattern when commands keep
 * arriving and move the next service tick.
 */
void
BM_ShapeRescheduleHeavy(benchmark::State& state)
{
    const std::uint64_t kEvents = 1'000'000;
    const std::size_t kActors = 256;
    for (auto _ : state) {
        EventQueue eq;
        std::uint64_t fired = 0;
        std::deque<PeriodicEvent> actors;
        for (std::size_t i = 0; i < kActors; ++i) {
            actors.emplace_back(eq, fired, kEvents,
                                Tick{60 + 7 * (i % 11)});
            eq.schedule(actors.back(), 1 + i);
        }
        std::uint64_t moved = 0;
        while (fired < kEvents) {
            eq.runFor(40);
            // Re-aim a rotating subset mid-flight.
            for (std::size_t k = 0; k < 32; ++k) {
                auto& ev = actors[(moved + k * 8) % kActors];
                if (ev.scheduled())
                    eq.reschedule(ev, eq.now() + 30 +
                                          (moved + k) % 50);
            }
            ++moved;
        }
        eq.runAll();
        benchmark::DoNotOptimize(fired + moved);
    }
    state.SetItemsProcessed(static_cast<std::int64_t>(kEvents) *
                            state.iterations());
}

BENCHMARK(BM_OneShotChain)->Unit(benchmark::kMillisecond);
BENCHMARK(BM_OneShotChurn4k)->Unit(benchmark::kMillisecond);
BENCHMARK(BM_IntrusivePeriodic)->Unit(benchmark::kMillisecond);
BENCHMARK(BM_ShapeDenseNear)->Unit(benchmark::kMillisecond);
BENCHMARK(BM_ShapeSparseFar)->Unit(benchmark::kMillisecond);
BENCHMARK(BM_ShapeRescheduleHeavy)->Unit(benchmark::kMillisecond);

} // namespace
} // namespace nvdimmc::bench

int
main(int argc, char** argv)
{
    // Default to a JSON dump the docs/CI can pick up; an explicit
    // --benchmark_out on the command line wins.
    bool has_out = false;
    for (int i = 1; i < argc; ++i) {
        if (std::strncmp(argv[i], "--benchmark_out=", 16) == 0)
            has_out = true;
    }
    std::vector<char*> args(argv, argv + argc);
    char out_arg[] = "--benchmark_out=BENCH_kernel.json";
    char fmt_arg[] = "--benchmark_out_format=json";
    if (!has_out) {
        args.push_back(out_arg);
        args.push_back(fmt_arg);
    }
    int args_count = static_cast<int>(args.size());
    benchmark::Initialize(&args_count, args.data());
    if (benchmark::ReportUnrecognizedArguments(args_count, args.data()))
        return 1;
    benchmark::RunSpecifiedBenchmarks();
    benchmark::Shutdown();
    return 0;
}
