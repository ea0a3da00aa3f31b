/**
 * @file
 * Whole-system determinism and soak tests. The simulator's claim to
 * be a measurement instrument rests on runs being exactly repeatable:
 * identical configuration and stimulus must produce identical event
 * counts, identical statistics, and identical data — across the full
 * stack including the FTL's GC and the NVMC's window machinery.
 */

#include <gtest/gtest.h>

#include <cstdio>
#include <fstream>
#include <sstream>
#include <string>
#include <vector>

#include "common/trace.hh"
#include "core/system.hh"
#include "workload/fio.hh"

namespace nvdimmc
{
namespace
{

/** Drive a mixed workload and fingerprint the system afterwards. */
std::string
runFingerprint(std::uint64_t seed)
{
    core::SystemConfig cfg = core::SystemConfig::scaledTest();
    core::NvdimmcSystem sys(cfg);
    sys.driver().markEverWritten(0, 256);

    Rng rng(seed);
    int outstanding = 0;
    std::uint64_t launched = 0;
    std::function<void()> pump = [&] {
        while (outstanding < 4 && launched < 300) {
            ++launched;
            ++outstanding;
            std::uint64_t page = rng.below(256);
            bool write = rng.chance(0.5);
            auto done = [&] {
                --outstanding;
                pump();
            };
            if (write) {
                sys.driver().write(page * 4096, 4096, nullptr, done);
            } else {
                sys.driver().read(page * 4096, 4096, nullptr, done);
            }
        }
    };
    pump();
    while (outstanding > 0 && sys.eq().runOne()) {
    }

    std::ostringstream os;
    os << sys.eq().now() << ":" << sys.eq().eventsFired() << "\n";
    sys.dumpStats(os);
    return os.str();
}

TEST(Determinism, IdenticalRunsAreBitIdentical)
{
    std::string a = runFingerprint(7);
    std::string b = runFingerprint(7);
    EXPECT_EQ(a, b);
}

TEST(Determinism, DifferentSeedsDiverge)
{
    std::string a = runFingerprint(7);
    std::string b = runFingerprint(8);
    EXPECT_NE(a, b);
}

TEST(Determinism, TracingDoesNotPerturbTheRun)
{
    // The tracer is an observer: capturing a Chrome trace of a run
    // must leave every event count and statistic byte-identical to
    // the untraced run.
    std::string off = runFingerprint(7);

    const char* path = "determinism_trace_tmp.json";
    trace::start(path);
    std::string on = runFingerprint(7);
    EXPECT_GT(trace::eventCount(), 0u);
    trace::stop();
    std::remove(path);

    EXPECT_EQ(off, on);
}

TEST(Determinism, TraceFileByteIdenticalOnRerun)
{
    // Records are written in arrival order and tracks numbered in
    // first-use order, both fixed by the run's one event loop, so two
    // traced runs of the same config write the same file byte for
    // byte.
    auto traced = [](const std::string& path) {
        trace::start(path);
        runFingerprint(7);
        EXPECT_TRUE(trace::stop());
        std::ifstream is(path, std::ios::binary);
        std::ostringstream os;
        os << is.rdbuf();
        std::remove(path.c_str());
        return os.str();
    };
    std::string first = traced(testing::TempDir() + "/det_trace_a.json");
    ASSERT_FALSE(first.empty());
    EXPECT_EQ(first, traced(testing::TempDir() + "/det_trace_b.json"));
}

TEST(Determinism, FioJobIsRepeatable)
{
    auto run = [] {
        core::SystemConfig cfg = core::SystemConfig::scaledBench();
        core::NvdimmcSystem sys(cfg);
        sys.precondition(0, sys.layout().slotCount() - 64, true);
        workload::FioConfig fio;
        fio.pattern = workload::FioConfig::Pattern::RandRead;
        fio.blockSize = 4096;
        fio.threads = 4;
        fio.regionBytes =
            std::uint64_t{sys.layout().slotCount() - 64} * 4096;
        fio.rampTime = 1 * kMs;
        fio.runTime = 10 * kMs;
        fio.seed = 99;
        workload::FioJob job(
            sys.eq(),
            [&sys](Addr off, std::uint32_t len, bool is_write,
                   std::function<void()> done) {
                if (is_write)
                    sys.driver().write(off, len, nullptr,
                                       std::move(done));
                else
                    sys.driver().read(off, len, nullptr,
                                      std::move(done));
            },
            fio);
        auto res = job.run();
        return res.ops;
    };
    EXPECT_EQ(run(), run());
}

TEST(Soak, LongMixedRunStaysClean)
{
    // Minutes of churn across every layer: hits, misses, evictions,
    // writebacks, GC — the tRFC-serialization and data-path
    // invariants must hold throughout.
    core::SystemConfig cfg = core::SystemConfig::scaledTest();
    core::NvdimmcSystem sys(cfg);
    std::uint32_t slots = sys.layout().slotCount();
    // Fill the cache with dirty pages from a disjoint range so every
    // miss in the 600-page test region must evict + write back.
    std::uint64_t pages = 600;
    sys.precondition(pages, slots, true);
    sys.driver().markEverWritten(0, pages + slots);

    Rng rng(123);
    std::uint64_t ops = 0;
    const std::uint64_t kOps = 1500;
    std::function<void()> next = [&] {
        if (++ops > kOps)
            return;
        std::uint64_t page = rng.below(pages);
        if (rng.chance(0.5)) {
            sys.driver().write(page * 4096, 4096, nullptr, next);
        } else {
            sys.driver().read(page * 4096, 4096, nullptr, next);
        }
    };
    next();
    while (ops <= kOps && sys.eq().runOne()) {
    }

    EXPECT_GT(ops, kOps);
    EXPECT_TRUE(sys.hardwareClean())
        << "zero conflicts / violations over " << ops << " mixed ops";
    EXPECT_GT(sys.driver().stats().writebacks.value(), 100u);
    // The cache accounting must still balance.
    EXPECT_LE(sys.driver().cache().usedSlots(), slots);
    EXPECT_GT(sys.nvmc()->windowsGranted(), 1000u);
}

} // namespace
} // namespace nvdimmc
