/**
 * @file
 * FIO-style microbenchmark driver (paper Table II / §VII-B).
 *
 * Closed-loop worker threads issue fixed-size accesses against a
 * device access function, with ramp-up excluded from the measurement
 * window, reporting the paper's units (MB/s, KIOPS) plus latency
 * percentiles. Device-agnostic: the same job runs against the nvdc
 * driver, the baseline pmem driver, or anything else.
 */

#ifndef NVDIMMC_WORKLOAD_FIO_HH
#define NVDIMMC_WORKLOAD_FIO_HH

#include <cstdint>
#include <functional>
#include <memory>
#include <string>
#include <vector>

#include "common/event_queue.hh"
#include "common/random.hh"
#include "common/stats.hh"
#include "cpu/thread.hh"

namespace nvdimmc::workload
{

/** Device access: offset/len/direction, completion via callback. */
using AccessFn = std::function<void(Addr offset, std::uint32_t len,
                                    bool is_write,
                                    std::function<void()> done)>;

/** Job description. */
struct FioConfig
{
    enum class Pattern
    {
        RandRead,
        RandWrite,
        SeqRead,
        SeqWrite,
    };

    Pattern pattern = Pattern::RandRead;
    std::uint32_t blockSize = 4096;
    unsigned threads = 1;
    /** Target region [regionOffset, regionOffset + regionBytes). */
    Addr regionOffset = 0;
    std::uint64_t regionBytes = 0;
    Tick rampTime = 2 * kMs;
    Tick runTime = 50 * kMs;
    std::uint64_t seed = 1;
};

/** Aggregated result over the measurement window. */
struct FioResult
{
    double mbps = 0.0;
    double kiops = 0.0;
    std::uint64_t ops = 0;
    Tick meanLatency = 0;
    Tick p50 = 0;
    Tick p99 = 0;
};

/** The job. */
class FioJob
{
  public:
    FioJob(EventQueue& eq, AccessFn access, const FioConfig& cfg);

    /**
     * Run ramp + measurement; drives the event queue. Blocking from
     * the caller's perspective (returns when all threads stopped).
     */
    FioResult run();

  private:
    Addr pickOffset(unsigned thread_idx);

    EventQueue& eq_;
    AccessFn access_;
    FioConfig cfg_;

    std::vector<std::unique_ptr<Rng>> rngs_;
    std::vector<Addr> seqCursor_;
    /** Each worker's completion of its one op in flight. */
    std::vector<std::function<void(std::uint64_t)>> opDone_;
    std::vector<std::unique_ptr<cpu::WorkerThread>> workers_;
};

} // namespace nvdimmc::workload

#endif // NVDIMMC_WORKLOAD_FIO_HH
