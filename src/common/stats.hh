/**
 * @file
 * Lightweight statistics: counters, latency histograms, and
 * throughput meters, with a registry for formatted dumps.
 */

#ifndef NVDIMMC_COMMON_STATS_HH
#define NVDIMMC_COMMON_STATS_HH

#include <array>
#include <cstdint>
#include <functional>
#include <utility>
#include <limits>
#include <ostream>
#include <string>
#include <vector>

#include "common/types.hh"

namespace nvdimmc
{

/** A named monotonically increasing counter. */
class Counter
{
  public:
    void inc(std::uint64_t by = 1) { value_ += by; }
    std::uint64_t value() const { return value_; }
    void reset() { value_ = 0; }

  private:
    std::uint64_t value_ = 0;
};

/**
 * Latency histogram with 64 log2 buckets over picosecond samples.
 *
 * Tracks exact min/max/sum so mean is exact; percentiles are
 * interpolated within the matching power-of-two bucket (plenty for
 * reporting p50/p99 latency curves).
 */
class Histogram
{
  public:
    void record(Tick sample);

    std::uint64_t count() const { return count_; }
    Tick min() const { return count_ ? min_ : 0; }
    Tick max() const { return max_; }
    double mean() const;
    /** Exact sum of every sample. */
    std::uint64_t sum() const { return sum_; }
    /** @param p percentile in [0, 100]. */
    Tick percentile(double p) const;
    void reset();

    /** Merge another histogram into this one. */
    void merge(const Histogram& other);

  private:
    static int bucketFor(Tick sample);

    std::array<std::uint64_t, 64> buckets_{};
    std::uint64_t count_ = 0;
    Tick min_ = std::numeric_limits<Tick>::max();
    Tick max_ = 0;
    std::uint64_t sum_ = 0;
};

/**
 * Byte/op throughput meter over a measurement interval, reporting the
 * paper's units (decimal MB/s and KIOPS).
 */
class ThroughputMeter
{
  public:
    void recordOp(std::uint64_t bytes) { ops_ += 1; bytes_ += bytes; }

    std::uint64_t ops() const { return ops_; }
    std::uint64_t bytes() const { return bytes_; }
    double mbps(Tick interval) const
    {
        return bytesPerTickToMBps(bytes_, interval);
    }
    double kiops(Tick interval) const
    {
        return opsPerTickToKiops(ops_, interval);
    }
    void reset() { ops_ = 0; bytes_ = 0; }

  private:
    std::uint64_t ops_ = 0;
    std::uint64_t bytes_ = 0;
};

/**
 * A time series sampler: record (tick, value) points, e.g. Fig 7's
 * bandwidth-over-time curve.
 */
class TimeSeries
{
  public:
    void record(Tick t, double v) { points_.push_back({t, v}); }
    const std::vector<std::pair<Tick, double>>& points() const
    {
        return points_;
    }
    void clear() { points_.clear(); }

  private:
    std::vector<std::pair<Tick, double>> points_;
};

/**
 * Registry mapping hierarchical stat names (dot-separated, e.g.
 * "imc.rdq.occupancy") to values. Modules register their counters and
 * histograms through registerStats() hooks so dumping always reflects
 * live values; the registry can render a text dump or a flat JSON
 * object (machine-diffable snapshots for the benches).
 */
class StatRegistry
{
  public:
    using Getter = std::function<double()>;

    void add(std::string name, Getter getter);

    /** Register a counter's live value under @p name. */
    void addCounter(std::string name, const Counter& c);

    /**
     * Register a histogram as derived entries @p name.count / .mean /
     * .p50 / .p99 / .max (ticks, as doubles).
     */
    void addHistogram(const std::string& name, const Histogram& h);

    /** "name = value" lines, registration order. */
    void dump(std::ostream& os) const;

    /** One flat JSON object {"name": value, ...}; no trailing \n. */
    void dumpJson(std::ostream& os) const;

    /** Evaluate every getter now. */
    std::vector<std::pair<std::string, double>> collect() const;

    std::size_t size() const { return entries_.size(); }

  private:
    std::vector<std::pair<std::string, Getter>> entries_;
};

/**
 * The name channel @p ch of a @p channels-channel system registers its
 * component @p name under: @p name itself on one channel,
 * "ch<ch>.<name>" on several, where the owner adds the flat @p name
 * aggregates.
 */
std::string channelStatName(std::uint32_t ch, std::uint32_t channels,
                            const std::string& name);

} // namespace nvdimmc

#endif // NVDIMMC_COMMON_STATS_HH
