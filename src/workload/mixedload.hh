/**
 * @file
 * The SAP in-house mixed-load benchmark stand-in (paper §VII-B5):
 * N concurrent users run transactions against the device and validate
 * the data after every transaction. The paper uses it to show 500
 * concurrent users complete without corruption; here each transaction
 * writes seeded records and reads them (and earlier records) back,
 * comparing byte-for-byte, so any coherence or serialization bug in
 * the stack shows up as a validation failure.
 */

#ifndef NVDIMMC_WORKLOAD_MIXEDLOAD_HH
#define NVDIMMC_WORKLOAD_MIXEDLOAD_HH

#include <array>
#include <cstdint>
#include <functional>
#include <vector>

#include "common/event_queue.hh"
#include "common/random.hh"
#include "common/types.hh"

namespace nvdimmc::workload
{

/** Buffer-carrying device access (validation needs real bytes). */
struct DataDevice
{
    std::function<void(Addr, std::uint32_t, std::uint8_t*,
                       std::function<void()>)> read;
    std::function<void(Addr, std::uint32_t, const std::uint8_t*,
                       std::function<void()>)> write;
    std::uint64_t capacityBytes = 0;
};

/** Mixed-load configuration. */
struct MixedLoadConfig
{
    unsigned users = 50;
    unsigned transactionsPerUser = 20;
    std::uint32_t recordBytes = 4096;
    /** Records per transaction (writes then validating reads). */
    unsigned recordsPerTxn = 2;
    /** Region used by the benchmark. */
    Addr regionOffset = 0;
    std::uint64_t regionBytes = 0;
    std::uint64_t seed = 11;
    /**
     * Stop driving the event queue once simulated time reaches this
     * tick (0 = run to completion). Used by power-fail campaigns to
     * cut power mid-run; the result then carries the committed-record
     * oracle for post-recovery integrity replay.
     */
    Tick haltAtTick = 0;
};

/** One acked record write: its address and pattern seed. */
struct CommittedRecord
{
    Addr addr = 0;
    std::uint64_t seed = 0;
};

/** Outcome. */
struct MixedLoadResult
{
    std::uint64_t transactions = 0;
    std::uint64_t validationFailures = 0;
    Tick elapsed = 0;
    /** True when haltAtTick stopped the run before completion. */
    bool halted = false;
    /**
     * Every record whose write was acked, EXCLUDING slots that had a
     * newer write still in flight at the halt (those may legitimately
     * hold old, new, or torn bytes after a power cut). Sorted by
     * address; deterministic for a given seed and halt tick.
     */
    std::vector<CommittedRecord> committed;
    /** Writes in flight (issued, not acked) when the run stopped. */
    std::uint64_t inFlightWrites = 0;
};

/** Run to completion (drives the event queue). */
MixedLoadResult runMixedLoad(EventQueue& eq, const DataDevice& dev,
                             const MixedLoadConfig& cfg);

/**
 * The bytes of a record of one length, to write it and to validate
 * it (the mixed load, recovery replay and the fault campaigns).
 *
 * Byte i of the record with seed s is the low byte of the (i+1)-th
 * xorshift64 (13, 7, 17) state from s * 0x9e3779b97f4a7c15 + 1. The
 * step is linear over GF(2), so the state L steps on is a fixed bit
 * matrix times the state. A pattern cuts the record into kLanes lanes
 * of L = length / kLanes bytes, starts lane j at the state jL steps
 * on, and steps the lanes side by side; a record shorter than kLanes
 * bytes, and the tail past the last lane, take the serial step. The
 * matrix depends only on the length, so a pattern is built once per
 * length. It is immutable: threads may share one.
 */
class RecordPattern
{
  public:
    static constexpr unsigned kLanes = 16;

    explicit RecordPattern(std::uint32_t len);

    /** Write the record of @p seed into @p buf, as long as the
     *  pattern's record length. */
    void fill(std::uint8_t* buf, std::uint64_t seed) const;

    /** True when @p buf holds the record of @p seed, every byte. */
    bool check(const std::uint8_t* buf, std::uint64_t seed) const;

  private:
    /** Two lanes' states in one SSE2 register. */
    using LanePair = std::uint64_t __attribute__((vector_size(16)));

    /** The state lane_ steps after @p x. */
    std::uint64_t jump(std::uint64_t x) const;
    /** The first state of every lane, two lanes a pair. */
    void startLanes(std::uint64_t x, LanePair* pairs) const;

    std::uint32_t len_;
    /** Bytes per lane; 0 when the record is too short for lanes. */
    std::uint32_t lane_;
    /** jump_[n][v]: the state lane_ steps after v << 4n, so a jump is
     *  16 lookups, one per nibble of the state. */
    std::array<std::array<std::uint64_t, 16>, 16> jump_{};
};

} // namespace nvdimmc::workload

#endif // NVDIMMC_WORKLOAD_MIXEDLOAD_HH
