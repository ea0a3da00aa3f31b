/**
 * @file
 * CPU cache model for the DAX region.
 *
 * Tracks 64 B lines the CPU holds (with data and dirty state) so the
 * paper's coherence hazards (§V-B) are real in the simulation:
 *
 *  - If the driver skips invalidation after a cachefill, subsequent
 *    loads hit a *stale* cached copy instead of the FPGA's new data.
 *  - If a dirty line is not flushed before a writeback command, the
 *    FPGA reads the old bytes from DRAM and persists stale data.
 *
 * Loads miss to the iMC and allocate clean lines; stores are
 * write-allocate and leave the line dirty until clflush (which writes
 * it back through the iMC) — or until capacity eviction, which also
 * writes it back at an arbitrary time, exactly the hazard the driver
 * discipline must tolerate. Non-temporal stores (the libpmem write
 * path) bypass the cache entirely.
 */

#ifndef NVDIMMC_CPU_CACHE_MODEL_HH
#define NVDIMMC_CPU_CACHE_MODEL_HH

#include <array>
#include <cstdint>
#include <functional>
#include <memory_resource>
#include <unordered_map>

#include "common/record_pool.hh"
#include "common/stats.hh"
#include "common/types.hh"
#include "imc/host_port.hh"
#include "imc/imc.hh"

namespace nvdimmc::cpu
{

using Callback = std::function<void()>;

/** Cache statistics. */
struct CacheStats
{
    Counter loadHits;
    Counter loadMisses;
    Counter stores;
    Counter ntStores;
    Counter flushes;
    Counter flushWritebacks;
    Counter invalidations;
    Counter capacityEvictions;
};

/** The LLC-ish cache model. */
class CpuCacheModel
{
  public:
    struct Params
    {
        /** Line capacity (Platinum 8168: 33 MB LLC ~= 512 Ki lines). */
        std::size_t capacityLines = 512 * 1024;
    };

    /** A load or store that finds its line resident. */
    static constexpr Tick kHitLatency = 15 * kNs;
    /** Software cost of one clflush instruction. */
    static constexpr Tick kFlushCost = 30 * kNs;

    /** Lines route through @p port's interleave map; the port must
     *  outlive the model. */
    CpuCacheModel(EventQueue& eq, imc::HostPort& port, const Params& p);

    /** Load one 64 B line (through the cache). */
    void load(Addr addr, std::uint8_t* buf, Callback done);

    /** Store one 64 B line (write-allocate, stays dirty). */
    void store(Addr addr, const std::uint8_t* data, Callback done);

    /** Non-temporal store: straight to the iMC, no allocation. The
     *  cached copy (if any) is updated so the model stays coherent
     *  with itself. Posted: accepted means done. @return false if the
     *  iMC WPQ is full; the store then did nothing and is not
     *  counted. */
    bool storeNt(Addr addr, const std::uint8_t* data);

    /** clflush: write back if dirty, then drop the line. @p done runs
     *  after the flush cost, and not before the WPQ has accepted the
     *  written-back line. */
    void clflush(Addr addr, Callback done);

    /** Drop a line without writeback (test hook / invd modelling). */
    void invalidate(Addr addr);

    /** @name Test introspection. */
    /** @{ */
    bool contains(Addr addr) const;
    bool isDirty(Addr addr) const;
    std::size_t residentLines() const { return lines_.size(); }
    /** @} */

    const CacheStats& stats() const { return stats_; }

    /** Register live counters under @p prefix (e.g. "cpu.load_hits")
     *  plus the derived resident-line occupancy. */
    void registerStats(StatRegistry& reg,
                       const std::string& prefix) const;

  private:
    struct Line
    {
        std::array<std::uint8_t, 64> data{};
        bool dirty = false;
    };

    /**
     * One load miss in flight (or parked on a full read queue). The
     * iMC fills the staging line, never the map node: the line may be
     * evicted while the miss is outstanding. The continuations handed
     * to the iMC carry only the record's index.
     */
    struct Miss
    {
        std::array<std::uint8_t, 64> staging{};
        Addr addr = 0;
        std::uint8_t* buf = nullptr;
        Callback done;
    };

    static Addr lineOf(Addr addr) { return addr & ~Addr{63}; }
    /** The iMC delivered miss @p m's line: install it and complete. */
    void missFilled(std::uint32_t m);
    /** Miss @p m's read queue has room again: load afresh. */
    void missRetry(std::uint32_t m);
    void maybeEvictOne();
    /** Post a dirty line's writeback, re-parking on a full WPQ until
     *  the queue accepts it; then run @p accepted. Only a parked
     *  writeback stores @p accepted (in a Callback). */
    template <typename F>
    void writeBack(Addr line_addr,
                   const std::array<std::uint8_t, 64>& data, F accepted);

    EventQueue& eq_;
    imc::HostPort& port_;
    Params params_;
    /** Backs lines_' nodes, so a line that comes and goes (every ack
     *  poll's line does) reuses a node rather than the heap. */
    std::pmr::unsynchronized_pool_resource linePool_;
    /** Victims are taken in this map's iteration order, so its hash,
     *  rehash policy and bucket count are part of the simulation. */
    std::pmr::unordered_map<Addr, Line> lines_{&linePool_};
    /** A staging line never moves while the iMC holds a pointer into
     *  it: pooled records stay put. */
    RecordPool<Miss> misses_;
    CacheStats stats_;
};

} // namespace nvdimmc::cpu

#endif // NVDIMMC_CPU_CACHE_MODEL_HH
