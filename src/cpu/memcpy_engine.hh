/**
 * @file
 * Bulk data movement between the CPU and the DAX region.
 *
 * A read streams 64 B line loads with bounded memory-level parallelism
 * (the core's fill-buffer limit); a write follows the libpmem path:
 * non-temporal stores that bypass the cache and post into the iMC's
 * WPQ. Backpressure from the iMC queues is what makes multi-thread
 * bandwidth saturate on the shared channel.
 */

#ifndef NVDIMMC_CPU_MEMCPY_ENGINE_HH
#define NVDIMMC_CPU_MEMCPY_ENGINE_HH

#include <cstdint>
#include <functional>
#include <memory>

#include "common/record_pool.hh"
#include "cpu/cache_model.hh"
#include "imc/host_port.hh"
#include "imc/imc.hh"

namespace nvdimmc::cpu
{

/** Memcpy engine parameters. */
struct MemcpyParams
{
    /** Outstanding line loads per bulk read (LFB-limited). */
    unsigned parallelism = 10;
    /** Issue gap between successive non-temporal stores. */
    Tick ntIssueGap = 10 * kNs / 1; // 10 ns => ~6.4 GB/s per thread.
    /**
     * Use the iMC's analytic bulk model instead of per-line commands.
     * Big sweeps opt in; data-integrity tests stay detailed. A test
     * asserts the two modes agree on throughput.
     */
    bool bulkMode = false;
};

/** The engine; one per thread (MLP is per-core). */
class MemcpyEngine
{
  public:
    using Params = MemcpyParams;

    /** Single-channel convenience: wraps @p imc in an owned port. */
    MemcpyEngine(EventQueue& eq, imc::Imc& imc, CpuCacheModel* cache,
                 const Params& p = Params{});

    /** Multi-channel: lines and bulk slices route through @p port. */
    MemcpyEngine(EventQueue& eq, imc::HostPort& port,
                 CpuCacheModel* cache, const Params& p = Params{});

    /**
     * Read @p len bytes at @p addr into @p buf (nullable).
     * @p via_cache routes through the CPU cache model (normal loads);
     * otherwise lines are fetched uncached.
     */
    void read(Addr addr, std::uint32_t len, std::uint8_t* buf,
              bool via_cache, Callback done);

    /** Non-temporal write of @p len bytes (data nullable). */
    void writeNt(Addr addr, std::uint32_t len, const std::uint8_t* data,
                 Callback done);

  private:
    /** One line-mode copy in flight (DESIGN §6e): each line completion,
     *  pacing step and retry captures the engine and the index. */
    struct Transfer
    {
        Addr addr = 0;
        std::uint32_t len = 0;
        std::uint8_t* rbuf = nullptr;
        const std::uint8_t* wdata = nullptr;
        bool viaCache = false;
        std::uint32_t issued = 0;
        std::uint32_t completed = 0;
        unsigned inFlight = 0;
        bool stalled = false;
        /** Which copy holds the record, so a pump loop can tell that a
         *  completion released it (and a new copy took it) under it. */
        std::uint64_t serial = 0;
        Callback done;
    };

    /** A fresh record for a copy of @p len bytes at @p addr. */
    std::uint32_t startTransfer(Addr addr, std::uint32_t len,
                                Callback done);
    void pumpRead(std::uint32_t i);
    void lineRead(std::uint32_t i);
    void pumpWrite(std::uint32_t i);
    /** Release record @p i, then run its completion. */
    void finish(std::uint32_t i);

    EventQueue& eq_;
    /** Owned identity port for the single-iMC constructor. */
    std::unique_ptr<imc::HostPort> ownedPort_;
    imc::HostPort& port_;
    CpuCacheModel* cache_;
    Params params_;
    RecordPool<Transfer> transfers_;
    std::uint64_t nextSerial_ = 0;
};

} // namespace nvdimmc::cpu

#endif // NVDIMMC_CPU_MEMCPY_ENGINE_HH
