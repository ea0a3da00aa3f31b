/**
 * @file
 * DDR4 DRAM device (one rank): banks, refresh machinery, a timing
 * checker, and an optional sparse data store for end-to-end integrity
 * checks.
 *
 * The device enforces its *real* refresh time (tRFC from the timing
 * set, 350 ns for an 8 Gb device). The host iMC is separately
 * programmed with a longer tRFC (1250 ns); the gap is exactly the
 * window the NVMC uses. Commands arriving during the real refresh are
 * violations; commands in the extra window are legal here — whether
 * they *collide* with another master is the bus's concern.
 */

#ifndef NVDIMMC_DRAM_DRAM_DEVICE_HH
#define NVDIMMC_DRAM_DRAM_DEVICE_HH

#include <cstdint>
#include <deque>
#include <string>
#include <vector>

#include "common/sparse_store.hh"
#include "common/stats.hh"
#include "common/types.hh"
#include "dram/address_map.hh"
#include "dram/bank.hh"
#include "dram/ddr4_command.hh"
#include "dram/timing.hh"

namespace nvdimmc::dram
{

/** A recorded protocol/timing violation. */
struct DramViolation
{
    Tick tick = 0;
    std::string what;
};

/** Outcome of issuing one command to the device. */
struct IssueResult
{
    bool ok = true;
    /** For RD/WR: when data occupies the DQ bus. */
    Tick dataStart = 0;
    Tick dataEnd = 0;
};

/** Aggregate device statistics. */
struct DramStats
{
    Counter activates;
    Counter reads;
    Counter writes;
    Counter precharges;
    Counter prechargeAlls;
    Counter refreshes;
    Counter selfRefreshEnters;
    Counter selfRefreshExits;
    Counter violations;
};

/** One DDR4 rank with a timing checker and sparse contents. */
class DramDevice
{
  public:
    /**
     * @param map geometry / address mapping.
     * @param timing speed-bin timings; timing.tRFC is the *device's*
     *        true refresh duration.
     * @param store_data keep actual byte contents (sparse, per-row).
     * @param panic_on_violation abort the simulation on any protocol
     *        error instead of recording it (off in tests that probe
     *        the checker).
     */
    DramDevice(const AddressMap& map, const Ddr4Timing& timing,
               bool store_data = true, bool panic_on_violation = false);

    const AddressMap& addressMap() const { return map_; }
    const Ddr4Timing& timing() const { return timing_; }

    /**
     * Issue a command at tick @p now. Checks JEDEC timing, updates
     * bank state, and (for RD/WR) reports the DQ data window.
     */
    IssueResult issue(const Ddr4Command& cmd, Tick now);

    /** Issue from a raw pin image (decodes first). */
    IssueResult issueFrame(const CaFrame& frame, Tick now);

    /** @name Data-path access (64 B bursts). */
    /** @{ */
    void writeBurst(const DramCoord& coord, const std::uint8_t* data64);
    void readBurst(const DramCoord& coord, std::uint8_t* data64) const;
    /** @} */

    /** True while the device is executing a refresh (its real tRFC). */
    bool inRefresh(Tick now) const
    {
        return refreshing_ && now < refreshEndsAt_;
    }

    /** Tick the current/most recent refresh completes. */
    Tick refreshEndsAt() const { return refreshEndsAt_; }

    bool inSelfRefresh() const { return selfRefresh_; }

    /** Number of REF commands received (the refresh address counter). */
    std::uint64_t refreshCount() const { return stats_.refreshes.value(); }

    bool allBanksIdle() const;

    const Bank& bank(std::uint32_t flat_index) const
    {
        return banks_[flat_index];
    }

    const DramStats& stats() const { return stats_; }

    /** Register live device counters under @p prefix (dot-separated
     *  hierarchy, e.g. "dram.activates"). */
    void registerStats(StatRegistry& reg,
                       const std::string& prefix) const;

    const std::vector<DramViolation>& violations() const
    {
        return violations_;
    }
    void clearViolations() { violations_.clear(); }

    /** Bytes of backing storage currently allocated (for tests). */
    std::uint64_t allocatedBytes() const
    {
        return rows_.allocatedBytes();
    }

  private:
    void recordViolation(Tick now, std::string what);
    IssueResult handleCas(const Ddr4Command& cmd, Tick now, bool is_read,
                          bool auto_precharge);
    bool checkGlobal(const Ddr4Command& cmd, Tick now);

    /** Leaf of @p c's row in rows_: rows in address order. */
    std::uint64_t rowIndex(const DramCoord& c) const
    {
        return std::uint64_t{c.row} * map_.totalBanks() + map_.flatBank(c);
    }

    AddressMap map_;
    Ddr4Timing timing_;
    bool storeData_;
    bool panicOnViolation_;

    std::vector<Bank> banks_;

    bool refreshing_ = false;
    Tick refreshEndsAt_ = 0;
    bool selfRefresh_ = false;
    Tick selfRefreshExitAt_ = 0;

    /** Cross-bank trackers. */
    Tick lastActTick_ = kTickNever;
    std::uint8_t lastActBg_ = 0;
    Tick lastCasTick_ = kTickNever;
    std::uint8_t lastCasBg_ = 0;
    std::deque<Tick> actWindow_; ///< Last ACT ticks for tFAW.

    /** Row contents, one leaf per row written. */
    SparseStore<std::uint8_t> rows_;

    DramStats stats_;
    std::vector<DramViolation> violations_;
};

} // namespace nvdimmc::dram

#endif // NVDIMMC_DRAM_DRAM_DEVICE_HH
