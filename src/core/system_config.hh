/**
 * @file
 * Whole-system configurations (paper Table I) and scaled variants.
 *
 * paperPoc() encodes the evaluated machine: Xeon Platinum 8168 host,
 * DDR4-1600 channel, a 128 GB NVDIMM-C with a 16 GB RDIMM cache
 * (tRFC programmed to 1250 ns) and 2 x 64 GB Z-NAND behind an FTL
 * exposing 120 GB. Scaled variants shrink capacities (not timings!) so
 * tests and benches converge quickly; every ratio that drives the
 * paper's results (cache:footprint, tRFC:tREFI) is preserved by the
 * caller choosing footprints relative to the cache.
 */

#ifndef NVDIMMC_CORE_SYSTEM_CONFIG_HH
#define NVDIMMC_CORE_SYSTEM_CONFIG_HH

#include <cstdint>
#include <string>

#include "backend/cxl_backend.hh"
#include "backend/media_backend.hh"
#include "cpu/cache_model.hh"
#include "cpu/memcpy_engine.hh"
#include "driver/nvdc_driver.hh"
#include "dram/timing.hh"
#include "ftl/ftl.hh"
#include "imc/imc.hh"
#include "nvm/nvm_media.hh"
#include "nvm/znand.hh"
#include "nvmc/nvmc.hh"

namespace nvdimmc::core
{

/** Backend media choice. */
enum class MediaKind
{
    ZNand,   ///< The PoC: Z-NAND behind the FTL.
    SttMram, ///< STT-MRAM direct backend.
    Delay,   ///< Programmable-delay media (hypothetical device).
};

/** Full NVDIMM-C system configuration. */
struct SystemConfig
{
    /** @name Channel topology.
     * Every capacity below (DRAM cache, Z-NAND geometry, mediaBytes)
     * is *per module*: a system with channels = N carries N complete
     * NVDIMM-C modules and N times the aggregate capacity. The flat
     * physical address space interleaves across the channels
     * (dram/channel_interleave.hh); NVDIMM-C systems always interleave
     * at page (4 KB) granularity because a module's NVMC can only fill
     * its own DRAM — interleaveGranule is clamped accordingly. The
     * plain-DRAM pmem baseline takes 4096 or 256 and rejects any
     * other granule. */
    /** @{ */
    std::uint32_t channels = 1;
    std::uint32_t interleaveGranule = 4096;
    /** @} */

    /** Simulation threads. The serial event kernel is the only
     *  machine model: construction rejects anything but 0. */
    std::uint32_t threads = 0;

    /** @name DRAM cache DIMM (the whole module on the pmem baseline). */
    /** @{ */
    std::uint64_t dramCacheBytes = 16 * kGiB;
    dram::Ddr4Timing dramTiming = dram::Ddr4Timing::ddr4_1600();
    /** The host's programmed refresh registers. Each channel derives
     *  its dram::RefreshSchedule from them (channel i of N at phase
     *  i * tREFI / N); its iMC and NVMC read refresh timing from that
     *  schedule alone. */
    dram::RefreshRegisters refresh = dram::RefreshRegisters::nvdimmc();
    /** @} */

    /** @name Backend kind.
     * Which device the system builds. Nvdimmc is the paper's
     * CP-over-DDR4 module; CxlHybrid swaps its transport for a
     * CMM-H-style device behind a modeled CXL.mem link (no NVMC, no
     * refresh windows, fine interleave allowed). Pmem is the
     * /dev/pmem0 baseline: plain DRAM modules of dramCacheBytes each
     * behind the emulated-pmem driver, with no cache, media or NVMC,
     * interleaved at 4096 or 256 B. */
    /** @{ */
    backend::BackendKind backendKind = backend::BackendKind::Nvdimmc;
    /** Link/device model when backendKind == CxlHybrid (its
     *  interleaveGranule is overridden by the system's). */
    backend::CxlBackendConfig cxl;
    /** @} */

    /** @name Backend. */
    /** @{ */
    MediaKind media = MediaKind::ZNand;
    nvm::ZNandParams znand = nvm::ZNandParams::poc128GB();
    /** Capacity for the simple/delay media kinds. */
    std::uint64_t mediaBytes = 128 * kGiB;
    Tick delayMediaLatency = 0;
    ftl::FtlConfig ftl;
    /** @} */

    nvmc::NvmcConfig nvmc;
    driver::NvdcDriverConfig driver;
    imc::ImcConfig imc;
    cpu::CpuCacheModel::Params cpuCache;
    cpu::MemcpyParams memcpy;

    /** Telemetry sampling cadence in ticks when telemetry::enabled();
     *  0 = telemetry::defaultInterval (4 x tREFI). */
    Tick telemetryIntervalTicks = 0;

    /** Build the NVMC at all (off for the hypothetical device). */
    bool nvmcEnabled = true;
    /** Keep actual bytes in DRAM/NAND (tests on; big benches off). */
    bool storeData = true;

    /**
     * Flip this config to the CXL.mem hybrid backend: no NVMC (no CP
     * page, no refresh-window DMA), standard refresh registers (the
     * extended tRFC exists only to widen windows), and the CXL line
     * interleave granule. Media, cache and host knobs are preserved,
     * so the result is the same device fronted by a different
     * interface — the head-to-head the backend seam exists for.
     */
    SystemConfig& applyCxlBackend();

    /** Table I as evaluated. */
    static SystemConfig paperPoc();
    /** Small config for unit/integration tests (64 MiB cache). */
    static SystemConfig scaledTest();
    /** Medium config for benches (512 MiB cache, bulk memcpy). */
    static SystemConfig scaledBench();
    /** The /dev/pmem0 baseline for benches: 8 GiB of plain DRAM per
     *  module, the PoC's refresh registers (Table I: the baseline
     *  RDIMM ran with tRFC = 1250 ns too) and bulk memcpy. */
    static SystemConfig scaledPmem();

    /**
     * Shared derivation every preset builds on: a @p cacheBytes DRAM
     * cache in front of Z-NAND with the paper's timing ratios
     * (DDR4-1600, programmed tRFC 1250 ns vs tREFI 7.8 us). Presets
     * only adjust capacities and workload knobs on top — never the
     * ratios that drive the paper's results.
     */
    static SystemConfig deriveScaled(std::uint64_t cacheBytes);
};

} // namespace nvdimmc::core

#endif // NVDIMMC_CORE_SYSTEM_CONFIG_HH
