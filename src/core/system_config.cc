#include "core/system_config.hh"

namespace nvdimmc::core
{

SystemConfig
SystemConfig::deriveScaled(std::uint64_t cacheBytes)
{
    SystemConfig c;
    c.dramCacheBytes = cacheBytes;
    c.dramTiming = dram::Ddr4Timing::ddr4_1600();
    c.refresh = dram::RefreshRegisters::nvdimmc();
    c.media = MediaKind::ZNand;
    c.nvmc.firmware = nvmc::FirmwareConfig::poc();
    return c;
}

SystemConfig&
SystemConfig::applyCxlBackend()
{
    backendKind = backend::BackendKind::CxlHybrid;
    // No CP page, no snooping controller: the device answers over the
    // link, so the module-side NVMC never gets built.
    nvmcEnabled = false;
    // The extended tRFC exists only to widen the DMA windows the CXL
    // device does not need; its internal DRAM refreshes normally.
    refresh = dram::RefreshRegisters::standard();
    // Nothing pins a cache slot to one module's DRAM anymore: stripe
    // at the CXL line granule.
    interleaveGranule = cxl.interleaveGranule;
    return *this;
}

SystemConfig
SystemConfig::paperPoc()
{
    SystemConfig c = deriveScaled(16 * kGiB);
    c.znand = nvm::ZNandParams::poc128GB();
    // Full-scale runs are throughput studies; the analytic memcpy
    // keeps bulk data out of the byte store (which must stay on for
    // the CP/ack/metadata channel the driver and FPGA share).
    c.memcpy.bulkMode = true;
    return c;
}

SystemConfig
SystemConfig::scaledTest()
{
    // Cache intentionally much smaller than the NAND so eviction and
    // writeback paths are exercised quickly.
    SystemConfig c = deriveScaled(4 * kMiB);
    c.znand = nvm::ZNandParams::tiny();
    c.ftl.gcLowWaterBlocks = 2;
    c.ftl.gcHighWaterBlocks = 4;
    c.cpuCache.capacityLines = 16 * 1024;
    c.storeData = true;
    return c;
}

SystemConfig
SystemConfig::scaledBench()
{
    SystemConfig c = deriveScaled(512 * kMiB);
    // 4 GiB of NAND (3.75 GiB exposed): tiny() geometry scaled up.
    c.znand = nvm::ZNandParams::tiny();
    c.znand.diesPerChannel = 2;
    c.znand.planesPerDie = 2;
    c.znand.blocksPerPlane = 512;
    c.znand.pagesPerBlock = 256;
    c.memcpy.bulkMode = true;
    return c;
}

SystemConfig
SystemConfig::scaledPmem()
{
    SystemConfig c;
    c.backendKind = backend::BackendKind::Pmem;
    c.dramCacheBytes = 8 * kGiB;
    c.refresh = dram::RefreshRegisters::nvdimmc();
    c.memcpy.bulkMode = true;
    return c;
}

} // namespace nvdimmc::core
