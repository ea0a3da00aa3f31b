#include "driver/nvdimmf_driver.hh"

#include "common/logging.hh"

namespace nvdimmc::driver
{

NvdimmFDriver::NvdimmFDriver(EventQueue& eq, ftl::Ftl& ftl,
                             imc::Imc& imc)
    : eq_(eq), ftl_(ftl), imc_(imc)
{
}

void
NvdimmFDriver::read(Addr offset, std::uint32_t len, std::uint8_t* buf,
                    std::function<void()> done)
{
    NVDC_ASSERT(offset % kPageBytes == 0 && len % kPageBytes == 0,
                "NVDIMM-F is a block device: 4 KB aligned only");
    NVDC_ASSERT(offset + len <= capacityBytes(), "read out of range");
    stats_.readOps.inc();
    Tick started = eq_.now();
    eq_.scheduleAfter(kOpOverhead, [this, offset, len, buf, started,
                                    cb = std::move(done)]() mutable {
        readPages(offset / kPageBytes, len / kPageBytes, buf,
                  std::move(cb), started);
    });
}

void
NvdimmFDriver::readPages(std::uint64_t page, std::uint32_t pages,
                         std::uint8_t* buf, std::function<void()> done,
                         Tick started)
{
    if (pages == 0) {
        stats_.latency.record(eq_.now() - started);
        done();
        return;
    }
    // Doorbell, NAND read into the aperture, then the host pulls the
    // block across the DDR4 bus.
    eq_.scheduleAfter(kCommandCost, [this, page, pages, buf,
                                     started,
                                     cb = std::move(done)]() mutable {
        ftl_.readPage(page, buf, [this, page, pages, buf, started,
                                  cb = std::move(cb)]() mutable {
            imc_.bulkTransfer(kPageBytes, false,
                              [this, page, pages, buf, started,
                               cb = std::move(cb)]() mutable {
                readPages(page + 1, pages - 1,
                          buf ? buf + kPageBytes : nullptr,
                          std::move(cb), started);
            });
        });
    });
}

void
NvdimmFDriver::write(Addr offset, std::uint32_t len,
                     const std::uint8_t* data,
                     std::function<void()> done)
{
    NVDC_ASSERT(offset % kPageBytes == 0 && len % kPageBytes == 0,
                "NVDIMM-F is a block device: 4 KB aligned only");
    NVDC_ASSERT(offset + len <= capacityBytes(), "write out of range");
    stats_.writeOps.inc();
    Tick started = eq_.now();
    eq_.scheduleAfter(kOpOverhead, [this, offset, len, data,
                                    started,
                                    cb = std::move(done)]() mutable {
        writePages(offset / kPageBytes, len / kPageBytes, data,
                   std::move(cb), started);
    });
}

void
NvdimmFDriver::writePages(std::uint64_t page, std::uint32_t pages,
                          const std::uint8_t* data,
                          std::function<void()> done, Tick started)
{
    if (pages == 0) {
        stats_.latency.record(eq_.now() - started);
        done();
        return;
    }
    eq_.scheduleAfter(kCommandCost, [this, page, pages, data,
                                     started,
                                     cb = std::move(done)]() mutable {
        imc_.bulkTransfer(kPageBytes, true,
                          [this, page, pages, data, started,
                           cb = std::move(cb)]() mutable {
            ftl_.writePage(page, data, [this, page, pages, data,
                                        started,
                                        cb = std::move(cb)]() mutable {
                writePages(page + 1, pages - 1,
                           data ? data + kPageBytes : nullptr,
                           std::move(cb), started);
            });
        });
    });
}

} // namespace nvdimmc::driver
