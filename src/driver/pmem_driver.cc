#include "driver/pmem_driver.hh"

#include "common/logging.hh"

namespace nvdimmc::driver
{

PmemDriver::PmemDriver(EventQueue& eq, cpu::MemcpyEngine& engine,
                       std::uint64_t capacity_bytes)
    : eq_(eq), engine_(engine), capacity_(capacity_bytes)
{
}

void
PmemDriver::read(Addr offset, std::uint32_t len, std::uint8_t* buf,
                 std::function<void()> done)
{
    NVDC_ASSERT(offset + len <= capacity_, "pmem read out of range");
    stats_.readOps.inc();
    Tick start = eq_.now();
    Tick overhead = kOpOverhead + (len / 64) * kPerLineOverhead;
    eq_.scheduleAfter(overhead, [this, offset, len, buf, start,
                                        cb = std::move(done)]() mutable {
        engine_.read(offset, len, buf, true,
                     [this, start, cb = std::move(cb)] {
                         stats_.latency.record(eq_.now() - start);
                         cb();
                     });
    });
}

void
PmemDriver::write(Addr offset, std::uint32_t len,
                  const std::uint8_t* data, std::function<void()> done)
{
    NVDC_ASSERT(offset + len <= capacity_, "pmem write out of range");
    stats_.writeOps.inc();
    Tick start = eq_.now();
    Tick overhead = kOpOverhead + (len / 64) * kPerLineOverhead;
    eq_.scheduleAfter(overhead, [this, offset, len, data, start,
                                        cb = std::move(done)]() mutable {
        engine_.writeNt(offset, len, data,
                        [this, start, cb = std::move(cb)]() mutable {
            eq_.scheduleAfter(kPersistCost,
                              [this, start, cb = std::move(cb)] {
                stats_.latency.record(eq_.now() - start);
                cb();
            });
        });
    });
}

} // namespace nvdimmc::driver
