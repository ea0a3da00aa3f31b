#include "nvm/nvm_media.hh"

#include <algorithm>

#include "common/logging.hh"

namespace nvdimmc::nvm
{

NvmMedia::NvmMedia(EventQueue& eq, std::string name,
                   std::uint64_t capacity)
    : eq_(eq), name_(std::move(name)), capacity_(capacity)
{
}

void
NvmMedia::storeBytes(Addr addr, std::uint32_t len,
                     const std::uint8_t* data)
{
    NVDC_ASSERT(addr + len <= capacity_, "media write out of range");
    chunks_.write(addr, data, len);
}

void
NvmMedia::loadBytes(Addr addr, std::uint32_t len, std::uint8_t* buf) const
{
    NVDC_ASSERT(addr + len <= capacity_, "media read out of range");
    chunks_.read(addr, buf, len);
}

void
NvmMedia::readRange(Addr addr, std::uint32_t len, std::uint8_t* buf,
                    Callback done)
{
    Tick service = readServiceTime(addr, len);
    stats_.reads.inc();
    stats_.readLatency.record(service);
    if (buf)
        loadBytes(addr, len, buf);
    eq_.scheduleAfter(service, std::move(done));
}

void
NvmMedia::writeRange(Addr addr, std::uint32_t len,
                     const std::uint8_t* data, Callback done)
{
    Tick service = writeServiceTime(addr, len);
    stats_.writes.inc();
    stats_.writeLatency.record(service);
    if (data)
        storeBytes(addr, len, data);
    eq_.scheduleAfter(service, std::move(done));
}

SimpleMedia::SimpleMedia(EventQueue& eq, std::string name,
                         std::uint64_t capacity, const Params& p)
    : NvmMedia(eq, std::move(name), capacity), params_(p)
{
}

Tick
SimpleMedia::transferTime(std::uint32_t len) const
{
    double bytes_per_ps = params_.bandwidthMBps * 1e6 / 1e12;
    return static_cast<Tick>(static_cast<double>(len) / bytes_per_ps);
}

Tick
SimpleMedia::readServiceTime(Addr, std::uint32_t len)
{
    Tick start = std::max(eq_.now(), busyUntil_);
    Tick finish = start + params_.readLatency + transferTime(len);
    busyUntil_ = finish;
    return finish - eq_.now();
}

Tick
SimpleMedia::writeServiceTime(Addr, std::uint32_t len)
{
    Tick start = std::max(eq_.now(), busyUntil_);
    Tick finish = start + params_.writeLatency + transferTime(len);
    busyUntil_ = finish;
    return finish - eq_.now();
}

} // namespace nvdimmc::nvm
