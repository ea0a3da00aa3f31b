#include "imc/host_port.hh"

#include <algorithm>
#include <memory>
#include <utility>

#include "common/logging.hh"

namespace nvdimmc::imc
{

HostPort::HostPort(std::vector<Imc*> imcs,
                   const dram::ChannelInterleave& interleave)
    : imcs_(std::move(imcs)), interleave_(interleave)
{
    NVDC_ASSERT(!imcs_.empty(), "host port needs at least one iMC");
    NVDC_ASSERT(imcs_.size() == interleave_.channels(),
                "iMC count does not match the interleave map");
}

HostPort::HostPort(Imc& imc)
    : imcs_{&imc}, interleave_(1, dram::ChannelInterleave::kPageGranule)
{
}

bool
HostPort::readLine(Addr flat, std::uint8_t* buf, Callback done)
{
    auto t = interleave_.route(flat);
    return imcs_[t.channel]->readLine(t.local, buf, std::move(done));
}

bool
HostPort::writeLine(Addr flat, const std::uint8_t* data, Callback done)
{
    auto t = interleave_.route(flat);
    return imcs_[t.channel]->writeLine(t.local, data, std::move(done));
}

void
HostPort::whenSpace(Addr flat, SpaceFor queue, Callback retry)
{
    imcs_[channelOf(flat)]->whenSpace(queue, std::move(retry));
}

void
HostPort::bulkTransfer(Addr flat, std::uint32_t bytes, bool is_write,
                       Callback done)
{
    if (imcs_.size() == 1) {
        imcs_[0]->bulkTransfer(bytes, is_write, std::move(done));
        return;
    }

    // A transfer inside one granule (every 4 KB page copy at the page
    // granule) is one slice on one channel: hand it straight over.
    const std::uint32_t granule = interleave_.granule();
    if (bytes > 0 && flat % granule + bytes <= granule) {
        imcs_[channelOf(flat)]->bulkTransfer(bytes, is_write,
                                             std::move(done));
        return;
    }

    // Split the byte count per owning channel at granule boundaries.
    std::vector<std::uint32_t> per_channel(imcs_.size(), 0);
    Addr cur = flat;
    std::uint32_t left = bytes;
    while (left > 0) {
        Addr in_granule = cur % granule;
        std::uint32_t chunk = static_cast<std::uint32_t>(
            std::min<std::uint64_t>(left, granule - in_granule));
        per_channel[channelOf(cur)] += chunk;
        cur += chunk;
        left -= chunk;
    }

    // Fan out; the shared countdown fires `done` after the last slice.
    auto remaining = std::make_shared<std::uint32_t>(0);
    for (std::uint32_t b : per_channel)
        if (b > 0)
            ++*remaining;
    if (*remaining == 0) {
        if (done)
            done();
        return;
    }
    auto shared_done = std::make_shared<Callback>(std::move(done));
    Callback slice_done = [remaining, shared_done] {
        if (--*remaining == 0 && *shared_done)
            (*shared_done)();
    };
    for (std::uint32_t ch = 0; ch < per_channel.size(); ++ch) {
        if (per_channel[ch] > 0)
            imcs_[ch]->bulkTransfer(per_channel[ch], is_write,
                                    slice_done);
    }
}

} // namespace nvdimmc::imc
