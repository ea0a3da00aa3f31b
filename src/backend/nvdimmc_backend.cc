#include "backend/nvdimmc_backend.hh"

#include <array>
#include <memory>
#include <utility>

#include "common/logging.hh"
#include "nvmc/nvmc.hh"

namespace nvdimmc::backend
{

const char*
toString(BackendKind kind)
{
    switch (kind) {
      case BackendKind::Nvdimmc: return "nvdimmc";
      case BackendKind::CxlHybrid: return "cxl";
      case BackendKind::Pmem: return "pmem";
    }
    return "?";
}

NvdimmcBackend::NvdimmcBackend(
    EventQueue& eq, cpu::CpuCacheModel& cache_model,
    const std::vector<const nvmc::ReservedLayout*>& layouts,
    const NvdimmcBackendConfig& cfg)
    : eq_(eq),
      cacheModel_(cache_model),
      cfg_(cfg),
      channels_(static_cast<std::uint32_t>(layouts.size())),
      il_(channels_, dram::ChannelInterleave::kPageGranule),
      nvmcs_(layouts.size(), nullptr)
{
    NVDC_ASSERT(!layouts.empty(),
                "CP transport needs at least one module");
    traits_.kind = BackendKind::Nvdimmc;
    traits_.name = "nvdimmc";
    traits_.interleaveGranule = dram::ChannelInterleave::kPageGranule;
    traits_.usesRefreshWindows = true;
    traits_.durableOnAck = true;
    traits_.hasMissTransport = true;

    layouts_.reserve(layouts.size());
    for (std::uint32_t ch = 0; ch < channels_; ++ch) {
        const nvmc::ReservedLayout& lay = *layouts[ch];
        layouts_.push_back(lay);
        std::vector<std::uint32_t> free_indices;
        for (std::uint32_t i = 0; i < lay.maxCommands; ++i)
            free_indices.push_back(i);
        freeCpIndices_.push_back(std::move(free_indices));
        cpWaiters_.emplace_back();
        cpPhase_.emplace_back(lay.maxCommands, 0);
    }
}

void
NvdimmcBackend::attachNvmc(std::uint32_t channel, nvmc::Nvmc* nvmc)
{
    nvmcs_[channel] = nvmc;
}

void
NvdimmcBackend::submit(std::uint32_t channel, const TransportOp& op,
                       Callback done)
{
    nvmc::CpCommand cmd;
    switch (op.kind) {
      case TransportOp::Kind::Cachefill:
        cmd.opcode = nvmc::CpOpcode::Cachefill;
        break;
      case TransportOp::Kind::Writeback:
        cmd.opcode = nvmc::CpOpcode::Writeback;
        break;
      case TransportOp::Kind::WritebackCachefill:
        cmd.opcode = nvmc::CpOpcode::WritebackCachefill;
        break;
    }
    cmd.dramSlot = op.dramSlot;
    cmd.nandPage = op.nandPage;
    cmd.dramSlot2 = op.dramSlot2;
    cmd.nandPage2 = op.nandPage2;
    cmd.spanId = op.span;
    cpTransaction(channel, cmd, std::move(done));
}

std::size_t
NvdimmcBackend::powerFailFlush(std::uint32_t channel)
{
    if (channel >= nvmcs_.size() || nvmcs_[channel] == nullptr)
        return 0;
    return nvmcs_[channel]->firmware().powerFailDump();
}

void
NvdimmcBackend::registerStats(StatRegistry& reg,
                              const std::string& prefix) const
{
    reg.addCounter(prefix + ".ack_polls", stats_.ackPolls);
}

void
NvdimmcBackend::acquireCpIndex(
    std::uint32_t channel, std::function<void(std::uint32_t)> granted)
{
    auto& free_indices = freeCpIndices_[channel];
    if (!free_indices.empty()) {
        std::uint32_t i = free_indices.back();
        free_indices.pop_back();
        granted(i);
        return;
    }
    cpWaiters_[channel].push_back(std::move(granted));
}

void
NvdimmcBackend::releaseCpIndex(std::uint32_t channel,
                               std::uint32_t index)
{
    auto& waiters = cpWaiters_[channel];
    if (!waiters.empty()) {
        auto next = std::move(waiters.front());
        waiters.pop_front();
        eq_.scheduleAfter(0, [next = std::move(next), index] {
            next(index);
        });
        return;
    }
    freeCpIndices_[channel].push_back(index);
}

std::uint8_t
NvdimmcBackend::nextPhase(std::uint32_t channel, std::uint32_t index)
{
    std::uint8_t p = cpPhase_[channel][index];
    p = (p == 255) ? 1 : p + 1;
    cpPhase_[channel][index] = p;
    return p;
}

void
NvdimmcBackend::cpTransaction(std::uint32_t channel, nvmc::CpCommand cmd,
                              Callback done)
{
    acquireCpIndex(channel, [this, channel, cmd,
                             done = std::move(done)](
                                std::uint32_t index) mutable {
        // Waiting for a free CP slot (queue depth contention).
        span::phase(cmd.spanId, span::Phase::CpQueue, eq_.now());
        eq_.scheduleAfter(cfg_.cpWriteCost, [this, channel, cmd, index,
                                             done = std::move(done)]()
                              mutable {
            nvmc::CpCommand final_cmd = cmd;
            final_cmd.phase = nextPhase(channel, index);

            auto line = std::make_shared<
                std::array<std::uint8_t, 64>>();
            nvmc::encodeCpCommand(final_cmd, line->data());

            Addr addr =
                flatAddr(channel, layouts_[channel].commandAddr(index));
            std::uint8_t phase = final_cmd.phase;
            span::Id sp = final_cmd.spanId;
            // Store the command, then clflush + sfence so the FPGA's
            // next poll sees it in DRAM.
            cacheModel_.store(addr, line->data(), [this, addr, line,
                                                   channel, index,
                                                   phase, sp,
                                                   done =
                                                       std::move(done)]()
                                  mutable {
                cacheModel_.clflush(addr, [this, channel, index, phase,
                                           line, sp,
                                           done = std::move(done)]()
                                        mutable {
                    // Command composed, stored and flushed; it is now
                    // visible to the module's next poll.
                    span::phase(sp, span::Phase::CpWrite, eq_.now());
                    pollAck(channel, index, phase,
                            [this, channel, index, sp,
                             done = std::move(done)] {
                        // Everything after the module's last mark was
                        // spent waiting for the driver to observe the
                        // ack line.
                        span::phase(sp, span::Phase::CpAck, eq_.now());
                        releaseCpIndex(channel, index);
                        done();
                    });
                });
            });
        });
    });
}

void
NvdimmcBackend::pollAck(std::uint32_t channel, std::uint32_t index,
                        std::uint8_t phase, Callback done)
{
    stats_.ackPolls.inc();
    Addr addr = flatAddr(channel, layouts_[channel].ackAddr(index));
    // Invalidate first: the FPGA writes the ack behind the CPU
    // cache's back (paper §V-B).
    cacheModel_.invalidate(addr);
    auto buf = std::make_shared<std::array<std::uint8_t, 64>>();
    cacheModel_.load(addr, buf->data(), [this, channel, index, phase,
                                         buf, done = std::move(done)]()
                         mutable {
        nvmc::CpAck ack = nvmc::decodeCpAck(buf->data());
        if (ack.phase == phase && ack.status == 1) {
            done();
            return;
        }
        eq_.scheduleAfter(cfg_.ackPollInterval,
                          [this, channel, index, phase,
                           done = std::move(done)]() mutable {
            pollAck(channel, index, phase, std::move(done));
        });
    });
}

} // namespace nvdimmc::backend
