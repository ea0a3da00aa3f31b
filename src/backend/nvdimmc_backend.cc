#include "backend/nvdimmc_backend.hh"

#include <array>
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
    const std::vector<const nvmc::ReservedLayout*>& layouts)
    : eq_(eq),
      cacheModel_(cache_model),
      channels_(static_cast<std::uint32_t>(layouts.size())),
      il_(channels_, dram::ChannelInterleave::kPageGranule),
      nvmcs_(layouts.size(), nullptr)
{
    NVDC_ASSERT(!layouts.empty(),
                "CP transport needs at least one module");
    traits_.kind = BackendKind::Nvdimmc;
    traits_.interleaveGranule = dram::ChannelInterleave::kPageGranule;

    layouts_.reserve(layouts.size());
    for (std::uint32_t ch = 0; ch < channels_; ++ch) {
        const nvmc::ReservedLayout& lay = *layouts[ch];
        layouts_.push_back(lay);
        std::vector<CpSlot> slots(lay.maxCommands);
        std::vector<std::uint32_t> free_indices;
        for (std::uint32_t i = 0; i < lay.maxCommands; ++i) {
            slots[i].channel = ch;
            slots[i].index = i;
            free_indices.push_back(i);
        }
        cpSlots_.push_back(std::move(slots));
        freeCpIndices_.push_back(std::move(free_indices));
        cpWaiters_.emplace_back();
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
NvdimmcBackend::cpTransaction(std::uint32_t channel,
                              const nvmc::CpCommand& cmd, Callback done)
{
    auto& free_indices = freeCpIndices_[channel];
    if (free_indices.empty()) {
        cpWaiters_[channel].push_back({cmd, std::move(done)});
        return;
    }
    CpSlot& s = cpSlots_[channel][free_indices.back()];
    free_indices.pop_back();
    s.cmd = cmd;
    s.done = std::move(done);
    beginTransaction(s);
}

void
NvdimmcBackend::releaseCpIndex(CpSlot& s)
{
    auto& waiters = cpWaiters_[s.channel];
    if (!waiters.empty()) {
        s.cmd = waiters.front().cmd;
        s.done = std::move(waiters.front().done);
        waiters.pop_front();
        eq_.scheduleAfter(0, [this, slot = &s] { beginTransaction(*slot); });
        return;
    }
    freeCpIndices_[s.channel].push_back(s.index);
}

void
NvdimmcBackend::beginTransaction(CpSlot& s)
{
    // Waiting for a free CP slot (queue depth contention).
    span::phase(s.cmd.spanId, span::Phase::CpQueue, eq_.now());
    eq_.scheduleAfter(kCpWriteCost,
                      [this, slot = &s] { writeCommand(*slot); });
}

void
NvdimmcBackend::writeCommand(CpSlot& s)
{
    s.phase = (s.phase == 255) ? 1 : s.phase + 1;
    s.cmd.phase = s.phase;
    std::array<std::uint8_t, 64> line{};
    nvmc::encodeCpCommand(s.cmd, line.data());
    // Store the command, then clflush + sfence so the FPGA's next poll
    // sees it in DRAM. The store copies the line before it returns.
    cacheModel_.store(commandAddr(s), line.data(), [this, slot = &s] {
        cacheModel_.clflush(commandAddr(*slot), [this, slot] {
            // Command composed, stored and flushed; it is now visible
            // to the module's next poll.
            span::phase(slot->cmd.spanId, span::Phase::CpWrite,
                        eq_.now());
            pollAck(*slot);
        });
    });
}

void
NvdimmcBackend::pollAck(CpSlot& s)
{
    stats_.ackPolls.inc();
    Addr addr = ackAddr(s);
    // Invalidate first: the FPGA writes the ack behind the CPU
    // cache's back (paper §V-B).
    cacheModel_.invalidate(addr);
    cacheModel_.load(addr, s.ack.data(),
                     [this, slot = &s] { ackLoaded(*slot); });
}

void
NvdimmcBackend::ackLoaded(CpSlot& s)
{
    nvmc::CpAck ack = nvmc::decodeCpAck(s.ack.data());
    if (ack.phase != s.phase || ack.status != 1) {
        eq_.scheduleAfter(kAckPollInterval,
                          [this, slot = &s] { pollAck(*slot); });
        return;
    }
    // Everything after the module's last mark was spent waiting for
    // the driver to observe the ack line.
    span::phase(s.cmd.spanId, span::Phase::CpAck, eq_.now());
    // Move the completion out first: releasing the index may hand the
    // record to the next transaction.
    Callback done = std::move(s.done);
    releaseCpIndex(s);
    done();
}

} // namespace nvdimmc::backend
