#include "backend/cxl_backend.hh"

#include <utility>

#include "common/logging.hh"

namespace nvdimmc::backend
{

CxlHybridBackend::CxlHybridBackend(EventQueue& eq,
                                   std::uint32_t interleave_granule)
    : eq_(eq)
{
    traits_.kind = BackendKind::CxlHybrid;
    traits_.interleaveGranule = interleave_granule;
}

void
CxlHybridBackend::attachChannel(std::uint32_t ch,
                                dram::DramDevice& dram,
                                nvm::PageBackend& media,
                                const nvmc::ReservedLayout& layout)
{
    if (ch >= channels_.size())
        channels_.resize(ch + 1);
    Channel& c = channels_[ch];
    c.dram = &dram;
    c.media = &media;
    c.layout = &layout;
    c.readCredits = kMaxPendingReads;
    c.writeCredits = kMaxPendingWrites;
}

bool
CxlHybridBackend::tryTakeCredits(std::uint32_t ch,
                                 TransportOp::Kind kind)
{
    Channel& c = channels_[ch];
    const bool need_read = kind != TransportOp::Kind::Writeback;
    const bool need_write = kind != TransportOp::Kind::Cachefill;
    if ((need_read && c.readCredits == 0) ||
        (need_write && c.writeCredits == 0))
        return false;
    if (need_read)
        --c.readCredits;
    if (need_write)
        --c.writeCredits;
    return true;
}

void
CxlHybridBackend::acquireCredits(std::uint32_t ch,
                                 TransportOp::Kind kind, Callback go)
{
    Channel& c = channels_[ch];
    // Arrivals behind a parked op park too, even if their own pool
    // has room: the link issues in order.
    if (c.creditWaiters.empty() && tryTakeCredits(ch, kind)) {
        go();
        return;
    }
    stats_.creditWaits.inc();
    c.creditWaiters.push_back({kind, std::move(go)});
}

void
CxlHybridBackend::releaseCredits(std::uint32_t ch,
                                 TransportOp::Kind kind)
{
    Channel& c = channels_[ch];
    if (kind != TransportOp::Kind::Writeback)
        ++c.readCredits;
    if (kind != TransportOp::Kind::Cachefill)
        ++c.writeCredits;
    pumpWaiters(ch);
}

void
CxlHybridBackend::pumpWaiters(std::uint32_t ch)
{
    Channel& c = channels_[ch];
    while (!c.creditWaiters.empty() &&
           tryTakeCredits(ch, c.creditWaiters.front().kind)) {
        auto go = std::move(c.creditWaiters.front().go);
        c.creditWaiters.pop_front();
        go();
    }
}

void
CxlHybridBackend::toDevice(Callback fn)
{
    eq_.scheduleAfter(kReqLatency, std::move(fn));
}

void
CxlHybridBackend::toHost(Callback fn)
{
    eq_.scheduleAfter(kRespLatency, std::move(fn));
}

void
CxlHybridBackend::submit(std::uint32_t channel, const TransportOp& op,
                         Callback done)
{
    NVDC_ASSERT(channel < channels_.size() &&
                channels_[channel].media != nullptr,
                "CXL channel used before attachChannel");
    switch (op.kind) {
      case TransportOp::Kind::Cachefill:
        stats_.cachefills.inc();
        break;
      case TransportOp::Kind::Writeback:
        stats_.writebacks.inc();
        break;
      case TransportOp::Kind::WritebackCachefill:
        stats_.mergedOps.inc();
        break;
    }
    const Tick submitted = eq_.now();
    acquireCredits(channel, op.kind, [this, channel, op, submitted,
                                      done = std::move(done)]() mutable {
        // Credit in hand; everything since submit() was pool pressure.
        span::phase(op.span, span::Phase::LinkWait, eq_.now());
        Callback respond = [this, channel, op, submitted,
                            done = std::move(done)] {
            // Runs device-side once the op's work is finished; the
            // response flit crosses back and completes on the host.
            toHost([this, channel, op, submitted,
                             done = std::move(done)] {
                span::phase(op.span, span::Phase::LinkResp,
                            eq_.now());
                stats_.opLatency.record(eq_.now() - submitted);
                releaseCredits(channel, op.kind);
                done();
            });
        };
        toDevice([this, channel, op,
                           respond = std::move(respond)]() mutable {
            deviceExec(channel, op, std::move(respond));
        });
    });
}

void
CxlHybridBackend::deviceExec(std::uint32_t ch, TransportOp op,
                             Callback respond)
{
    Channel& c = channels_[ch];
    // The request flit has arrived at the device controller.
    span::phase(op.span, span::Phase::LinkReq, eq_.now());

    if (op.kind == TransportOp::Kind::Cachefill) {
        deviceFill(ch, op, op.dramSlot, op.nandPage,
                   std::move(respond));
        return;
    }

    // Writeback half first: copy the victim slot out of the device
    // DRAM into the PLP-backed capture buffer. Once that copy lands
    // the bytes are power-fail safe — the NAND program runs behind
    // the response, exactly the firmware's ack-early contract.
    const std::uint32_t slot = op.dramSlot;
    const std::uint64_t nand_page = op.nandPage;
    auto buf = std::make_shared<std::vector<std::uint8_t>>(
        nvm::PageBackend::kPageBytes);
    readDramDirect(ch, c.layout->slotAddr(slot),
                   nvm::PageBackend::kPageBytes, buf->data());
    eq_.scheduleAfter(kDevCopyLatency, [this, ch, op, slot,
                                        nand_page, buf,
                                        respond = std::move(
                                            respond)]() mutable {
        Channel& cc = channels_[ch];
        span::phase(op.span, span::Phase::DevCopy, eq_.now());
        // From this instant the slot may be overwritten by a fill;
        // the power-fail dump must not commit its bytes as the
        // victim's. The program retains the capture buffer.
        cc.captured[slot] = nand_page;
        cc.media->writePage(nand_page, buf->data(),
                            [this, ch, slot, nand_page, buf] {
                                auto& m = channels_[ch].captured;
                                auto it = m.find(slot);
                                if (it != m.end() &&
                                    it->second == nand_page)
                                    m.erase(it);
                            });
        if (op.kind == TransportOp::Kind::WritebackCachefill) {
            deviceFill(ch, op, op.dramSlot2, op.nandPage2,
                       std::move(respond));
            return;
        }
        respond();
    });
}

void
CxlHybridBackend::deviceFill(std::uint32_t ch, const TransportOp& op,
                             std::uint32_t slot,
                             std::uint64_t nand_page, Callback respond)
{
    Channel& c = channels_[ch];
    auto buf = std::make_shared<std::vector<std::uint8_t>>(
        nvm::PageBackend::kPageBytes);
    c.media->readPage(
        nand_page, buf->data(),
        [this, ch, op, slot, buf, respond = std::move(respond)]() mutable {
            // NAND data in the device buffer; copy it into the slot.
            eq_.scheduleAfter(
                kDevCopyLatency,
                [this, ch, op, slot, buf,
                 respond = std::move(respond)] {
                    Channel& c2 = channels_[ch];
                    writeDramDirect(ch, c2.layout->slotAddr(slot),
                                    nvm::PageBackend::kPageBytes,
                                    buf->data());
                    span::phase(op.span, span::Phase::DevCopy,
                                eq_.now());
                    respond();
                });
        },
        op.span);
}

std::size_t
CxlHybridBackend::powerFailFlush(std::uint32_t channel)
{
    if (channel >= channels_.size() ||
        channels_[channel].media == nullptr)
        return 0;
    Channel& c = channels_[channel];
    std::size_t flushed = 0;
    std::vector<std::uint8_t> meta_line(64);
    std::vector<std::uint8_t> page(nvm::PageBackend::kPageBytes);

    // Same post-mortem walk the NVDIMM-C firmware performs, run by
    // the device controller off its PLP reserve: commit every slot
    // the in-DRAM metadata marks dirty, skipping slots whose victim
    // is already captured (its program owns the bytes; the slot may
    // hold a partially landed fill).
    for (std::uint32_t slot = 0; slot < c.layout->slotCount();
         ++slot) {
        Addr maddr = c.layout->metadataAddr(slot);
        Addr line_addr = maddr & ~Addr{63};
        readDramDirect(channel, line_addr, 64, meta_line.data());
        nvmc::SlotMetadata m = nvmc::decodeSlotMetadata(
            meta_line.data() + (maddr - line_addr));
        if (!m.valid || !m.dirty)
            continue;
        auto cap = c.captured.find(slot);
        if (cap != c.captured.end() && cap->second == m.nandPage)
            continue;
        readDramDirect(channel, c.layout->slotAddr(slot),
                       nvm::PageBackend::kPageBytes, page.data());
        c.media->writePage(m.nandPage, page.data(), [] {});
        ++flushed;
        stats_.pagesDumped.inc();
    }
    return flushed;
}

void
CxlHybridBackend::registerStats(StatRegistry& reg,
                                const std::string& prefix) const
{
    reg.addCounter(prefix + ".cxl.cachefills", stats_.cachefills);
    reg.addCounter(prefix + ".cxl.writebacks", stats_.writebacks);
    reg.addCounter(prefix + ".cxl.merged", stats_.mergedOps);
    reg.addCounter(prefix + ".cxl.credit_waits", stats_.creditWaits);
    reg.addCounter(prefix + ".cxl.dumped_pages", stats_.pagesDumped);
    reg.add(prefix + ".cxl.op_latency_mean_us", [this] {
        return stats_.opLatency.mean() / 1e6;
    });
}

void
CxlHybridBackend::readDramDirect(std::uint32_t ch, Addr addr,
                                 std::uint32_t len,
                                 std::uint8_t* buf) const
{
    const Channel& c = channels_[ch];
    const auto& map = c.dram->addressMap();
    NVDC_ASSERT(addr % dram::AddressMap::kBurstBytes == 0 &&
                len % dram::AddressMap::kBurstBytes == 0,
                "direct read must be 64B aligned");
    for (std::uint32_t off = 0; off < len;
         off += dram::AddressMap::kBurstBytes)
        c.dram->readBurst(map.decompose(addr + off), buf + off);
}

void
CxlHybridBackend::writeDramDirect(std::uint32_t ch, Addr addr,
                                  std::uint32_t len,
                                  const std::uint8_t* data)
{
    Channel& c = channels_[ch];
    const auto& map = c.dram->addressMap();
    NVDC_ASSERT(addr % dram::AddressMap::kBurstBytes == 0 &&
                len % dram::AddressMap::kBurstBytes == 0,
                "direct write must be 64B aligned");
    for (std::uint32_t off = 0; off < len;
         off += dram::AddressMap::kBurstBytes)
        c.dram->writeBurst(map.decompose(addr + off), data + off);
}

} // namespace nvdimmc::backend
