#include "nvmc/firmware.hh"

#include <cstring>

#include "common/logging.hh"
#include "common/span.hh"
#include "common/trace.hh"

namespace nvdimmc::nvmc
{

Firmware::Firmware(EventQueue& eq, DmaEngine& dma,
                   nvm::PageBackend& backend, dram::DramDevice& dram,
                   const ReservedLayout& layout,
                   const FirmwareConfig& cfg)
    : eq_(eq),
      dma_(dma),
      backend_(backend),
      dram_(dram),
      layout_(layout),
      cfg_(cfg),
      lastPhase_(layout.maxCommands, 0),
      pollImage_(std::make_shared<std::vector<std::uint8_t>>(
          std::size_t{layout.maxCommands} * ReservedLayout::kLineBytes))
{
}

void
Firmware::onWindow(Tick win_start, Tick win_end)
{
    maybeEnqueuePoll();
    dma_.runWindow(win_start, win_end, nullptr);
}

void
Firmware::maybeEnqueuePoll()
{
    if (pollInFlight_ || decoding_)
        return;
    if (opsInFlight_ >= layout_.maxCommands)
        return;
    if (dma_.backlog() > 0)
        return; // Let queued data/ack work use the window first.

    pollInFlight_ = true;
    stats_.cpPolls.inc();
    trace::instant("nvmc.cp", "poll", eq_.now());

    DmaRequest req;
    req.addr = layout_.commandAddr(0);
    req.bytes = static_cast<std::uint32_t>(pollImage_->size());
    req.isWrite = false;
    req.buffer = pollImage_;
    req.done = [this] {
        pollInFlight_ = false;
        decoding_ = true;
        // CP decode runs in A53 software.
        eq_.scheduleAfter(cfg_.decodeDelay, [this] { decodePoll(); });
    };
    dma_.enqueue(std::move(req));
}

void
Firmware::decodePoll()
{
    decoding_ = false;
    const std::vector<std::uint8_t>& data = *pollImage_;
    for (std::uint32_t i = 0; i < layout_.maxCommands; ++i) {
        if (opsInFlight_ >= layout_.maxCommands)
            break;
        CpCommand cmd = decodeCpCommand(
            data.data() + std::size_t{i} * ReservedLayout::kLineBytes);
        if (cmd.phase == 0 || cmd.phase == lastPhase_[i])
            continue;
        lastPhase_[i] = cmd.phase;

        if (cmd.spanId != 0) {
            // The command sat in the CP area until the poll read that
            // carried this batch arrived; the decode delay after that
            // is A53 software time.
            span::phase(cmd.spanId, span::Phase::WindowWait,
                        eq_.now() - cfg_.decodeDelay);
            span::phase(cmd.spanId, span::Phase::FwDecode, eq_.now());
        }

        Op op;
        op.cmd = cmd;
        op.cpIndex = i;
        op.acceptedAt = eq_.now();
        stats_.commandsAccepted.inc();
        startOp(std::move(op));
    }
}

void
Firmware::startOp(Op op)
{
    opsInFlight_ += 1;
    auto shared = std::make_shared<Op>(std::move(op));
    // Any fresh command on a slot invalidates a prior merged-capture
    // note for it: the driver only reuses a slot after installing new
    // metadata, so the note's page match is already stale.
    mergedCaptured_.erase(shared->cmd.dramSlot);
    if (shared->cmd.opcode == CpOpcode::WritebackCachefill)
        mergedCaptured_.erase(shared->cmd.dramSlot2);
    switch (shared->cmd.opcode) {
      case CpOpcode::Cachefill:
        stats_.cachefills.inc();
        runCachefill(shared, shared->cmd.nandPage, shared->cmd.dramSlot,
                     true);
        break;
      case CpOpcode::Writeback:
        stats_.writebacks.inc();
        runWriteback(shared, shared->cmd.nandPage, shared->cmd.dramSlot,
                     false);
        break;
      case CpOpcode::WritebackCachefill:
        stats_.mergedOps.inc();
        runWriteback(shared, shared->cmd.nandPage, shared->cmd.dramSlot,
                     true);
        break;
      case CpOpcode::Nop:
        writeAck(shared);
        break;
    }
}

void
Firmware::runCachefill(std::shared_ptr<Op> op, std::uint64_t nand_page,
                       std::uint32_t dram_slot, bool ack_after)
{
    op->buffer = std::make_shared<std::vector<std::uint8_t>>(
        nvm::PageBackend::kPageBytes);
    backend_.readPage(nand_page, op->buffer->data(),
                      [this, op, dram_slot, ack_after] {
        // Media data in hand; push it into the slot next window(s).
        DmaRequest req;
        req.addr = layout_.slotAddr(dram_slot);
        req.bytes = nvm::PageBackend::kPageBytes;
        req.isWrite = true;
        req.buffer = op->buffer;
        req.span = op->cmd.spanId;
        req.done = [this, op, ack_after] {
            if (ack_after) {
                eq_.scheduleAfter(cfg_.postOpDelay,
                                  [this, op] { writeAck(op); });
            }
        };
        dma_.enqueue(std::move(req));
    }, op->cmd.spanId);
}

void
Firmware::runWriteback(std::shared_ptr<Op> op, std::uint64_t nand_page,
                       std::uint32_t dram_slot, bool then_cachefill)
{
    op->buffer2 = std::make_shared<std::vector<std::uint8_t>>(
        nvm::PageBackend::kPageBytes);
    DmaRequest req;
    req.addr = layout_.slotAddr(dram_slot);
    req.bytes = nvm::PageBackend::kPageBytes;
    req.isWrite = false;
    req.buffer = op->buffer2;
    req.span = op->cmd.spanId;
    req.done = [this, op, nand_page, dram_slot, then_cachefill] {
        // Data left the DRAM; it is power-safe in the FPGA buffer.
        // The program is off the host's critical path (the ack does
        // not wait for it), so it rides with no span.
        backend_.writePage(nand_page, op->buffer2->data(),
                           [op] { /* retained until programmed */ });
        if (then_cachefill) {
            // Merged op: the NAND program of the evicted page and the
            // cachefill of the new one proceed in parallel. From this
            // instant the slot's content is no longer the victim's —
            // note the capture so a power-fail dump skips the slot
            // until the install rewrites its metadata.
            mergedCaptured_[dram_slot] = nand_page;
            runCachefill(op, op->cmd.nandPage2, op->cmd.dramSlot2,
                         true);
        } else {
            eq_.scheduleAfter(cfg_.postOpDelay,
                              [this, op] { writeAck(op); });
        }
    };
    dma_.enqueue(std::move(req));
}

void
Firmware::writeAck(std::shared_ptr<Op> op)
{
    auto line = std::make_shared<std::vector<std::uint8_t>>(
        ReservedLayout::kLineBytes);
    encodeCpAck({op->cmd.phase, 1}, line->data());

    // Post-op firmware time (completion handling before the ack DMA).
    span::phase(op->cmd.spanId, span::Phase::FwPost, eq_.now());
    op->ackEnqueuedAt = eq_.now();
    stats_.dataLatency.record(op->ackEnqueuedAt - op->acceptedAt);

    DmaRequest req;
    req.addr = layout_.ackAddr(op->cpIndex);
    req.bytes = ReservedLayout::kLineBytes;
    req.isWrite = true;
    req.buffer = line;
    req.span = op->cmd.spanId;
    req.done = [this, op] {
        stats_.acksWritten.inc();
        stats_.opLatency.record(eq_.now() - op->acceptedAt);
        stats_.ackLatency.record(eq_.now() - op->ackEnqueuedAt);
        if (trace::enabled()) {
            trace::duration("nvmc.cp", toString(op->cmd.opcode),
                            op->acceptedAt, eq_.now());
        }
        NVDC_ASSERT(opsInFlight_ > 0, "op accounting underflow");
        opsInFlight_ -= 1;
    };
    dma_.enqueue(std::move(req));
}

void
Firmware::readDramDirect(Addr addr, std::uint32_t len,
                         std::uint8_t* buf) const
{
    const auto& map = dram_.addressMap();
    NVDC_ASSERT(addr % dram::AddressMap::kBurstBytes == 0 &&
                len % dram::AddressMap::kBurstBytes == 0,
                "direct read must be 64B aligned");
    for (std::uint32_t off = 0; off < len;
         off += dram::AddressMap::kBurstBytes) {
        dram_.readBurst(map.decompose(addr + off), buf + off);
    }
}

std::size_t
Firmware::powerFailDump()
{
    std::size_t flushed = 0;
    std::vector<std::uint8_t> meta_line(64);
    std::vector<std::uint8_t> page(nvm::PageBackend::kPageBytes);

    for (std::uint32_t slot = 0; slot < layout_.slotCount(); ++slot) {
        Addr maddr = layout_.metadataAddr(slot);
        Addr line_addr = maddr & ~Addr{63};
        readDramDirect(line_addr, 64, meta_line.data());
        SlotMetadata m = decodeSlotMetadata(
            meta_line.data() + (maddr - line_addr));
        if (!m.valid || !m.dirty)
            continue;
        auto cap = mergedCaptured_.find(slot);
        if (cap != mergedCaptured_.end() && cap->second == m.nandPage) {
            // A merged wb+cf is mid-flight on this slot: the victim's
            // bytes were captured and programmed the moment the
            // writeback data left DRAM, and the slot itself may hold
            // a partially landed fill. Dumping it would overwrite the
            // victim's NAND page with the incoming page's bytes.
            continue;
        }
        readDramDirect(layout_.slotAddr(slot),
                       nvm::PageBackend::kPageBytes, page.data());
        // Post-mortem: commit straight into the backend's store.
        backend_.writePage(m.nandPage, page.data(), [] {});
        ++flushed;
        stats_.powerFailDumpedPages.inc();
    }
    return flushed;
}

} // namespace nvdimmc::nvmc
