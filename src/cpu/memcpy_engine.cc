#include "cpu/memcpy_engine.hh"

#include "common/logging.hh"

namespace nvdimmc::cpu
{

MemcpyEngine::MemcpyEngine(EventQueue& eq, imc::HostPort& port,
                           CpuCacheModel* cache, const Params& p)
    : eq_(eq), port_(port), cache_(cache), params_(p)
{
}

std::uint32_t
MemcpyEngine::startTransfer(Addr addr, std::uint32_t len, Callback done)
{
    std::uint32_t i = transfers_.acquire();
    Transfer& t = transfers_[i];
    t.addr = addr;
    t.len = len;
    t.serial = ++nextSerial_;
    t.done = std::move(done);
    return i;
}

void
MemcpyEngine::read(Addr addr, std::uint32_t len, std::uint8_t* buf,
                   bool via_cache, Callback done)
{
    NVDC_ASSERT(len > 0 && len % 64 == 0 && addr % 64 == 0,
                "memcpy read must be 64B aligned");
    if (params_.bulkMode) {
        port_.bulkTransfer(addr, len, false, std::move(done));
        return;
    }
    std::uint32_t i = startTransfer(addr, len, std::move(done));
    transfers_[i].rbuf = buf;
    transfers_[i].viaCache = via_cache && cache_ != nullptr;
    pumpRead(i);
}

void
MemcpyEngine::writeNt(Addr addr, std::uint32_t len,
                      const std::uint8_t* data, Callback done)
{
    NVDC_ASSERT(len > 0 && len % 64 == 0 && addr % 64 == 0,
                "memcpy write must be 64B aligned");
    if (params_.bulkMode) {
        port_.bulkTransfer(addr, len, true, std::move(done));
        return;
    }
    std::uint32_t i = startTransfer(addr, len, std::move(done));
    transfers_[i].wdata = data;
    pumpWrite(i);
}

void
MemcpyEngine::finish(std::uint32_t i)
{
    Callback done = std::move(transfers_[i].done);
    transfers_.release(i);
    if (done)
        done();
}

void
MemcpyEngine::pumpRead(std::uint32_t i)
{
    // Records never move, so t stays valid; but a line that completes
    // synchronously (a cache hit or a WPQ forward) may finish the copy
    // and hand the record to a new one, which the serial check sees.
    Transfer& t = transfers_[i];
    const std::uint64_t serial = t.serial;
    t.stalled = false;
    while (t.inFlight < params_.parallelism && t.issued < t.len) {
        Addr line = t.addr + t.issued;
        std::uint8_t* dst = t.rbuf ? t.rbuf + t.issued : nullptr;

        // Account the line as in flight *before* issuing: a hit or a
        // forward can complete synchronously.
        t.inFlight += 1;
        t.issued += 64;

        if (t.viaCache) {
            // Cache loads always accept (internal retry on full).
            cache_->load(line, dst, [this, i] { lineRead(i); });
        } else if (!port_.readLine(line, dst,
                                   [this, i] { lineRead(i); })) {
            t.inFlight -= 1;
            t.issued -= 64;
            t.stalled = true;
            port_.whenSpace(line, imc::SpaceFor::Read,
                            [this, i] { pumpRead(i); });
            return;
        }
        if (t.serial != serial || t.completed == t.len)
            return; // Everything finished synchronously.
    }
}

void
MemcpyEngine::lineRead(std::uint32_t i)
{
    Transfer& t = transfers_[i];
    NVDC_ASSERT(t.inFlight > 0, "memcpy MLP underflow");
    t.inFlight -= 1;
    t.completed += 64;
    if (t.completed == t.len) {
        finish(i);
        return;
    }
    if (!t.stalled)
        pumpRead(i);
}

void
MemcpyEngine::pumpWrite(std::uint32_t i)
{
    Transfer& t = transfers_[i];
    if (t.issued >= t.len) {
        finish(i);
        return;
    }
    Addr line = t.addr + t.issued;
    const std::uint8_t* src = t.wdata ? t.wdata + t.issued : nullptr;

    bool accepted = cache_ ? cache_->storeNt(line, src)
                           : port_.writeLine(line, src, nullptr);
    if (!accepted) {
        // WPQ full: resume once the drain frees an entry.
        port_.whenSpace(line, imc::SpaceFor::Write,
                        [this, i] { pumpWrite(i); });
        return;
    }
    t.issued += 64;
    // Non-temporal stores issue at the core's store-throughput rate.
    eq_.scheduleAfter(params_.ntIssueGap, [this, i] { pumpWrite(i); });
}

} // namespace nvdimmc::cpu
