#include "cpu/memcpy_engine.hh"

#include "common/logging.hh"

namespace nvdimmc::cpu
{

MemcpyEngine::MemcpyEngine(EventQueue& eq, imc::Imc& imc,
                           CpuCacheModel* cache, const Params& p)
    : eq_(eq),
      ownedPort_(std::make_unique<imc::HostPort>(imc)),
      port_(*ownedPort_),
      cache_(cache),
      params_(p)
{
}

MemcpyEngine::MemcpyEngine(EventQueue& eq, imc::HostPort& port,
                           CpuCacheModel* cache, const Params& p)
    : eq_(eq), port_(port), cache_(cache), params_(p)
{
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
    auto t = std::make_shared<Transfer>();
    t->addr = addr;
    t->len = len;
    t->rbuf = buf;
    t->wdata = nullptr;
    t->isWrite = false;
    t->viaCache = via_cache && cache_ != nullptr;
    t->done = std::move(done);
    pumpRead(t);
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
    auto t = std::make_shared<Transfer>();
    t->addr = addr;
    t->len = len;
    t->rbuf = nullptr;
    t->wdata = data;
    t->isWrite = true;
    t->viaCache = false;
    t->done = std::move(done);
    pumpWrite(t);
}

void
MemcpyEngine::pumpRead(const std::shared_ptr<Transfer>& t)
{
    t->stalled = false;
    while (t->inFlight < params_.parallelism && t->issued < t->len) {
        Addr line = t->addr + t->issued;
        std::uint32_t off = t->issued;

        auto on_line_done = [this, t] {
            NVDC_ASSERT(t->inFlight > 0, "memcpy MLP underflow");
            t->inFlight -= 1;
            t->completed += 64;
            if (t->completed == t->len) {
                if (t->done)
                    t->done();
                return;
            }
            if (!t->stalled)
                pumpRead(t);
        };

        // Account the line as in flight *before* issuing: a hit or a
        // forward can complete synchronously.
        t->inFlight += 1;
        t->issued += 64;

        if (t->viaCache) {
            // Cache loads always accept (internal retry on full).
            cache_->load(line, t->rbuf ? t->rbuf + off : nullptr,
                         on_line_done);
        } else {
            bool accepted = port_.readLine(
                line, t->rbuf ? t->rbuf + off : nullptr, on_line_done);
            if (!accepted) {
                t->inFlight -= 1;
                t->issued -= 64;
                t->stalled = true;
                port_.whenSpace(line, imc::SpaceFor::Read,
                                [this, t] { pumpRead(t); });
                return;
            }
        }
        if (t->completed == t->len)
            return; // Everything finished synchronously.
    }
}

void
MemcpyEngine::pumpWrite(const std::shared_ptr<Transfer>& t)
{
    if (t->issued >= t->len) {
        if (t->done)
            t->done();
        return;
    }
    Addr line = t->addr + t->issued;
    const std::uint8_t* src = t->wdata ? t->wdata + t->issued : nullptr;

    bool accepted = cache_ ? cache_->storeNt(line, src)
                           : port_.writeLine(line, src, nullptr);
    if (!accepted) {
        // WPQ full: resume once the drain frees an entry.
        port_.whenSpace(line, imc::SpaceFor::Write,
                        [this, t] { pumpWrite(t); });
        return;
    }
    t->issued += 64;
    // Non-temporal stores issue at the core's store-throughput rate.
    eq_.scheduleAfter(params_.ntIssueGap, [this, t] { pumpWrite(t); });
}

} // namespace nvdimmc::cpu
