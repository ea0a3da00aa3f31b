#include "cpu/cache_model.hh"

#include <algorithm>
#include <cstring>

#include "common/logging.hh"

namespace nvdimmc::cpu
{

CpuCacheModel::CpuCacheModel(EventQueue& eq, imc::HostPort& port,
                             const Params& p)
    : eq_(eq), port_(port), params_(p)
{
}

void
CpuCacheModel::maybeEvictOne()
{
    if (lines_.size() < params_.capacityLines)
        return;
    // Hash-order eviction approximates random replacement; dirty
    // victims write back at this arbitrary moment (the hazard the
    // driver discipline must survive).
    auto it = lines_.begin();
    stats_.capacityEvictions.inc();
    if (it->second.dirty)
        writeBack(it->first, it->second.data, [] {});
    lines_.erase(it);
}

template <typename F>
void
CpuCacheModel::writeBack(Addr line_addr,
                         const std::array<std::uint8_t, 64>& data,
                         F accepted)
{
    // The line has already left the cache, so a full WPQ must not
    // drop it: re-park until the queue takes it.
    if (!port_.writeLine(line_addr, data.data(), nullptr)) {
        port_.whenSpace(line_addr, imc::SpaceFor::Write,
                        [this, line_addr, data,
                         cb = std::move(accepted)]() mutable {
                            writeBack(line_addr, data, std::move(cb));
                        });
        return;
    }
    accepted();
}

void
CpuCacheModel::load(Addr addr, std::uint8_t* buf, Callback done)
{
    Addr line_addr = lineOf(addr);
    auto it = lines_.find(line_addr);
    if (it != lines_.end()) {
        stats_.loadHits.inc();
        if (buf)
            std::memcpy(buf, it->second.data.data(), 64);
        eq_.scheduleAfter(params_.hitLatency, std::move(done));
        return;
    }

    std::uint32_t m = misses_.acquire();
    Miss& miss = misses_[m];
    miss.addr = addr;
    miss.buf = buf;
    miss.done = std::move(done);
    if (port_.readLine(line_addr, miss.staging.data(),
                       [this, m] { missFilled(m); })) {
        // A rejected attempt is not a miss: its retry runs load() again.
        stats_.loadMisses.inc();
        return;
    }
    // Read queue full: retry when space frees.
    port_.whenSpace(line_addr, imc::SpaceFor::Read,
                    [this, m] { missRetry(m); });
}

void
CpuCacheModel::missFilled(std::uint32_t m)
{
    Miss& miss = misses_[m];
    maybeEvictOne();
    auto& line = lines_[lineOf(miss.addr)];
    // Don't clobber a line that was dirtied while the miss was
    // outstanding (store-after-load race).
    if (!line.dirty)
        line.data = miss.staging;
    if (miss.buf)
        std::memcpy(miss.buf, line.data.data(), 64);
    // Free the record first: the completion may load again.
    Callback done = std::move(miss.done);
    misses_.release(m);
    if (done)
        done();
}

void
CpuCacheModel::missRetry(std::uint32_t m)
{
    Miss& miss = misses_[m];
    Addr addr = miss.addr;
    std::uint8_t* buf = miss.buf;
    Callback done = std::move(miss.done);
    misses_.release(m);
    load(addr, buf, std::move(done));
}

void
CpuCacheModel::store(Addr addr, const std::uint8_t* data, Callback done)
{
    Addr line_addr = lineOf(addr);
    stats_.stores.inc();
    auto it = lines_.find(line_addr);
    if (it == lines_.end()) {
        maybeEvictOne();
        it = lines_.emplace(line_addr, Line{}).first;
    }
    if (data)
        std::memcpy(it->second.data.data(), data, 64);
    it->second.dirty = true;
    eq_.scheduleAfter(params_.hitLatency, std::move(done));
}

bool
CpuCacheModel::storeNt(Addr addr, const std::uint8_t* data)
{
    Addr line_addr = lineOf(addr);
    // A rejected store has no effect: the core retries it when the
    // WPQ frees, so neither the counter nor the cached copy moves.
    if (!port_.writeLine(line_addr, data, nullptr))
        return false;
    stats_.ntStores.inc();
    auto it = lines_.find(line_addr);
    if (it != lines_.end() && data) {
        std::memcpy(it->second.data.data(), data, 64);
        it->second.dirty = false;
    }
    return true;
}

void
CpuCacheModel::clflush(Addr addr, Callback done)
{
    Addr line_addr = lineOf(addr);
    stats_.flushes.inc();
    auto it = lines_.find(line_addr);
    if (it == lines_.end()) {
        eq_.scheduleAfter(params_.flushCost, std::move(done));
        return;
    }
    bool dirty = it->second.dirty;
    auto data = it->second.data;
    lines_.erase(it);
    if (!dirty) {
        eq_.scheduleAfter(params_.flushCost, std::move(done));
        return;
    }
    stats_.flushWritebacks.inc();
    // The flush retires once its cost has passed and the WPQ, inside
    // the ADR domain, holds the line; a parked line is not yet safe.
    Tick retire = eq_.now() + params_.flushCost;
    writeBack(line_addr, data,
              [this, retire, cb = std::move(done)]() mutable {
                  eq_.schedule(std::max(retire, eq_.now()), std::move(cb));
              });
}

void
CpuCacheModel::invalidate(Addr addr)
{
    stats_.invalidations.inc();
    lines_.erase(lineOf(addr));
}

bool
CpuCacheModel::contains(Addr addr) const
{
    return lines_.count(lineOf(addr)) != 0;
}

bool
CpuCacheModel::isDirty(Addr addr) const
{
    auto it = lines_.find(lineOf(addr));
    return it != lines_.end() && it->second.dirty;
}

void
CpuCacheModel::registerStats(StatRegistry& reg,
                             const std::string& prefix) const
{
    reg.addCounter(prefix + ".load_hits", stats_.loadHits);
    reg.addCounter(prefix + ".load_misses", stats_.loadMisses);
    reg.addCounter(prefix + ".stores", stats_.stores);
    reg.addCounter(prefix + ".nt_stores", stats_.ntStores);
    reg.addCounter(prefix + ".flushes", stats_.flushes);
    reg.addCounter(prefix + ".flush_writebacks",
                   stats_.flushWritebacks);
    reg.addCounter(prefix + ".invalidations", stats_.invalidations);
    reg.addCounter(prefix + ".capacity_evictions",
                   stats_.capacityEvictions);
    reg.add(prefix + ".resident_lines",
            [this] { return static_cast<double>(lines_.size()); });
}

} // namespace nvdimmc::cpu
