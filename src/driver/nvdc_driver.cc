#include "driver/nvdc_driver.hh"

#include <algorithm>
#include <array>
#include <cstring>

#include "common/logging.hh"

namespace nvdimmc::driver
{

NvdcDriver::NvdcDriver(EventQueue& eq, cpu::CpuCacheModel& cache_model,
                       cpu::MemcpyEngine& engine,
                       std::vector<const nvmc::ReservedLayout*> layouts,
                       std::uint64_t backend_pages_total,
                       const NvdcDriverConfig& cfg,
                       backend::MediaBackend& transport)
    : eq_(eq),
      cacheModel_(cache_model),
      engine_(engine),
      backendPages_(backend_pages_total),
      cfg_(cfg),
      transport_(transport),
      channels_(static_cast<std::uint32_t>(layouts.size())),
      il_(channels_, transport_.traits().interleaveGranule),
      everWritten_(backend_pages_total, false)
{
    NVDC_ASSERT(!layouts.empty(), "driver needs at least one module");
    NVDC_ASSERT(backend_pages_total % channels_ == 0,
                "device pages must split evenly across modules");
    layouts_.reserve(layouts.size());
    caches_.reserve(layouts.size());
    locks_.reserve(layouts.size());
    for (std::uint32_t ch = 0; ch < channels_; ++ch) {
        const nvmc::ReservedLayout& lay = *layouts[ch];
        layouts_.push_back(lay);
        // Seed 1 + ch: each channel's RANDOM policy draws its own
        // stream.
        caches_.emplace_back(
            lay.slotCount(), backend_pages_total / channels_,
            ReplacementPolicy::create(cfg.policy, 1 + ch));
        locks_.push_back(std::make_unique<SimMutex>(eq));
    }
}

void
NvdcDriver::markEverWritten(std::uint64_t first_page,
                            std::uint64_t pages)
{
    NVDC_ASSERT(first_page <= backendPages_ &&
                    pages <= backendPages_ - first_page,
                "markEverWritten of ", pages, " pages from page ",
                first_page, " runs past the device's ", backendPages_,
                " pages");
    auto first = everWritten_.begin() +
                 static_cast<std::ptrdiff_t>(first_page);
    std::fill(first, first + static_cast<std::ptrdiff_t>(pages), true);
}

void
NvdcDriver::read(Addr offset, std::uint32_t len, std::uint8_t* buf,
                 Callback done)
{
    stats_.readOps.inc();
    // The span opens as a hit; the fault path reclassifies it.
    span::Id sp = span::open(channelOf(offset / kPageBytes), eq_.now(),
                             span::OpClass::Hit);
    if (sp != 0) {
        done = [this, sp, cb = std::move(done)]() mutable {
            span::close(sp, eq_.now());
            cb();
        };
    }
    access(offset, len, buf, nullptr, false, std::move(done), true, sp);
}

void
NvdcDriver::write(Addr offset, std::uint32_t len,
                  const std::uint8_t* data, Callback done)
{
    stats_.writeOps.inc();
    span::Id sp = span::open(channelOf(offset / kPageBytes), eq_.now(),
                             span::OpClass::Write);
    if (sp != 0) {
        done = [this, sp, cb = std::move(done)]() mutable {
            span::close(sp, eq_.now());
            cb();
        };
    }
    access(offset, len, nullptr, data, true, std::move(done), true, sp);
}

void
NvdcDriver::accessContinue(Addr offset, std::uint32_t len,
                           std::uint8_t* rbuf,
                           const std::uint8_t* wdata, bool is_write,
                           Callback done, span::Id span)
{
    access(offset, len, rbuf, wdata, is_write, std::move(done), false,
           span);
}

void
NvdcDriver::access(Addr offset, std::uint32_t len, std::uint8_t* rbuf,
                   const std::uint8_t* wdata, bool is_write,
                   Callback done, bool first_in_op, span::Id span)
{
    NVDC_ASSERT(offset % 64 == 0 && len % 64 == 0 && len > 0,
                "nvdc access must be 64B aligned");
    NVDC_ASSERT(offset + len <= capacityBytes(),
                "nvdc access beyond device capacity");

    // Split into per-page segments served in order (as a synchronous
    // pread/pwrite through a DAX mapping would be).
    std::uint32_t first_len = std::min<std::uint64_t>(
        len, kPageBytes - (offset % kPageBytes));

    auto seg = std::make_shared<Segment>();
    seg->devPage = offset / kPageBytes;
    seg->pageOffset = static_cast<std::uint32_t>(offset % kPageBytes);
    seg->len = first_len;
    seg->rbuf = rbuf;
    seg->wdata = wdata;
    seg->isWrite = is_write;
    seg->firstInOp = first_in_op;
    seg->startedAt = eq_.now();
    seg->span = span;

    std::uint32_t rest = len - first_len;
    if (rest == 0) {
        seg->done = std::move(done);
    } else {
        Addr next_off = offset + first_len;
        std::uint8_t* next_rbuf = rbuf ? rbuf + first_len : nullptr;
        const std::uint8_t* next_wdata =
            wdata ? wdata + first_len : nullptr;
        seg->done = [this, next_off, rest, next_rbuf, next_wdata,
                     is_write, span, cb = std::move(done)]() mutable {
            accessContinue(next_off, rest, next_rbuf, next_wdata,
                           is_write, std::move(cb), span);
        };
    }
    doSegment(seg);
}

void
NvdcDriver::doSegment(std::shared_ptr<Segment> seg)
{
    seg->startedAt = eq_.now();
    // The PTE walk: a page's PTE is valid exactly while its cache
    // directory names a Stable slot for it.
    auto slot = caches_[channelOf(seg->devPage)].peek(
        localPage(seg->devPage));
    if (slot) {
        hitPath(seg, *slot);
    } else {
        stats_.pageFaults.inc();
        if (cfg_.hypothetical)
            hypotheticalFault(seg);
        else
            faultPath(seg);
    }
}

void
NvdcDriver::segmentMemcpy(std::shared_ptr<Segment> seg,
                          std::uint32_t slot, bool fault)
{
    std::uint32_t c = copies_.acquire();
    const Segment& s = *seg;
    copies_[c] = SlotCopy{std::move(seg), slot, 0, fault};
    if (channels_ > 1 && il_.granule() < kPageBytes) {
        // Fine-granule interleave (the CXL backend's 256 B stripes):
        // the slot's channel-local bytes scatter across flat space in
        // granule-sized runs. Stream them in address order, one engine
        // op per run, as a single core walking the page would.
        copyNextRun(c);
        return;
    }
    // The whole slot range is one granule run: its flat image is
    // contiguous (slotAddr is page-aligned), one engine op moves it —
    // the classic NVDIMM-C path, bit for bit.
    std::uint32_t ch = channelOf(s.devPage);
    Addr addr = flatAddr(ch, layouts_[ch].slotAddr(slot) + s.pageOffset);
    if (s.isWrite)
        engine_.writeNt(addr, s.len, s.wdata, [this, c] { copyDone(c); });
    else
        engine_.read(addr, s.len, s.rbuf, true, [this, c] { copyDone(c); });
}

void
NvdcDriver::copyNextRun(std::uint32_t c)
{
    SlotCopy& copy = copies_[c];
    const Segment& s = *copy.seg;
    if (copy.off >= s.len) {
        copyDone(c);
        return;
    }
    const std::uint32_t granule = il_.granule();
    std::uint32_t ch = channelOf(s.devPage);
    Addr cur = layouts_[ch].slotAddr(copy.slot) + s.pageOffset + copy.off;
    std::uint32_t run = static_cast<std::uint32_t>(
        std::min<std::uint64_t>(s.len - copy.off,
                                granule - cur % granule));
    std::uint32_t off = copy.off;
    copy.off += run;
    Addr addr = flatAddr(ch, cur);
    if (s.isWrite) {
        engine_.writeNt(addr, run, s.wdata ? s.wdata + off : nullptr,
                        [this, c] { copyNextRun(c); });
    } else {
        engine_.read(addr, run, s.rbuf ? s.rbuf + off : nullptr, true,
                     [this, c] { copyNextRun(c); });
    }
}

void
NvdcDriver::copyDone(std::uint32_t c)
{
    SlotCopy& copy = copies_[c];
    std::shared_ptr<Segment> seg = std::move(copy.seg);
    std::uint32_t slot = copy.slot;
    bool fault = copy.fault;
    copies_.release(c);
    span::phase(seg->span, span::Phase::Memcpy, eq_.now());
    caches_[channelOf(seg->devPage)].unpin(slot);
    if (fault)
        finishFault(std::move(seg));
    else
        finishHit(std::move(seg));
}

Tick
NvdcDriver::postCost(const Segment& seg) const
{
    Tick lines = seg.len / 64;
    if (seg.isWrite)
        return kHitWriteCoherence + lines * kPostWritePerLine;
    return kHitPostCoherence + lines * kPostReadPerLine;
}

Tick
NvdcDriver::lockCost(const Segment& seg) const
{
    return kLockHold + (seg.len / 64) * kLockPerLine;
}

void
NvdcDriver::finishHit(std::shared_ptr<Segment> seg)
{
    eq_.scheduleAfter(postCost(*seg), [this, seg] {
        span::phase(seg->span, span::Phase::DriverPost, eq_.now());
        stats_.hitLatency.record(eq_.now() - seg->startedAt);
        seg->done();
    });
}

void
NvdcDriver::finishFault(std::shared_ptr<Segment> seg)
{
    eq_.scheduleAfter(postCost(*seg), [this, seg] {
        span::phase(seg->span, span::Phase::DriverPost, eq_.now());
        stats_.faultLatency.record(eq_.now() - seg->startedAt);
        seg->done();
    });
}

void
NvdcDriver::hitPath(std::shared_ptr<Segment> seg, std::uint32_t slot)
{
    std::uint32_t ch = channelOf(seg->devPage);
    Tick pre = seg->firstInOp ? kHitPreOverhead : 0;
    eq_.scheduleAfter(pre, [this, seg, slot, ch] {
        span::phase(seg->span, span::Phase::CacheLookup, eq_.now());
        locks_[ch]->acquire([this, seg, slot, ch] {
            span::phase(seg->span, span::Phase::LockWait, eq_.now());
            Tick hold = seg->firstInOp ? lockCost(*seg)
                                       : kContinuationLockHold;
            eq_.scheduleAfter(hold, [this, seg, slot, ch] {
                span::phase(seg->span, span::Phase::LockHold,
                            eq_.now());
                DramCache& cache = caches_[ch];
                // Re-validate under the lock: the slot may have been
                // evicted while we waited.
                auto cur = cache.lookup(localPage(seg->devPage));
                if (!cur || *cur != slot) {
                    locks_[ch]->release();
                    stats_.pageFaults.inc();
                    if (cfg_.hypothetical)
                        hypotheticalFault(seg);
                    else
                        faultPath(seg);
                    return;
                }
                if (seg->isWrite)
                    everWritten_[seg->devPage] = true;
                bool meta_dirty = false;
                if (seg->isWrite && cfg_.trackDirty &&
                    !cache.slot(slot).dirty) {
                    cache.markDirty(slot);
                    meta_dirty = true;
                }
                // Keep the slot from being evicted under our feet
                // while the data moves.
                cache.pin(slot);
                locks_[ch]->release();

                auto after_meta = [this, seg, slot, ch] {
                    span::phase(seg->span, span::Phase::Metadata,
                                eq_.now());
                    segmentMemcpy(seg, slot, false);
                };
                if (meta_dirty)
                    writeMetadata(ch, slot, after_meta);
                else
                    after_meta();
            });
        });
    });
}

void
NvdcDriver::hypotheticalFault(std::shared_ptr<Segment> seg)
{
    // Paper §VII-D1: the modified driver bypasses the FPGA entirely
    // and waits three programmable delays (one per refresh-window step
    // a real uncached access needs).
    std::uint32_t ch = channelOf(seg->devPage);
    span::classify(seg->span, span::OpClass::CleanMiss);
    locks_[ch]->acquire([this, seg, ch] {
        span::phase(seg->span, span::Phase::LockWait, eq_.now());
        eq_.scheduleAfter(kFaultOverhead, [this, seg, ch] {
            span::phase(seg->span, span::Phase::FaultEntry, eq_.now());
            DramCache& cache = caches_[ch];
            const std::uint64_t local = localPage(seg->devPage);
            auto cur = cache.peek(local);
            if (cur) {
                locks_[ch]->release();
                hitPath(seg, *cur);
                return;
            }
            cache.lookup(local); // Record the miss.
            std::uint32_t slot;
            if (cache.hasFree()) {
                slot = cache.allocate(local);
            } else {
                std::uint32_t victim = cache.pickVictim();
                cache.beginEvict(victim);
                cache.rebind(victim, local);
                slot = victim;
            }
            locks_[ch]->release();

            eq_.scheduleAfter(3 * cfg_.hypotheticalTd,
                              [this, seg, slot, ch] {
                // The three tD delays stand in for the refresh-window
                // round trips of a real uncached access.
                span::phase(seg->span, span::Phase::WindowWait,
                            eq_.now());
                locks_[ch]->acquire([this, seg, slot, ch] {
                    span::phase(seg->span, span::Phase::LockWait,
                                eq_.now());
                    DramCache& cache = caches_[ch];
                    cache.finishFill(slot);
                    if (seg->isWrite || !cfg_.trackDirty)
                        cache.markDirty(slot);
                    cache.pin(slot);
                    locks_[ch]->release();
                    segmentMemcpy(seg, slot, true);
                });
            });
        });
    });
}

void
NvdcDriver::faultPath(std::shared_ptr<Segment> seg)
{
    std::uint32_t ch = channelOf(seg->devPage);
    // A faulting read is at least a clean miss (writes keep their
    // Write class; a victim eviction upgrades to dirty-miss below).
    span::classify(seg->span, span::OpClass::CleanMiss);
    locks_[ch]->acquire([this, seg, ch] {
        span::phase(seg->span, span::Phase::LockWait, eq_.now());
        eq_.scheduleAfter(kFaultOverhead, [this, seg, ch] {
            span::phase(seg->span, span::Phase::FaultEntry, eq_.now());
            DramCache& cache = caches_[ch];
            const std::uint64_t local = localPage(seg->devPage);
            // Someone else (or a prefetch) may have filled the page
            // while we waited.
            auto cur = cache.peek(local);
            if (cur) {
                locks_[ch]->release();
                hitPath(seg, *cur);
                return;
            }
            auto pending = pendingFills_.find(seg->devPage);
            if (pending != pendingFills_.end()) {
                stats_.prefetchHits.inc();
                pending->second.push_back([this, seg] {
                    span::phase(seg->span, span::Phase::FillWait,
                                eq_.now());
                    doSegment(seg);
                });
                locks_[ch]->release();
                return;
            }
            auto pending_wb = pendingWritebacks_.find(seg->devPage);
            if (pending_wb != pendingWritebacks_.end()) {
                // The page's latest data is still on its way to the
                // NVM; refaulting now would fill stale bytes.
                pending_wb->second.push_back([this, seg] {
                    span::phase(seg->span, span::Phase::FillWait,
                                eq_.now());
                    doSegment(seg);
                });
                locks_[ch]->release();
                return;
            }

            cache.lookup(local); // Record the miss.
            pendingFills_[seg->devPage]; // Claim the fill.

            bool sequential_stream =
                cfg_.prefetchEnabled &&
                lastFaultPage_ != ~std::uint64_t{0} &&
                seg->devPage == lastFaultPage_ + 1;
            lastFaultPage_ = seg->devPage;

            bool need_wb = false;
            std::uint64_t wb_page = 0;
            std::uint32_t slot;
            if (cache.hasFree()) {
                slot = cache.allocate(local);
            } else {
                std::uint32_t victim = cache.pickVictim();
                CacheSlot prior = cache.beginEvict(victim);
                cache.rebind(victim, local);
                slot = victim;
                need_wb = prior.dirty || !cfg_.trackDirty;
                wb_page = il_.flattenPage(ch, prior.page);
                if (need_wb) {
                    pendingWritebacks_[wb_page];
                    span::classify(seg->span,
                                   span::OpClass::DirtyMiss);
                }
            }
            locks_[ch]->release();

            // The write-allocate fast path (zero-fill, no CP) only
            // applies when a free slot exists; on the eviction path
            // the PoC driver always runs the writeback+cachefill pair
            // (paper §VII-B1: "a pair of writeback and cachefill
            // operations is necessary for every 4 KB write" once the
            // cache is full).
            bool zero_fill_pre =
                !everWritten_[seg->devPage] && cache.hasFree();

            // Step 3 (after the CP work): install and serve.
            auto install = [this, seg, slot, ch, zero_fill_pre] {
                auto after_inval = [this, seg, slot, ch] {
                    // Time since the fill landed went to the
                    // invalidation pass (zero when it was skipped).
                    span::phase(seg->span, span::Phase::Clflush,
                                eq_.now());
                    locks_[ch]->acquire([this, seg, slot, ch] {
                        span::phase(seg->span, span::Phase::LockWait,
                                    eq_.now());
                        DramCache& cache = caches_[ch];
                        cache.finishFill(slot);
                        // Without dirty tracking the PoC assumes every
                        // cached page is dirty (it writes all victims
                        // back and the power dump must save them).
                        if (seg->isWrite || !cfg_.trackDirty)
                            cache.markDirty(slot);
                        cache.pin(slot);
                        locks_[ch]->release();
                        writeMetadata(ch, slot, [this, seg, slot, ch] {
                            span::phase(seg->span,
                                        span::Phase::Metadata,
                                        eq_.now());
                            fillCompleted(seg->devPage);
                            segmentMemcpy(seg, slot, true);
                        });
                    });
                };
                // A zero-filled slot was written by the CPU itself;
                // only FPGA-filled data needs the invalidation pass.
                if (cfg_.invalidateAfterFill && !zero_fill_pre)
                    invalidateSlotLines(ch, slot, after_inval);
                else
                    after_inval();
            };

            // Never-written block: no CP cachefill needed, just zero
            // the slot (the writeback of the victim, if any, still
            // goes over the CP channel).
            bool zero_fill = zero_fill_pre;
            if (seg->isWrite)
                everWritten_[seg->devPage] = true;

            // Step 2: the CP transactions.
            auto do_cp = [this, seg, slot, ch, need_wb, wb_page,
                          install, zero_fill] {
                // Time since FaultEntry went to the victim flush
                // chain (zero when no flush was needed).
                span::phase(seg->span, span::Phase::Clflush, eq_.now());
                if (need_wb && cfg_.mergedWbCf && !zero_fill) {
                    backend::TransportOp op;
                    op.kind =
                        backend::TransportOp::Kind::WritebackCachefill;
                    op.dramSlot = slot;
                    op.nandPage = localPage(wb_page);
                    op.dramSlot2 = slot;
                    op.nandPage2 = localPage(seg->devPage);
                    op.span = seg->span;
                    stats_.mergedCommands.inc();
                    transport_.submit(ch, op,
                                      [this, wb_page, install] {
                        writebackCompleted(wb_page);
                        install();
                    });
                    return;
                }
                auto fill = [this, seg, slot, ch, install, zero_fill] {
                    if (zero_fill) {
                        eq_.scheduleAfter(kZeroFillCost,
                                          [this, seg, install] {
                            span::phase(seg->span,
                                        span::Phase::ZeroFill,
                                        eq_.now());
                            install();
                        });
                        return;
                    }
                    backend::TransportOp op;
                    op.kind = backend::TransportOp::Kind::Cachefill;
                    op.dramSlot = slot;
                    op.nandPage = localPage(seg->devPage);
                    op.span = seg->span;
                    stats_.cachefills.inc();
                    transport_.submit(ch, op, install);
                };
                if (need_wb) {
                    backend::TransportOp op;
                    op.kind = backend::TransportOp::Kind::Writeback;
                    op.dramSlot = slot;
                    op.nandPage = localPage(wb_page);
                    op.span = seg->span;
                    stats_.writebacks.inc();
                    transport_.submit(ch, op,
                                      [this, seg, ch, slot, wb_page,
                                       fill] {
                        writebackCompleted(wb_page);
                        // The victim's bytes are durable (the module
                        // acked the writeback), but the in-DRAM slot
                        // metadata still says (victim page, dirty): a
                        // power-fail dump taken between the
                        // cachefill's DMA landing and install's
                        // metadata write would flush the *incoming*
                        // page's bytes onto the victim's NAND page.
                        // Rewrite the line now — rebind() left the
                        // slot (new page, clean) — so the dump skips
                        // the slot until install marks it dirty.
                        writeMetadata(ch, slot, [this, seg, fill] {
                            span::phase(seg->span,
                                        span::Phase::Metadata,
                                        eq_.now());
                            fill();
                        });
                    });
                } else {
                    fill();
                }
            };

            // Step 1: coherence — push any CPU-cached lines of the
            // victim slot out to DRAM before the FPGA reads it.
            if (need_wb && cfg_.flushBeforeWriteback)
                flushSlotLines(ch, slot, do_cp);
            else
                do_cp();

            if (sequential_stream)
                maybePrefetch(seg->devPage);
        });
    });
}

void
NvdcDriver::maybePrefetch(std::uint64_t page)
{
    for (std::uint32_t k = 1; k <= kPrefetchDepth; ++k) {
        std::uint64_t next = page + k;
        if (next >= backendPages_)
            break;
        prefetchFill(next);
    }
}

void
NvdcDriver::prefetchFill(std::uint64_t page)
{
    // Deferred so the demand fault's CP command is queued first.
    std::uint32_t ch = channelOf(page);
    eq_.scheduleAfter(0, [this, page, ch] {
        locks_[ch]->acquire([this, page, ch] {
            DramCache& cache = caches_[ch];
            const std::uint64_t local = localPage(page);
            if (cache.peek(local) || pendingFills_.count(page) ||
                pendingWritebacks_.count(page)) {
                locks_[ch]->release();
                return;
            }
            if (!everWritten_[page]) {
                locks_[ch]->release();
                return; // Nothing to fetch.
            }
            std::uint32_t slot;
            if (cache.hasFree()) {
                slot = cache.allocate(local);
            } else {
                // A prefetch may reclaim a CLEAN victim, but must
                // never trigger a writeback of its own.
                auto clean = cache.pickCleanVictim();
                if (!clean) {
                    locks_[ch]->release();
                    return;
                }
                cache.beginEvict(*clean);
                cache.rebind(*clean, local);
                slot = *clean;
            }
            pendingFills_[page];
            locks_[ch]->release();
            stats_.prefetchesIssued.inc();

            backend::TransportOp op;
            op.kind = backend::TransportOp::Kind::Cachefill;
            op.dramSlot = slot;
            op.nandPage = localPage(page);
            stats_.cachefills.inc();
            transport_.submit(ch, op, [this, page, slot, ch] {
                auto finish = [this, page, slot, ch] {
                    locks_[ch]->acquire([this, page, slot, ch] {
                        DramCache& cache = caches_[ch];
                        cache.finishFill(slot);
                        if (!cfg_.trackDirty)
                            cache.markDirty(slot);
                        locks_[ch]->release();
                        writeMetadata(ch, slot, [this, page] {
                            fillCompleted(page);
                        });
                    });
                };
                if (cfg_.invalidateAfterFill)
                    invalidateSlotLines(ch, slot, finish);
                else
                    finish();
            });
        });
    });
}

void
NvdcDriver::flushSlotLines(std::uint32_t channel, std::uint32_t slot,
                           Callback done)
{
    std::uint32_t c = flushChains_.acquire();
    flushChains_[c] = FlushChain{channel, slot, 0, std::move(done)};
    flushNextLine(c);
}

void
NvdcDriver::flushNextLine(std::uint32_t c)
{
    FlushChain& chain = flushChains_[c];
    if (chain.line >= kPageBytes / 64) {
        // Free the record first: the completion may start a chain.
        Callback done = std::move(chain.done);
        flushChains_.release(c);
        done();
        return;
    }
    // Compose each line's flat address from the channel-local offset
    // so the chain follows the slot across fine interleave granules
    // (at page granule this equals flat-base + line * 64, bit for
    // bit).
    Addr addr = flatAddr(chain.channel,
                         layouts_[chain.channel].slotAddr(chain.slot) +
                             std::uint64_t{chain.line} * 64);
    ++chain.line;
    cacheModel_.clflush(addr, [this, c] { flushNextLine(c); });
}

void
NvdcDriver::invalidateSlotLines(std::uint32_t channel,
                                std::uint32_t slot, Callback done)
{
    // Invalidation uses clflush too; the lines are clean (the CPU did
    // not write them since the fill), so no write-back traffic — just
    // instruction cost, modelled as one flush per line.
    flushSlotLines(channel, slot, std::move(done));
}

std::array<std::uint8_t, 64>
NvdcDriver::metadataLine(std::uint32_t channel, std::uint32_t slot) const
{
    const DramCache& cache = caches_[channel];
    std::uint32_t first = (slot / 4) * 4;
    std::array<std::uint8_t, 64> line{};
    for (std::uint32_t i = 0; i < 4; ++i) {
        std::uint32_t s = first + i;
        if (s >= cache.slotCount())
            break;
        const CacheSlot& cs = cache.slot(s);
        nvmc::SlotMetadata m;
        // The firmware's power-fail dump feeds this page into its own
        // module's backend: it must be the module-LOCAL page, exactly
        // as CP commands carry it — which is the page the cache is
        // keyed by.
        m.nandPage = cs.page;
        m.valid = cs.state != CacheSlot::State::Free;
        m.dirty = cs.dirty;
        nvmc::encodeSlotMetadata(m, line.data() + i * 16);
    }
    return line;
}

void
NvdcDriver::writeMetadata(std::uint32_t channel, std::uint32_t slot,
                          Callback done)
{
    Addr addr = flatAddr(channel,
                         layouts_[channel].metadataAddr((slot / 4) * 4));
    NVDC_ASSERT(addr % 64 == 0, "metadata line misaligned");
    std::uint32_t w = metadataWrites_.acquire();
    metadataWrites_[w] = MetadataWrite{addr, std::move(done)};
    // The store copies the line before it returns.
    std::array<std::uint8_t, 64> line = metadataLine(channel, slot);
    cacheModel_.store(addr, line.data(), [this, w] {
        cacheModel_.clflush(metadataWrites_[w].addr, [this, w] {
            Callback done = std::move(metadataWrites_[w].done);
            metadataWrites_.release(w);
            done();
        });
    });
}

void
NvdcDriver::writebackCompleted(std::uint64_t dev_page)
{
    auto it = pendingWritebacks_.find(dev_page);
    if (it == pendingWritebacks_.end())
        return;
    auto waiters = std::move(it->second);
    pendingWritebacks_.erase(it);
    for (auto& w : waiters)
        eq_.scheduleAfter(0, std::move(w));
}

void
NvdcDriver::fillCompleted(std::uint64_t dev_page)
{
    auto it = pendingFills_.find(dev_page);
    if (it == pendingFills_.end())
        return;
    auto waiters = std::move(it->second);
    pendingFills_.erase(it);
    for (auto& w : waiters)
        eq_.scheduleAfter(0, std::move(w));
}

void
NvdcDriver::registerStats(StatRegistry& reg,
                          const std::string& prefix) const
{
    reg.addCounter(prefix + ".read_ops", stats_.readOps);
    reg.addCounter(prefix + ".write_ops", stats_.writeOps);
    reg.addCounter(prefix + ".page_faults", stats_.pageFaults);
    reg.addCounter(prefix + ".cachefills", stats_.cachefills);
    reg.addCounter(prefix + ".writebacks", stats_.writebacks);
    reg.addCounter(prefix + ".merged_commands", stats_.mergedCommands);
    // The transport's own counters sit where the CP ack-poll counter
    // historically lived (the NVDIMM-C transport registers exactly
    // ".ack_polls" here, keeping the golden snapshot byte-identical).
    transport_.registerStats(reg, prefix);
    reg.addCounter(prefix + ".prefetches", stats_.prefetchesIssued);
    reg.addCounter(prefix + ".prefetch_hits", stats_.prefetchHits);
    reg.addHistogram(prefix + ".hit_latency", stats_.hitLatency);
    reg.addHistogram(prefix + ".fault_latency", stats_.faultLatency);
    for (std::uint32_t ch = 0; ch < channels_; ++ch)
        caches_[ch].registerStats(
            reg, prefix + "." + channelStatName(ch, channels_, "cache"));
    if (channels_ == 1)
        return;
    // The aggregate the flat cache.* aliases and sweep tooling key on.
    reg.add(prefix + ".cache.hits", [this] {
        double v = 0;
        for (const auto& c : caches_)
            v += static_cast<double>(c.stats().hits.value());
        return v;
    });
    reg.add(prefix + ".cache.misses", [this] {
        double v = 0;
        for (const auto& c : caches_)
            v += static_cast<double>(c.stats().misses.value());
        return v;
    });
    reg.add(prefix + ".cache.hit_rate", [this] {
        double hits = 0, misses = 0;
        for (const auto& c : caches_) {
            hits += static_cast<double>(c.stats().hits.value());
            misses += static_cast<double>(c.stats().misses.value());
        }
        double total = hits + misses;
        return total == 0 ? 0.0 : hits / total;
    });
}

} // namespace nvdimmc::driver
