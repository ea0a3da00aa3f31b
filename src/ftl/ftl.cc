#include "ftl/ftl.hh"

#include <algorithm>
#include <cstring>
#include <numeric>

#include "common/logging.hh"

namespace nvdimmc::ftl
{

namespace
{

/** Service time for a read of a never-written page (no media touch). */
constexpr Tick kUnmappedReadLatency = 200 * kNs;

} // namespace

Ftl::Ftl(EventQueue& eq, nvm::ZNand& nand, const FtlConfig& cfg)
    : eq_(eq),
      nand_(nand),
      cfg_(cfg),
      logicalPages_(static_cast<std::uint64_t>(
          static_cast<double>(nand.params().totalPages()) *
          cfg.exposedFraction)),
      map_(logicalPages_, nand.params().totalPages()),
      bbm_(nand),
      wl_(nand, cfg.wearThreshold),
      ecc_(cfg.ecc),
      blocks_(nand.params().totalBlocks()),
      activeBlocks_(std::size_t{nvm::ZNandParams::kChannels} *
                        nand.params().diesPerChannel,
                    kUnmapped),
      gcStepEvent_([this] { gcStep(); }, "ftl-gc-step")
{
    NVDC_ASSERT(cfg.gcLowWaterBlocks < cfg.gcHighWaterBlocks,
                "GC watermarks inverted");
    freeBlocks_.reserve(blocks_.size());
    for (std::uint64_t b = 0; b < blocks_.size(); ++b) {
        if (!bbm_.isBad(b))
            freeBlocks_.push_back(b);
    }
    if (freeBlocks_.size() * nand.params().pagesPerBlock <
        logicalPages_ + cfg.gcHighWaterBlocks *
                            nand.params().pagesPerBlock) {
        fatal("Ftl: not enough good blocks for the exposed capacity");
    }
}

void
Ftl::preconditionSequentialFill(std::uint64_t pages)
{
    NVDC_ASSERT(pages <= logicalPages_, "precondition beyond capacity");
    for (std::uint64_t lpn = 0; lpn < pages; ++lpn) {
        std::uint64_t ppn = allocatePage();
        NVDC_ASSERT(ppn != kUnmapped, "precondition ran out of space");
        std::uint64_t old = map_.map(lpn, ppn);
        NVDC_ASSERT(old == kUnmapped, "preconditioning a mapped page");
        blocks_[nand_.flatBlockOfPage(ppn)].validCount += 1;
        nand_.preconditionProgrammed(ppn);
    }
}

std::uint32_t
Ftl::wearSpread() const
{
    std::uint32_t lo = ~std::uint32_t{0};
    std::uint32_t hi = 0;
    for (std::uint64_t b = 0; b < blocks_.size(); ++b) {
        if (bbm_.isBad(b))
            continue;
        std::uint32_t w = nand_.eraseCount(b);
        lo = std::min(lo, w);
        hi = std::max(hi, w);
    }
    return lo == ~std::uint32_t{0} ? 0 : hi - lo;
}

bool
Ftl::openActiveBlock(std::size_t die_slot)
{
    if (freeBlocks_.empty())
        return false;

    const auto& p = nand_.params();
    // Prefer a free block that actually lives on this die so the
    // round-robin write stream exploits die parallelism; fall back to
    // any block (wear-aware) otherwise.
    std::size_t chosen = freeBlocks_.size();
    std::uint32_t chosen_wear = ~std::uint32_t{0};
    for (std::size_t i = 0; i < freeBlocks_.size(); ++i) {
        std::uint64_t blk = freeBlocks_[i];
        nvm::NandAddr a =
            nand_.fromFlatPage(blk * p.pagesPerBlock);
        std::size_t die = std::size_t{a.channel} * p.diesPerChannel +
                          a.die;
        if (die != die_slot)
            continue;
        std::uint32_t w = nand_.eraseCount(blk);
        if (w < chosen_wear) {
            chosen_wear = w;
            chosen = i;
        }
    }
    if (chosen == freeBlocks_.size()) {
        auto any = wl_.pickFreeBlock(freeBlocks_);
        if (!any)
            return false;
        chosen = *any;
    }

    std::uint64_t blk = freeBlocks_[chosen];
    freeBlocks_.erase(freeBlocks_.begin() +
                      static_cast<std::ptrdiff_t>(chosen));
    BlockMeta& meta = blocks_[blk];
    NVDC_ASSERT(meta.state == BlockMeta::State::Free,
                "allocating a non-free block");
    meta.state = BlockMeta::State::Active;
    meta.writeCursor = 0;
    meta.validCount = 0;
    activeBlocks_[die_slot] = blk;
    return true;
}

std::uint64_t
Ftl::allocatePage()
{
    const auto& p = nand_.params();
    const std::size_t slots = activeBlocks_.size();
    for (std::size_t attempt = 0; attempt < slots; ++attempt) {
        std::size_t slot = nextDieSlot_;
        nextDieSlot_ = (nextDieSlot_ + 1) % slots;

        if (activeBlocks_[slot] == kUnmapped &&
            !openActiveBlock(slot)) {
            continue;
        }
        std::uint64_t blk = activeBlocks_[slot];
        BlockMeta& meta = blocks_[blk];
        std::uint64_t ppn =
            blk * p.pagesPerBlock + meta.writeCursor;
        meta.writeCursor += 1;
        if (meta.writeCursor == p.pagesPerBlock) {
            meta.state = BlockMeta::State::Full;
            activeBlocks_[slot] = kUnmapped;
        }
        return ppn;
    }
    return kUnmapped;
}

void
Ftl::invalidate(std::uint64_t ppn)
{
    BlockMeta& meta = blocks_[nand_.flatBlockOfPage(ppn)];
    NVDC_ASSERT(meta.validCount > 0, "invalidate underflow");
    meta.validCount -= 1;
}

void
Ftl::readPage(std::uint64_t page_no, std::uint8_t* buf,
              nvm::Callback done, span::Id span)
{
    NVDC_ASSERT(page_no < logicalPages_, "FTL read beyond capacity");
    stats_.userReads.inc();

    std::uint64_t ppn = map_.lookup(page_no);
    if (ppn == kUnmapped) {
        stats_.unmappedReads.inc();
        if (buf)
            std::memset(buf, 0, nvm::PageBackend::kPageBytes);
        if (span != 0) {
            // No NAND involved: the synthesized-zero service time is
            // pure mapping work.
            done = [this, span, cb = std::move(done)]() mutable {
                span::phase(span, span::Phase::FtlMap, eq_.now());
                cb();
            };
        }
        eq_.scheduleAfter(kUnmappedReadLatency, std::move(done));
        return;
    }
    readAttempt(ppn, buf, 0, std::move(done), span);
}

void
Ftl::readAttempt(std::uint64_t ppn, std::uint8_t* buf,
                 std::uint32_t attempt, nvm::Callback done,
                 span::Id span)
{
    nand_.readPage(ppn, buf,
                   [this, ppn, buf, attempt,
                    cb = std::move(done), span]() mutable {
        EccResult r = readErrorHook_
                          ? ecc_.decodeInjected(readErrorHook_(ppn))
                          : ecc_.decode();
        if (!r.correctable) {
            if (attempt < cfg_.readRetries) {
                stats_.readRetries.inc();
                readAttempt(ppn, buf, attempt + 1, std::move(cb),
                            span);
                return;
            }
            stats_.uncorrectableReads.inc();
            if (buf) {
                // Surface the failure as visibly corrupt data so an
                // integrity validator upstream cannot miss it: flip
                // the first 64 bytes. (The real device would signal
                // an ECC error; our PageBackend API has no status
                // channel yet.)
                for (std::size_t i = 0; i < 64; ++i)
                    buf[i] ^= 0xFF;
            }
        } else if (attempt > 0) {
            stats_.readRetrySuccesses.inc();
        }
        cb();
    }, span);
}

void
Ftl::writePage(std::uint64_t page_no, const std::uint8_t* data,
               nvm::Callback done, span::Id span)
{
    NVDC_ASSERT(page_no < logicalPages_, "FTL write beyond capacity");
    stats_.userWrites.inc();

    WriteOp op;
    op.lpn = page_no;
    if (data) {
        op.data = std::make_shared<std::vector<std::uint8_t>>(
            data, data + nvm::PageBackend::kPageBytes);
    }
    op.done = std::move(done);
    op.span = span;

    maybeStartGc();
    startWrite(std::move(op));
}

void
Ftl::startWrite(WriteOp op)
{
    std::uint64_t ppn = allocatePage();
    if (ppn == kUnmapped) {
        pendingWrites_.push_back(std::move(op));
        maybeStartGc();
        return;
    }

    std::uint64_t old = map_.map(op.lpn, ppn);
    if (old != kUnmapped)
        invalidate(old);
    blocks_[nand_.flatBlockOfPage(ppn)].validCount += 1;

    auto data_ptr = op.data ? op.data->data() : nullptr;
    auto retry = std::make_shared<WriteOp>(std::move(op));
    span::Id op_span = retry->span;
    nand_.programPage(ppn, data_ptr, [this, ppn, retry] {
        if (nand_.lastProgramFailed()) {
            // Grown defect: retire the whole block. Its other live
            // pages are rescued by the collector (Retired blocks with
            // valid data stay GC-visible); the failed write itself
            // retries on a different block right away. The retried
            // write's map() returns ppn as the old mapping and
            // invalidates it exactly once.
            markBlockBad(nand_.flatBlockOfPage(ppn));
            WriteOp again;
            again.lpn = retry->lpn;
            again.data = retry->data;
            again.done = std::move(retry->done);
            again.span = retry->span;
            startWrite(std::move(again));
            return;
        }
        if (retry->done)
            retry->done();
    }, op_span);
}

void
Ftl::markBlockBad(std::uint64_t block_no)
{
    if (bbm_.isBad(block_no))
        return; // A second failure on an already-retired block.
    stats_.grownBadBlocks.inc();
    bbm_.retire(block_no);
    warn("Ftl: retiring grown-bad block ", block_no);

    // The block can no longer be an allocation target, and it never
    // rejoins the free pool: Retired is terminal. GC still scavenges
    // it while validCount > 0 but will not erase or free it.
    for (std::size_t slot = 0; slot < activeBlocks_.size(); ++slot) {
        if (activeBlocks_[slot] == block_no)
            activeBlocks_[slot] = kUnmapped;
    }
    for (std::size_t i = 0; i < freeBlocks_.size(); ++i) {
        if (freeBlocks_[i] == block_no) {
            freeBlocks_.erase(freeBlocks_.begin() +
                              static_cast<std::ptrdiff_t>(i));
            break;
        }
    }
    blocks_[block_no].state = BlockMeta::State::Retired;
}

void
Ftl::maybeStartGc()
{
    if (gcActive_)
        return;
    if (freeBlocks_.size() < cfg_.gcLowWaterBlocks) {
        auto victim = GarbageCollector::pickVictim(blocks_);
        if (!victim)
            return;
        gcVictim_ = *victim;
    } else {
        // Static wear leveling: even with plenty of free space,
        // recycle a cold block once the wear spread gets too wide.
        // The scan is O(blocks), so only run it occasionally.
        if (++wearCheckTick_ % 256 != 0)
            return;
        std::vector<std::uint64_t> fulls;
        for (std::uint64_t b = 0; b < blocks_.size(); ++b) {
            if (blocks_[b].state == BlockMeta::State::Full)
                fulls.push_back(b);
        }
        auto cold = wl_.pickColdBlock(fulls);
        if (!cold)
            return;
        gcVictim_ = *cold;
    }
    gcActive_ = true;
    gcPageCursor_ = 0;
    stats_.gcRuns.inc();
    eq_.scheduleAfter(gcStepEvent_, 0);
}

void
Ftl::gcStep()
{
    const auto& p = nand_.params();

    // Find the next still-valid page in the victim block.
    while (gcPageCursor_ < p.pagesPerBlock) {
        std::uint64_t ppn =
            gcVictim_ * p.pagesPerBlock + gcPageCursor_;
        std::uint64_t lpn = map_.reverseLookup(ppn);
        if (lpn != kUnmapped) {
            // Relocate: read, then (if the mapping is still current)
            // program elsewhere.
            auto buf = std::make_shared<std::vector<std::uint8_t>>(
                nvm::PageBackend::kPageBytes);
            gcPageCursor_ += 1;
            nand_.readPage(ppn, buf->data(), [this, ppn, lpn, buf] {
                if (map_.lookup(lpn) != ppn) {
                    // Overwritten by the user mid-GC; nothing to move.
                    gcStep();
                    return;
                }
                gcRelocate(lpn, buf);
            });
            return;
        }
        gcPageCursor_ += 1;
    }

    // All live data moved. A block that was retired (by a program
    // failure here or on the user path) must never be erased or
    // refreed — its data is rescued, and that is all.
    if (blocks_[gcVictim_].state == BlockMeta::State::Retired) {
        NVDC_ASSERT(blocks_[gcVictim_].validCount == 0,
                    "retired GC victim still holds live data");
        gcVictimDone();
        return;
    }
    nand_.eraseBlock(gcVictim_, [this] {
        BlockMeta& meta = blocks_[gcVictim_];
        NVDC_ASSERT(meta.validCount == 0,
                    "erasing block with live data");
        NVDC_ASSERT(!bbm_.isBad(gcVictim_),
                    "erased a retired block");
        meta.state = BlockMeta::State::Free;
        meta.writeCursor = 0;
        freeBlocks_.push_back(gcVictim_);
        stats_.gcErases.inc();
        gcVictimDone();
    });
}

void
Ftl::gcRelocate(std::uint64_t lpn,
                std::shared_ptr<std::vector<std::uint8_t>> buf)
{
    std::uint64_t dst = allocatePage();
    if (dst == kUnmapped) {
        // Out of space mid-GC: should be impossible with sane
        // watermarks.
        panic("Ftl: GC starved of free pages");
    }
    std::uint64_t old = map_.map(lpn, dst);
    if (old != kUnmapped)
        invalidate(old);
    blocks_[nand_.flatBlockOfPage(dst)].validCount += 1;
    stats_.gcRelocations.inc();
    nand_.programPage(dst, buf->data(), [this, lpn, dst, buf] {
        if (nand_.lastProgramFailed()) {
            // The relocation target grew a defect: the mapping points
            // at a page whose program never landed. Retire the target
            // block and move the data again — unless the user
            // overwrote the lpn while the program was in flight, in
            // which case their newer copy wins and there is nothing
            // left to rescue.
            markBlockBad(nand_.flatBlockOfPage(dst));
            if (map_.lookup(lpn) == dst) {
                gcRelocate(lpn, buf);
                return;
            }
        }
        gcStep();
    });
}

void
Ftl::gcVictimDone()
{
    if (freeBlocks_.size() < cfg_.gcHighWaterBlocks) {
        auto victim = GarbageCollector::pickVictim(blocks_);
        if (victim) {
            gcVictim_ = *victim;
            gcPageCursor_ = 0;
            eq_.scheduleAfter(gcStepEvent_, 0);
            return;
        }
    }
    finishGc();
}

void
Ftl::finishGc()
{
    gcActive_ = false;
    drainPending();
}

void
Ftl::drainPending()
{
    while (!pendingWrites_.empty()) {
        std::size_t before = pendingWrites_.size();
        WriteOp op = std::move(pendingWrites_.front());
        pendingWrites_.pop_front();
        startWrite(std::move(op));
        if (pendingWrites_.size() >= before) {
            // The op was re-queued: still out of space; wait for the
            // next GC round (startWrite already kicked one).
            return;
        }
    }
}

bool
Ftl::checkInvariants(std::string* why) const
{
    auto fail = [why](std::string msg) {
        if (why)
            *why = std::move(msg);
        return false;
    };
    const auto& p = nand_.params();

    // L2P / P2L agreement and per-block valid counts recomputed from
    // scratch.
    std::vector<std::uint32_t> live(blocks_.size(), 0);
    for (std::uint64_t lpn = 0; lpn < map_.logicalPages(); ++lpn) {
        std::uint64_t ppn = map_.lookup(lpn);
        if (ppn == kUnmapped)
            continue;
        if (ppn >= p.totalPages())
            return fail("lpn " + std::to_string(lpn) +
                        " maps beyond the device");
        if (map_.reverseLookup(ppn) != lpn)
            return fail("p2l disagrees with l2p for lpn " +
                        std::to_string(lpn));
        live[nand_.flatBlockOfPage(ppn)] += 1;
    }
    if (map_.mappedCount() !=
        std::accumulate(live.begin(), live.end(), std::uint64_t{0}))
        return fail("p2l has entries l2p does not");

    std::vector<bool> in_free(blocks_.size(), false);
    for (std::uint64_t b : freeBlocks_) {
        if (in_free[b])
            return fail("block " + std::to_string(b) +
                        " is in the free list twice");
        in_free[b] = true;
        if (blocks_[b].state != BlockMeta::State::Free)
            return fail("free-listed block " + std::to_string(b) +
                        " is not Free");
        if (bbm_.isBad(b))
            return fail("bad block " + std::to_string(b) +
                        " is free-listed");
    }
    for (std::uint64_t b : activeBlocks_) {
        if (b == kUnmapped)
            continue;
        if (blocks_[b].state != BlockMeta::State::Active)
            return fail("active-slot block " + std::to_string(b) +
                        " is not Active");
        if (bbm_.isBad(b))
            return fail("bad block " + std::to_string(b) +
                        " is an allocation target");
    }
    for (std::uint64_t b = 0; b < blocks_.size(); ++b) {
        if (blocks_[b].validCount != live[b])
            return fail("block " + std::to_string(b) +
                        " validCount " +
                        std::to_string(blocks_[b].validCount) +
                        " != live mappings " +
                        std::to_string(live[b]));
        // Factory-bad blocks keep the default Free state but are
        // never free-listed; grown-bad ones are Retired.
        if (blocks_[b].state == BlockMeta::State::Free &&
            !in_free[b] && !bbm_.isBad(b))
            return fail("Free block " + std::to_string(b) +
                        " missing from the free list");
    }
    return true;
}

namespace
{

constexpr std::uint32_t kFtlStateTag = 0x314c5446; // "FTL1"

} // namespace

void
Ftl::saveState(ByteWriter& w) const
{
    NVDC_ASSERT(!gcActive_ && pendingWrites_.empty(),
                "checkpointing a non-quiesced FTL");
    w.tag(kFtlStateTag);
    map_.saveState(w);
    bbm_.saveState(w);
    w.u64(blocks_.size());
    for (const BlockMeta& m : blocks_) {
        w.u8(static_cast<std::uint8_t>(m.state));
        w.u32(m.validCount);
        w.u32(m.writeCursor);
    }
    w.u64(freeBlocks_.size());
    for (std::uint64_t b : freeBlocks_)
        w.u64(b);
    w.u64(activeBlocks_.size());
    for (std::uint64_t b : activeBlocks_)
        w.u64(b);
    w.u64(nextDieSlot_);
    w.u64(wearCheckTick_);
}

void
Ftl::loadState(ByteReader& r)
{
    NVDC_ASSERT(!gcActive_ && pendingWrites_.empty(),
                "restoring over a non-quiesced FTL");
    r.expectTag(kFtlStateTag);
    map_.loadState(r);
    bbm_.loadState(r);
    std::uint64_t nblocks = r.u64();
    if (nblocks != blocks_.size())
        fatal("Ftl checkpoint block-count mismatch: saved ", nblocks,
              ", device has ", blocks_.size());
    for (BlockMeta& m : blocks_) {
        m.state = static_cast<BlockMeta::State>(r.u8());
        m.validCount = r.u32();
        m.writeCursor = r.u32();
    }
    freeBlocks_.resize(r.u64());
    for (std::uint64_t& b : freeBlocks_)
        b = r.u64();
    std::uint64_t nactive = r.u64();
    if (nactive != activeBlocks_.size())
        fatal("Ftl checkpoint die-slot mismatch");
    for (std::uint64_t& b : activeBlocks_)
        b = r.u64();
    nextDieSlot_ = r.u64();
    wearCheckTick_ = r.u64();
}

void
Ftl::registerStats(StatRegistry& reg, const std::string& prefix) const
{
    reg.addCounter(prefix + ".user_reads", stats_.userReads);
    reg.addCounter(prefix + ".user_writes", stats_.userWrites);
    reg.addCounter(prefix + ".gc_runs", stats_.gcRuns);
    reg.addCounter(prefix + ".gc_relocations", stats_.gcRelocations);
    reg.addCounter(prefix + ".gc_erases", stats_.gcErases);
    reg.addCounter(prefix + ".unmapped_reads", stats_.unmappedReads);
    reg.addCounter(prefix + ".uncorrectable_reads",
                   stats_.uncorrectableReads);
    reg.addCounter(prefix + ".read_retries", stats_.readRetries);
    reg.addCounter(prefix + ".read_retry_successes",
                   stats_.readRetrySuccesses);
    reg.addCounter(prefix + ".grown_bad_blocks",
                   stats_.grownBadBlocks);
    reg.add(prefix + ".write_amplification",
            [this] { return stats_.writeAmplification(); });
}

} // namespace nvdimmc::ftl
