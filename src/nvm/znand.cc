#include "nvm/znand.hh"

#include <algorithm>
#include <cstring>

#include "common/logging.hh"

namespace nvdimmc::nvm
{

ZNandParams
ZNandParams::poc128GB()
{
    ZNandParams p;
    p.diesPerChannel = 2;
    p.planesPerDie = 2;
    p.pagesPerBlock = 256;
    // 2ch * 2die * 2plane * 16384 blocks * 256 pages * 4 KiB = 128 GiB.
    p.blocksPerPlane = 16384;
    p.tBERS = 1000 * kUs;
    return p;
}

ZNandParams
ZNandParams::tiny()
{
    ZNandParams p;
    p.diesPerChannel = 1;
    p.planesPerDie = 1;
    p.blocksPerPlane = 64;
    p.pagesPerBlock = 16;
    p.tBERS = 500 * kUs;
    return p;
}

std::uint64_t
ZNandParams::capacityBytes() const
{
    return totalPages() * ZNand::kPageBytes;
}

ZNand::ZNand(EventQueue& eq, const ZNandParams& p)
    : eq_(eq),
      params_(p),
      dies_(std::size_t{ZNandParams::kChannels} * p.diesPerChannel),
      channelBusyUntil_(ZNandParams::kChannels, 0),
      pageData_(kPageBytes)
{
}

std::uint64_t
ZNand::flatPage(const NandAddr& a) const
{
    std::uint64_t v = a.channel;
    v = v * params_.diesPerChannel + a.die;
    v = v * params_.planesPerDie + a.plane;
    v = v * params_.blocksPerPlane + a.block;
    v = v * params_.pagesPerBlock + a.page;
    return v;
}

NandAddr
ZNand::fromFlatPage(std::uint64_t page_no) const
{
    NandAddr a;
    a.page = static_cast<std::uint32_t>(page_no % params_.pagesPerBlock);
    page_no /= params_.pagesPerBlock;
    a.block = static_cast<std::uint32_t>(page_no % params_.blocksPerPlane);
    page_no /= params_.blocksPerPlane;
    a.plane = static_cast<std::uint32_t>(page_no % params_.planesPerDie);
    page_no /= params_.planesPerDie;
    a.die = static_cast<std::uint32_t>(page_no % params_.diesPerChannel);
    page_no /= params_.diesPerChannel;
    a.channel = static_cast<std::uint32_t>(page_no);
    return a;
}

ZNand::BlockState&
ZNand::blockState(std::uint64_t block_no)
{
    auto& st = blocks_[block_no];
    if (st.programmed.empty())
        st.programmed.assign(params_.pagesPerBlock, false);
    return st;
}

const ZNand::BlockState*
ZNand::blockStateIfAny(std::uint64_t block_no) const
{
    auto it = blocks_.find(block_no);
    return it == blocks_.end() ? nullptr : &it->second;
}

ZNand::DieState&
ZNand::dieOf(std::uint64_t page_no)
{
    NandAddr a = fromFlatPage(page_no);
    return dies_[std::size_t{a.channel} * params_.diesPerChannel +
                 a.die];
}

Tick
ZNand::channelTransferTime() const
{
    double bytes_per_ps = kChannelMBps * 1e6 / 1e12;
    return static_cast<Tick>(static_cast<double>(kPageBytes) /
                             bytes_per_ps);
}

Tick
ZNand::claimChannel(std::uint64_t page_no, Tick earliest)
{
    NandAddr a = fromFlatPage(page_no);
    Tick& busy = channelBusyUntil_[a.channel];
    Tick start = std::max(earliest, busy);
    busy = start + channelTransferTime();
    return busy;
}

void
ZNand::readPage(std::uint64_t page_no, std::uint8_t* buf, Callback done,
                span::Id span)
{
    NVDC_ASSERT(page_no < params_.totalPages(), "NAND page out of range");
    stats_.pageReads.inc();
    if (span != 0) {
        done = [this, span, cb = std::move(done)]() mutable {
            span::phase(span, span::Phase::NandRead, eq_.now());
            cb();
        };
    }

    DieState& die = dieOf(page_no);
    Tick array_done = std::max(eq_.now(), die.busyUntil) + kTR;
    die.busyUntil = array_done;
    Tick finish = claimChannel(page_no, array_done);
    stats_.readLatency.record(finish - eq_.now());

    if (buf) {
        if (const std::uint8_t* page = pageData_.leaf(page_no))
            std::memcpy(buf, page, kPageBytes);
        else
            std::memset(buf, 0xff, kPageBytes); // Erased state.
    }
    eq_.schedule(finish, std::move(done));
}

void
ZNand::programPage(std::uint64_t page_no, const std::uint8_t* data,
                   Callback done, span::Id span)
{
    NVDC_ASSERT(page_no < params_.totalPages(), "NAND page out of range");
    stats_.pagePrograms.inc();
    if (span != 0) {
        done = [this, span, cb = std::move(done)]() mutable {
            span::phase(span, span::Phase::NandProgram, eq_.now());
            cb();
        };
    }

    std::uint64_t block_no = flatBlockOfPage(page_no);

    // Grown-defect injection: the program op completes (after its
    // normal latency) but reports failure; data did NOT land. The
    // one-shot list and the rate-based hook share the failure path.
    bool inject_failure = failNextProgram_.erase(block_no) != 0;
    if (!inject_failure && programFaultHook_ &&
        programFaultHook_(page_no)) {
        inject_failure = true;
    }
    if (inject_failure) {
        stats_.programFailures.inc();
        DieState& fdie = dieOf(page_no);
        Tick ffinish =
            std::max(eq_.now(), fdie.busyUntil) + kTPROG;
        fdie.busyUntil = ffinish;
        // The failure indication is only valid inside the completion
        // callback (concurrent programs would otherwise race on it).
        eq_.schedule(ffinish, [this, cb = std::move(done)] {
            lastProgramFailed_ = true;
            if (cb)
                cb();
            lastProgramFailed_ = false;
        });
        return;
    }

    auto page_idx =
        static_cast<std::uint32_t>(page_no % params_.pagesPerBlock);
    BlockState& blk = blockState(block_no);

    if (blk.programmed[page_idx]) {
        stats_.disciplineViolations.inc();
        warn("ZNand: program to already-programmed page ", page_no);
    } else if (page_idx != blk.nextPage) {
        stats_.disciplineViolations.inc();
        warn("ZNand: out-of-order program in block ", block_no,
             " (page ", page_idx, ", expected ", blk.nextPage, ")");
    }
    blk.programmed[page_idx] = true;
    blk.nextPage = std::max(blk.nextPage, page_idx + 1);

    // Data crosses the channel first, then the die programs.
    Tick xfer_done = claimChannel(page_no, eq_.now());
    DieState& die = dieOf(page_no);
    Tick finish = std::max(xfer_done, die.busyUntil) + kTPROG;
    die.busyUntil = finish;
    stats_.programLatency.record(finish - eq_.now());

    if (data)
        std::memcpy(pageData_.touch(page_no), data, kPageBytes);
    eq_.schedule(finish, std::move(done));
}

void
ZNand::eraseBlock(std::uint64_t block_no, Callback done)
{
    NVDC_ASSERT(block_no < params_.totalBlocks(),
                "NAND block out of range");
    stats_.blockErases.inc();

    BlockState& blk = blockState(block_no);
    blk.eraseCount += 1;
    blk.nextPage = 0;
    std::fill(blk.programmed.begin(), blk.programmed.end(), false);

    std::uint64_t first_page =
        block_no * std::uint64_t{params_.pagesPerBlock};
    for (std::uint32_t i = 0; i < params_.pagesPerBlock; ++i)
        pageData_.drop(first_page + i);

    DieState& die = dieOf(first_page);
    Tick finish = std::max(eq_.now(), die.busyUntil) + params_.tBERS;
    die.busyUntil = finish;
    eq_.schedule(finish, std::move(done));
}

bool
ZNand::pageProgrammed(std::uint64_t page_no) const
{
    const BlockState* blk = blockStateIfAny(flatBlockOfPage(page_no));
    if (!blk)
        return false;
    auto idx = static_cast<std::uint32_t>(page_no % params_.pagesPerBlock);
    return blk->programmed[idx];
}

std::uint32_t
ZNand::eraseCount(std::uint64_t block_no) const
{
    const BlockState* blk = blockStateIfAny(block_no);
    return blk ? blk->eraseCount : 0;
}

std::uint32_t
ZNand::maxEraseCount() const
{
    std::uint32_t m = 0;
    for (const auto& [no, blk] : blocks_)
        m = std::max(m, blk.eraseCount);
    return m;
}

void
ZNand::failNextProgramIn(std::uint64_t block_no)
{
    failNextProgram_.insert(block_no);
}

void
ZNand::preconditionProgrammed(std::uint64_t page_no)
{
    NVDC_ASSERT(page_no < params_.totalPages(), "NAND page out of range");
    std::uint64_t block_no = flatBlockOfPage(page_no);
    auto page_idx =
        static_cast<std::uint32_t>(page_no % params_.pagesPerBlock);
    BlockState& blk = blockState(block_no);
    blk.programmed[page_idx] = true;
    blk.nextPage = std::max(blk.nextPage, page_idx + 1);
}

void
ZNand::markBadBlock(std::uint64_t block_no)
{
    badBlocks_.insert(block_no);
}

bool
ZNand::isBadBlock(std::uint64_t block_no) const
{
    return badBlocks_.count(block_no) != 0;
}

namespace
{

constexpr std::uint32_t kZNandStateTag = 0x314e445a; // "ZDN1"

/** Sorted keys of an unordered map/set, for deterministic streams. */
template <typename Container>
std::vector<std::uint64_t>
sortedKeys(const Container& c)
{
    std::vector<std::uint64_t> keys;
    keys.reserve(c.size());
    for (const auto& entry : c) {
        if constexpr (std::is_same_v<std::decay_t<decltype(entry)>,
                                     std::uint64_t>) {
            keys.push_back(entry);
        } else {
            keys.push_back(entry.first);
        }
    }
    std::sort(keys.begin(), keys.end());
    return keys;
}

} // namespace

void
ZNand::saveState(ByteWriter& w) const
{
    w.tag(kZNandStateTag);
    w.u64(params_.totalPages()); // Geometry guard for restore.

    auto block_keys = sortedKeys(blocks_);
    w.u64(block_keys.size());
    for (std::uint64_t b : block_keys) {
        const BlockState& st = blocks_.at(b);
        w.u64(b);
        w.u32(st.eraseCount);
        w.u32(st.nextPage);
        for (std::uint32_t i = 0; i < params_.pagesPerBlock; ++i)
            w.u8(st.programmed[i] ? 1 : 0);
    }

    w.u64(pageData_.leafCount());
    pageData_.forEachLeaf([&](std::uint64_t p, const std::uint8_t* page) {
        w.u64(p);
        w.bytes(page, kPageBytes);
    });

    auto bad_keys = sortedKeys(badBlocks_);
    w.u64(bad_keys.size());
    for (std::uint64_t b : bad_keys)
        w.u64(b);
}

void
ZNand::loadState(ByteReader& r)
{
    r.expectTag(kZNandStateTag);
    std::uint64_t pages = r.u64();
    if (pages != params_.totalPages()) {
        fatal("ZNand checkpoint geometry mismatch: saved ", pages,
              " pages, device has ", params_.totalPages());
    }

    blocks_.clear();
    std::uint64_t nblocks = r.u64();
    for (std::uint64_t i = 0; i < nblocks; ++i) {
        std::uint64_t b = r.u64();
        BlockState& st = blockState(b);
        st.eraseCount = r.u32();
        st.nextPage = r.u32();
        for (std::uint32_t pg = 0; pg < params_.pagesPerBlock; ++pg)
            st.programmed[pg] = r.u8() != 0;
    }

    pageData_.clear();
    std::uint64_t npages = r.u64();
    for (std::uint64_t i = 0; i < npages; ++i) {
        std::uint64_t p = r.u64();
        if (p >= params_.totalPages()) {
            fatal("ZNand checkpoint holds page ", p, ", past the ",
                  params_.totalPages(), " pages of the device");
        }
        r.bytes(pageData_.touch(p), kPageBytes);
    }

    badBlocks_.clear();
    std::uint64_t nbad = r.u64();
    for (std::uint64_t i = 0; i < nbad; ++i)
        badBlocks_.insert(r.u64());

    failNextProgram_.clear();
    lastProgramFailed_ = false;
}

void
ZNand::registerStats(StatRegistry& reg,
                     const std::string& prefix) const
{
    reg.addCounter(prefix + ".page_reads", stats_.pageReads);
    reg.addCounter(prefix + ".page_programs", stats_.pagePrograms);
    reg.addCounter(prefix + ".block_erases", stats_.blockErases);
    reg.addCounter(prefix + ".discipline_violations",
                   stats_.disciplineViolations);
    reg.addCounter(prefix + ".program_failures",
                   stats_.programFailures);
    reg.addHistogram(prefix + ".read_latency", stats_.readLatency);
    reg.addHistogram(prefix + ".program_latency",
                     stats_.programLatency);
}

} // namespace nvdimmc::nvm
