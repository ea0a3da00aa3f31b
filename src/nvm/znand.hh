/**
 * @file
 * Z-NAND flash model (low-latency SLC NAND, paper ref [17]).
 *
 * Geometry: channels x dies x planes x blocks x pages. Each die is a
 * serially busy resource; each channel serializes data transfers. The
 * PoC device in the paper clocks the NAND PHY at 50 MHz (a tenth of
 * max), which we model as a low channel bandwidth; the ASIC ablation
 * raises it.
 *
 * NAND discipline is enforced: a page must be erased before it is
 * programmed, pages within a block are programmed in order, and erase
 * counts are tracked per block for the wear-leveling study.
 */

#ifndef NVDIMMC_NVM_ZNAND_HH
#define NVDIMMC_NVM_ZNAND_HH

#include <cstdint>
#include <functional>
#include <unordered_map>
#include <unordered_set>
#include <vector>

#include "common/event_queue.hh"
#include "common/serialize.hh"
#include "common/span.hh"
#include "common/sparse_store.hh"
#include "common/stats.hh"
#include "common/types.hh"
#include "nvm/nvm_media.hh"

namespace nvdimmc::nvm
{

/** Flat address of one 4 KB NAND page. */
struct NandAddr
{
    std::uint32_t channel = 0;
    std::uint32_t die = 0;
    std::uint32_t plane = 0;
    std::uint32_t block = 0;
    std::uint32_t page = 0;

    bool operator==(const NandAddr&) const = default;
};

/** Z-NAND geometry and timing. */
struct ZNandParams
{
    std::uint32_t channels = 2;
    std::uint32_t diesPerChannel = 2;
    std::uint32_t planesPerDie = 2;
    std::uint32_t blocksPerPlane = 1024;
    std::uint32_t pagesPerBlock = 256;
    std::uint32_t pageBytes = 4096;

    Tick tR = 3 * kUs;       ///< Page read (array -> register).
    Tick tPROG = 75 * kUs;   ///< Page program.
    Tick tBERS = 1000 * kUs; ///< Block erase.
    /** Channel transfer bandwidth (PoC: 50 MHz PHY ~= 200 MB/s). */
    double channelMBps = 200.0;

    std::uint64_t
    totalPages() const
    {
        return std::uint64_t{channels} * diesPerChannel * planesPerDie *
               blocksPerPlane * pagesPerBlock;
    }

    std::uint64_t
    totalBlocks() const
    {
        return std::uint64_t{channels} * diesPerChannel * planesPerDie *
               blocksPerPlane;
    }

    std::uint64_t capacityBytes() const
    {
        return totalPages() * pageBytes;
    }

    /** The paper's 2 x 64 GB configuration. */
    static ZNandParams poc128GB();

    /** A scaled-down geometry for fast tests (a few MiB). */
    static ZNandParams tiny();
};

/** Z-NAND statistics. */
struct ZNandStats
{
    Counter pageReads;
    Counter pagePrograms;
    Counter blockErases;
    Counter disciplineViolations;
    Counter programFailures;
    Histogram readLatency;
    Histogram programLatency;
};

/** The Z-NAND device. */
class ZNand
{
  public:
    ZNand(EventQueue& eq, const ZNandParams& p);

    const ZNandParams& params() const { return params_; }

    /** @name Flat page/block numbering helpers. */
    /** @{ */
    std::uint64_t flatPage(const NandAddr& a) const;
    NandAddr fromFlatPage(std::uint64_t page_no) const;
    std::uint64_t flatBlock(const NandAddr& a) const;
    std::uint64_t flatBlockOfPage(std::uint64_t page_no) const
    {
        return page_no / params_.pagesPerBlock;
    }
    /** @} */

    /**
     * Read one page. @p buf (nullable) receives pageBytes of data at
     * completion. @p span, if non-zero, gets its NandRead phase
     * stamped at media-completion time.
     */
    void readPage(std::uint64_t page_no, std::uint8_t* buf,
                  Callback done, span::Id span = 0);

    /**
     * Program one page. The page must be erased; programming a
     * written page or out of order within the block records a
     * discipline violation (and still completes, with the data
     * clobbered, as real NAND would corrupt). @p span, if non-zero,
     * gets its NandProgram phase stamped at completion.
     */
    void programPage(std::uint64_t page_no, const std::uint8_t* data,
                     Callback done, span::Id span = 0);

    /** Erase a whole block. */
    void eraseBlock(std::uint64_t block_no, Callback done);

    /** @name Introspection for the FTL and tests. */
    /** @{ */
    bool pageProgrammed(std::uint64_t page_no) const;
    std::uint32_t eraseCount(std::uint64_t block_no) const;
    std::uint32_t maxEraseCount() const;
    /** Mark a block bad (manufacturing defect injection). */
    void markBadBlock(std::uint64_t block_no);
    bool isBadBlock(std::uint64_t block_no) const;
    /**
     * Test/bench scaffolding: mark a page programmed (zero contents)
     * without paying tPROG or occupying the die.
     */
    void preconditionProgrammed(std::uint64_t page_no);
    /**
     * Failure injection: the next program targeting @p block_no
     * reports failure (grown defect). The FTL is expected to retire
     * the block and retry elsewhere.
     */
    void failNextProgramIn(std::uint64_t block_no);
    /** Did the most recent program on this block fail? */
    bool lastProgramFailed() const { return lastProgramFailed_; }
    /**
     * Rate-based failure injection: called once per program with the
     * target page; returning true makes that program report failure
     * (same semantics as failNextProgramIn). The hook runs inside the
     * media event context, so a deterministic sampler yields
     * thread-count-independent campaigns. Null clears it.
     */
    void
    setProgramFaultHook(std::function<bool(std::uint64_t)> hook)
    {
        programFaultHook_ = std::move(hook);
    }
    /** @} */

    /** @name Device-state checkpointing (fault campaigns).
     *  Persistent media state only: per-block program/erase cursors,
     *  page contents and the bad-block list. Transient simulation
     *  state (die/channel busy times, pending fault injections) is
     *  not saved — checkpoint at a quiesced instant. */
    /** @{ */
    void saveState(ByteWriter& w) const;
    void loadState(ByteReader& r);
    /** @} */

    const ZNandStats& stats() const { return stats_; }

    /** Register live counters + read/program latency histograms under
     *  @p prefix (e.g. "znand.page_programs"). */
    void registerStats(StatRegistry& reg,
                       const std::string& prefix) const;

  private:
    struct BlockState
    {
        std::uint32_t eraseCount = 0;
        std::uint32_t nextPage = 0; ///< In-order programming cursor.
        std::vector<bool> programmed;
    };

    struct DieState
    {
        Tick busyUntil = 0;
    };

    BlockState& blockState(std::uint64_t block_no);
    const BlockState* blockStateIfAny(std::uint64_t block_no) const;
    DieState& dieOf(std::uint64_t page_no);
    Tick channelTransferTime() const;
    Tick claimChannel(std::uint64_t page_no, Tick earliest);

    EventQueue& eq_;
    ZNandParams params_;
    std::vector<DieState> dies_;
    std::vector<Tick> channelBusyUntil_;
    std::unordered_map<std::uint64_t, BlockState> blocks_;
    /** Contents of each page programmed with data, one leaf per page;
     *  a page with no leaf reads erased (all 0xFF). */
    SparseStore<std::uint8_t> pageData_;
    std::unordered_set<std::uint64_t> badBlocks_;
    std::unordered_set<std::uint64_t> failNextProgram_;
    std::function<bool(std::uint64_t)> programFaultHook_;
    bool lastProgramFailed_ = false;
    ZNandStats stats_;
};

/**
 * PageBackend over Z-NAND *without* an FTL — used only by unit tests;
 * the real stack layers ftl::Ftl on top.
 */
class RawZNandBackend : public PageBackend
{
  public:
    explicit RawZNandBackend(ZNand& nand) : nand_(nand) {}

    std::uint64_t pageCount() const override
    {
        return nand_.params().totalPages();
    }

    void readPage(std::uint64_t page_no, std::uint8_t* buf,
                  Callback done, span::Id span = 0) override
    {
        nand_.readPage(page_no, buf, std::move(done), span);
    }

    void writePage(std::uint64_t page_no, const std::uint8_t* data,
                   Callback done, span::Id span = 0) override
    {
        nand_.programPage(page_no, data, std::move(done), span);
    }

  private:
    ZNand& nand_;
};

} // namespace nvdimmc::nvm

#endif // NVDIMMC_NVM_ZNAND_HH
