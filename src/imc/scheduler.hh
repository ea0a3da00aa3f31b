/**
 * @file
 * FR-FCFS command scheduling for the host iMC.
 *
 * TimingShadow mirrors the DRAM timing state the controller must
 * respect (a real controller never asks the DRAM whether a command is
 * legal; it tracks the constraints itself). FrFcfs picks the next
 * request: row hits first (reads preferred), then oldest-first, with
 * write draining controlled by the WPQ watermark.
 */

#ifndef NVDIMMC_IMC_SCHEDULER_HH
#define NVDIMMC_IMC_SCHEDULER_HH

#include <cstdint>
#include <deque>
#include <vector>

#include "common/types.hh"
#include "dram/address_map.hh"
#include "dram/timing.hh"
#include "imc/request.hh"

namespace nvdimmc::imc
{

/** Controller-side mirror of all DDR4 timing obligations. */
class TimingShadow
{
  public:
    TimingShadow(const dram::AddressMap& map, const dram::Ddr4Timing& t);

    /** @name Earliest legal issue tick for each command. */
    /** @{ */
    Tick earliestActivate(std::uint32_t flat_bank,
                          std::uint8_t bg) const;
    Tick earliestRead(std::uint32_t flat_bank, std::uint8_t bg) const;
    Tick earliestWrite(std::uint32_t flat_bank, std::uint8_t bg) const;
    Tick earliestPrecharge(std::uint32_t flat_bank) const;
    /** Earliest tick a PREA is legal (max over open banks). */
    Tick earliestPrechargeAll() const;
    /** Earliest tick REF is legal after banks are closed. */
    Tick earliestRefresh() const;
    /** @} */

    /** @name State updates after issuing a command at @p now. */
    /** @{ */
    void onActivate(std::uint32_t flat_bank, std::uint8_t bg,
                    std::uint32_t row, Tick now);
    void onRead(std::uint32_t flat_bank, std::uint8_t bg, Tick now);
    void onWrite(std::uint32_t flat_bank, std::uint8_t bg, Tick now);
    void onPrecharge(std::uint32_t flat_bank, Tick now);
    void onPrechargeAll(Tick now);
    void onRefresh(Tick now);
    /** @} */

    bool bankOpen(std::uint32_t flat_bank) const
    {
        return banks_[flat_bank].open;
    }
    std::uint32_t openRow(std::uint32_t flat_bank) const
    {
        return banks_[flat_bank].row;
    }
    bool anyBankOpen() const;

    /** End of the last data burst on the DQ bus. */
    Tick dqBusyUntil() const { return dqBusyUntil_; }

  private:
    struct BankShadow
    {
        bool open = false;
        std::uint32_t row = 0;
        Tick actTick = 0;
        Tick preTick = 0;
        Tick lastReadCmd = 0;
        Tick writeDataEnd = 0;
        bool everAct = false;
        bool everPre = false;
    };

    const dram::Ddr4Timing& t_;
    std::vector<BankShadow> banks_;

    Tick lastActTick_ = kTickNever;
    std::uint8_t lastActBg_ = 0;
    Tick lastCasTick_ = kTickNever;
    std::uint8_t lastCasBg_ = 0;
    bool lastCasWasWrite_ = false;
    Tick globalWriteDataEnd_ = 0;
    Tick dqBusyUntil_ = 0;
    Tick refreshDoneAt_ = 0;
    std::deque<Tick> actWindow_;
};

/** The next scheduling decision. */
struct SchedDecision
{
    enum class Action : std::uint8_t
    {
        None,       ///< Nothing to do.
        Activate,
        Read,
        Write,
        Precharge,
    };

    Action action = Action::None;
    bool fromWriteQueue = false;
    std::size_t queueIndex = 0;   ///< Index of the chosen request.
    Tick earliest = 0;            ///< Earliest legal issue tick.
};

/**
 * Pick the next command under FR-FCFS. Scans at most @p window
 * requests per queue (real schedulers have a bounded associative
 * search).
 */
SchedDecision pickNext(const RequestQueue& read_q,
                       const RequestQueue& write_q,
                       bool drain_writes,
                       const TimingShadow& shadow,
                       const dram::AddressMap& map,
                       std::size_t window = 16);

} // namespace nvdimmc::imc

#endif // NVDIMMC_IMC_SCHEDULER_HH
