/**
 * @file
 * Per-bank DDR4 state machine with timing validation.
 *
 * The bank tracks when it was activated/precharged and when the last
 * column commands happened so each incoming command can be checked
 * against the JEDEC constraints (tRCD, tRP, tRAS, tRC, tRTP, tWR,
 * tWTR). Cross-bank constraints (tRRD, tFAW, tCCD) live in DramDevice.
 */

#ifndef NVDIMMC_DRAM_BANK_HH
#define NVDIMMC_DRAM_BANK_HH

#include <cstdint>
#include <string>

#include "common/types.hh"
#include "dram/timing.hh"

namespace nvdimmc::dram
{

/** Result of a bank-level command check. */
struct BankCheck
{
    bool ok = true;
    std::string reason;

    static BankCheck pass() { return {}; }
    static BankCheck fail(std::string why) { return {false, std::move(why)}; }
};

/** One DRAM bank. */
class Bank
{
  public:
    enum class State { Idle, Active };

    State state() const { return state_; }
    std::uint32_t openRow() const { return openRow_; }
    bool isOpen(std::uint32_t row) const
    {
        return state_ == State::Active && openRow_ == row;
    }

    /** @name Command checks (do not change state). */
    /** @{ */
    BankCheck canActivate(Tick now, const Ddr4Timing& t) const;
    BankCheck canRead(Tick now, std::uint32_t row,
                      const Ddr4Timing& t) const;
    BankCheck canWrite(Tick now, std::uint32_t row,
                       const Ddr4Timing& t) const;
    BankCheck canPrecharge(Tick now, const Ddr4Timing& t) const;
    /** @} */

    /** @name Command application (assumes the check passed). */
    /** @{ */
    void activate(Tick now, std::uint32_t row);
    void read(Tick now, const Ddr4Timing& t);
    void write(Tick now, const Ddr4Timing& t);
    void precharge(Tick now);
    /** @} */

  private:
    State state_ = State::Idle;
    std::uint32_t openRow_ = 0;

    Tick actAt_ = 0;            ///< Tick of the last ACT.
    Tick preAt_ = 0;            ///< Tick of the last PRE command.
    Tick lastReadCmd_ = 0;
    Tick lastWriteDataEnd_ = 0; ///< End of last write burst data.
    bool everActivated_ = false;
    bool everPrecharged_ = false;
    bool everRead_ = false;
    bool everWritten_ = false;
};

} // namespace nvdimmc::dram

#endif // NVDIMMC_DRAM_BANK_HH
