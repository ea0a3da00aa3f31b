/**
 * @file
 * Refresh detector (paper §IV-A, Fig 4).
 *
 * Snoops the six tapped CA pins (CKE, CS_n, ACT_n, RAS_n, CAS_n,
 * WE_n) through the deserializers and asserts is_refresh when the
 * decoded state is exactly a normal REF — not SRE/SRX (which have
 * distinct CKE transitions) and not any other command. Detection is
 * delayed by the deserializer pipeline.
 *
 * The electrical-noise model (miss / false-fire probabilities) exists
 * for the paper's §VII-A reliability discussion: a false positive lets
 * the NVMC drive the bus outside a genuine window, which the bus
 * conflict checker then catches — reproducing why detector accuracy is
 * critical.
 */

#ifndef NVDIMMC_NVMC_REFRESH_DETECTOR_HH
#define NVDIMMC_NVMC_REFRESH_DETECTOR_HH

#include <functional>

#include "bus/memory_bus.hh"
#include "common/event_queue.hh"
#include "common/random.hh"
#include "common/stats.hh"
#include "dram/ddr4_command.hh"
#include "nvmc/deserializer.hh"

namespace nvdimmc::nvmc
{

/** Detector statistics. */
struct DetectorStats
{
    Counter framesObserved;
    Counter refreshesDetected;
    Counter selfRefreshIgnored;
    Counter injectedMisses;
    Counter injectedFalsePositives;
};

/** The CA-bus refresh detector. */
class RefreshDetector : public bus::CaSnooper
{
  public:
    /** Callback: a REF was driven at @p command_tick (the bus tick,
     *  not the detection tick — the caller adds its own margins). */
    using RefreshCallback = std::function<void(Tick command_tick)>;

    struct Params
    {
        /** Probability a genuine REF goes undetected (signal
         *  integrity fault injection). */
        double missRate = 0.0;
        /** Probability a non-REF frame is misread as REF. */
        double falseRate = 0.0;
    };

    /** Seed of the injected misses and false positives. */
    static constexpr std::uint64_t kSeed = 42;

    /** @p tCK is the bus clock the deserializers sample at. */
    RefreshDetector(EventQueue& eq, Tick tCK, const Params& p,
                    RefreshCallback on_refresh);

    void observeFrame(const dram::CaFrame& frame, Tick now) override;

    /** Detection pipeline latency after the command edge. */
    Tick detectionLatency() const
    {
        return Deserializer::outputDelay(tCK_);
    }

    const DetectorStats& stats() const { return stats_; }

  private:
    EventQueue& eq_;
    const Tick tCK_;
    Params params_;
    RefreshCallback onRefresh_;
    Rng rng_;
    DetectorStats stats_;
};

} // namespace nvdimmc::nvmc

#endif // NVDIMMC_NVMC_REFRESH_DETECTOR_HH
