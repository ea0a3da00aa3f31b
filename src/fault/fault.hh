/**
 * @file
 * Deterministic media-fault injection (ROADMAP item 5).
 *
 * A MediaFaultInjector owns one Rng stream per channel and installs
 * two hooks into that channel's media stack:
 *
 *  - Ftl read-error hook: every physical-page read attempt gets a raw
 *    bit-error count sampled from Poisson(readRberMean +
 *    wearRberSlope * eraseCount(block)), so wear makes pages noisier —
 *    the retention/endurance coupling every ageing study needs.
 *  - ZNand program-fault hook: each program fails with
 *    programFailProb, exercising grown-defect retirement and GC
 *    relocation under pressure.
 *
 * Both hooks run inside the channel's media event context, whose event
 * order is deterministic, so a campaign's fault sequence replays
 * byte-identically. The injector's Rng state is checkpointable
 * alongside the device state (fault/checkpoint.hh).
 */

#ifndef NVDIMMC_FAULT_FAULT_HH
#define NVDIMMC_FAULT_FAULT_HH

#include <cstdint>
#include <vector>

#include "common/random.hh"
#include "common/serialize.hh"
#include "ftl/ftl.hh"
#include "nvm/znand.hh"

namespace nvdimmc::fault
{

/** Media-fault rates. All zero = a healthy device. */
struct MediaFaultConfig
{
    /** Mean raw bit errors per page read on pristine media. */
    double readRberMean = 0.0;
    /** Extra mean raw bit errors per erase of the page's block. */
    double wearRberSlope = 0.0;
    /** Probability a page program reports a grown defect. */
    double programFailProb = 0.0;
    std::uint64_t seed = 1;
};

/** Injector over one or more (Ftl, ZNand) channel pairs. */
class MediaFaultInjector
{
  public:
    explicit MediaFaultInjector(const MediaFaultConfig& cfg)
        : cfg_(cfg)
    {
    }

    ~MediaFaultInjector() { detachAll(); }

    MediaFaultInjector(const MediaFaultInjector&) = delete;
    MediaFaultInjector& operator=(const MediaFaultInjector&) = delete;

    /**
     * Install the hooks on channel @p channel's stack. The Rng stream
     * is keyed on the channel index, so multi-channel campaigns stay
     * deterministic per channel no matter how channels interleave in
     * wall-clock time.
     */
    void attach(std::uint32_t channel, ftl::Ftl& ftl,
                nvm::ZNand& nand);

    /** Remove every installed hook (safe to call twice). */
    void detachAll();

    /** @name Injection tallies, summed over channels. Tallies are
     *  kept per channel and summed here. */
    /** @{ */
    std::uint64_t readErrorsInjected() const;
    std::uint64_t programFailsInjected() const;
    /** @} */

    /** @name Rng-state checkpointing (ageing campaigns). */
    /** @{ */
    void saveState(ByteWriter& w) const;
    void loadState(ByteReader& r);
    /** @} */

    const MediaFaultConfig& config() const { return cfg_; }

  private:
    struct ChannelHooks
    {
        ftl::Ftl* ftl = nullptr;
        nvm::ZNand* nand = nullptr;
        Rng rng{1};
        std::uint64_t readErrors = 0;
        std::uint64_t programFails = 0;
    };

    std::uint32_t samplePoisson(Rng& rng, double mean) const;

    MediaFaultConfig cfg_;
    std::vector<ChannelHooks> hooks_;
};

} // namespace nvdimmc::fault

#endif // NVDIMMC_FAULT_FAULT_HH
