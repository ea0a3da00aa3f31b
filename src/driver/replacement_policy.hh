/**
 * @file
 * Cache-slot replacement policies for the nvdc driver's DRAM cache.
 *
 * The paper's PoC uses least-recently-cached (LRC): victims are chosen
 * in FIFO order of *installation*, ignoring accesses (§IV-B). Its
 * in-house study (§VII-B5) shows LRU would push TPC-H hit rates to
 * 78.7-99.3%; CLOCK and RANDOM are included for the policy-exploration
 * example and ablation bench.
 */

#ifndef NVDIMMC_DRIVER_REPLACEMENT_POLICY_HH
#define NVDIMMC_DRIVER_REPLACEMENT_POLICY_HH

#include <cstdint>
#include <deque>
#include <memory>
#include <string>
#include <vector>

#include "common/random.hh"

namespace nvdimmc::driver
{

/** Interface every policy implements. */
class ReplacementPolicy
{
  public:
    virtual ~ReplacementPolicy() = default;

    /** (Re)initialize for @p slot_count slots, all uninstalled. */
    virtual void reset(std::uint32_t slot_count) = 0;

    virtual void onInstall(std::uint32_t slot) = 0;
    virtual void onAccess(std::uint32_t slot) = 0;
    virtual void onEvict(std::uint32_t slot) = 0;

    /** Choose a victim among installed slots (never called empty). */
    virtual std::uint32_t pickVictim() = 0;

    /** Factory: "lrc", "lru", "clock", "random". */
    static std::unique_ptr<ReplacementPolicy>
    create(const std::string& policy_name, std::uint64_t seed = 1);
};

/** Least-recently-cached: FIFO by installation (the paper's PoC). */
class LrcPolicy : public ReplacementPolicy
{
  public:
    void reset(std::uint32_t slot_count) override;
    void onInstall(std::uint32_t slot) override;
    void onAccess(std::uint32_t slot) override {(void)slot;}
    void onEvict(std::uint32_t slot) override;
    std::uint32_t pickVictim() override;

  private:
    std::deque<std::uint32_t> fifo_;
    std::vector<bool> installed_;
};

/** Least-recently-used over accesses (intrusive list). */
class LruPolicy : public ReplacementPolicy
{
  public:
    void reset(std::uint32_t slot_count) override;
    void onInstall(std::uint32_t slot) override;
    void onAccess(std::uint32_t slot) override;
    void onEvict(std::uint32_t slot) override;
    std::uint32_t pickVictim() override;

  private:
    static constexpr std::uint32_t kNil = ~std::uint32_t{0};

    void unlink(std::uint32_t slot);
    void pushMru(std::uint32_t slot);

    std::vector<std::uint32_t> prev_;
    std::vector<std::uint32_t> next_;
    std::vector<bool> linked_;
    std::uint32_t head_ = kNil; ///< MRU.
    std::uint32_t tail_ = kNil; ///< LRU.
};

/** Second-chance CLOCK. */
class ClockPolicy : public ReplacementPolicy
{
  public:
    void reset(std::uint32_t slot_count) override;
    void onInstall(std::uint32_t slot) override;
    void onAccess(std::uint32_t slot) override;
    void onEvict(std::uint32_t slot) override;
    std::uint32_t pickVictim() override;

  private:
    std::vector<std::uint8_t> state_; ///< 0 absent, 1 present, 2 ref.
    std::uint32_t hand_ = 0;
    std::uint32_t installedCount_ = 0;
};

/** Uniform random over installed slots. */
class RandomPolicy : public ReplacementPolicy
{
  public:
    explicit RandomPolicy(std::uint64_t seed) : rng_(seed) {}

    void reset(std::uint32_t slot_count) override;
    void onInstall(std::uint32_t slot) override;
    void onAccess(std::uint32_t slot) override {(void)slot;}
    void onEvict(std::uint32_t slot) override;
    std::uint32_t pickVictim() override;

  private:
    Rng rng_;
    std::vector<std::uint32_t> installed_;   ///< Dense list.
    std::vector<std::uint32_t> position_;    ///< slot -> index or kNil.
    static constexpr std::uint32_t kNil = ~std::uint32_t{0};
};

} // namespace nvdimmc::driver

#endif // NVDIMMC_DRIVER_REPLACEMENT_POLICY_HH
