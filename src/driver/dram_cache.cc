#include "driver/dram_cache.hh"

#include <algorithm>

#include "common/logging.hh"

namespace nvdimmc::driver
{

DramCache::DramCache(std::uint32_t slot_count, std::uint64_t page_count,
                     std::unique_ptr<ReplacementPolicy> policy)
    : slotCount_(slot_count),
      pageCount_(page_count),
      policy_(std::move(policy)),
      slots_(slot_count)
{
    NVDC_ASSERT(slot_count > 0, "empty DRAM cache");
    policy_->reset(slot_count);
}

std::optional<std::uint32_t>
DramCache::lookup(std::uint64_t page)
{
    auto s = peek(page);
    if (!s) {
        stats_.misses.inc();
        return std::nullopt;
    }
    stats_.hits.inc();
    policy_->onAccess(*s);
    return s;
}

std::uint32_t
DramCache::allocate(std::uint64_t page)
{
    NVDC_ASSERT(hasFree(), "allocate with no free slot");
    NVDC_ASSERT(page < pageCount_, "page ", page, " is outside the ",
                pageCount_, " pages this cache serves");
    std::uint32_t s;
    if (freed_.empty()) {
        s = nextFresh_++;
    } else {
        s = freed_.back();
        freed_.pop_back();
    }
    CacheSlot& slot = slots_[s];
    slot.page = page;
    slot.state = CacheSlot::State::Busy;
    slot.dirty = false;
    return s;
}

std::uint32_t
DramCache::pickVictim()
{
    // The policy may momentarily propose a Busy or pinned slot
    // (mid-fill, mid-eviction, or with an access in flight); skip it
    // by telling the policy it is gone and retrying — it will be
    // reinstalled when it stabilizes.
    // Each rejected candidate is temporarily dropped from the policy,
    // so the scan is bounded by the number of slots the policy holds.
    std::vector<std::uint32_t> skipped;
    std::uint32_t chosen = slotCount_;
    const std::uint32_t budget = stableCount_;
    for (std::uint32_t attempts = 0; attempts < budget; ++attempts) {
        std::uint32_t v = policy_->pickVictim();
        if (slots_[v].state == CacheSlot::State::Stable && !pinned(v)) {
            chosen = v;
            break;
        }
        policy_->onEvict(v);
        if (slots_[v].state == CacheSlot::State::Stable)
            skipped.push_back(v); // Pinned but stable: reinstall.
    }
    for (std::uint32_t s : skipped)
        policy_->onInstall(s);
    if (chosen == slotCount_)
        panic("DramCache: no evictable victim available");
    return chosen;
}

std::optional<std::uint32_t>
DramCache::pickCleanVictim()
{
    std::vector<std::uint32_t> skipped;
    std::optional<std::uint32_t> chosen;
    const std::uint32_t budget = stableCount_;
    for (std::uint32_t attempts = 0; attempts < budget; ++attempts) {
        std::uint32_t v = policy_->pickVictim();
        if (slots_[v].state == CacheSlot::State::Stable &&
            !pinned(v) && !slots_[v].dirty) {
            chosen = v;
            break;
        }
        policy_->onEvict(v);
        if (slots_[v].state == CacheSlot::State::Stable)
            skipped.push_back(v);
    }
    for (std::uint32_t s : skipped)
        policy_->onInstall(s);
    return chosen;
}

void
DramCache::unpin(std::uint32_t slot)
{
    auto it = std::find(pinnedSlots_.begin(), pinnedSlots_.end(), slot);
    NVDC_ASSERT(it != pinnedSlots_.end(), "unpin underflow");
    *it = pinnedSlots_.back();
    pinnedSlots_.pop_back();
}

bool
DramCache::pinned(std::uint32_t slot) const
{
    return std::find(pinnedSlots_.begin(), pinnedSlots_.end(), slot) !=
           pinnedSlots_.end();
}

CacheSlot
DramCache::beginEvict(std::uint32_t s)
{
    CacheSlot& slot = slots_[s];
    NVDC_ASSERT(slot.state == CacheSlot::State::Stable,
                "evicting a non-stable slot");
    CacheSlot prior = slot;
    if (slot.dirty)
        stats_.dirtyEvictions.inc();
    else
        stats_.cleanEvictions.inc();
    policy_->onEvict(s);
    NVDC_ASSERT(stableCount_ > 0, "stable count underflow");
    --stableCount_;
    pageToSlot_.at(slot.page) = 0;
    slot.state = CacheSlot::State::Busy;
    return prior;
}

void
DramCache::finishEvict(std::uint32_t s)
{
    CacheSlot& slot = slots_[s];
    NVDC_ASSERT(slot.state == CacheSlot::State::Busy,
                "finishing eviction of a non-busy slot");
    slot.state = CacheSlot::State::Free;
    slot.dirty = false;
    slot.page = 0;
    freed_.push_back(s);
}

void
DramCache::rebind(std::uint32_t s, std::uint64_t page)
{
    CacheSlot& slot = slots_[s];
    NVDC_ASSERT(slot.state == CacheSlot::State::Busy,
                "rebinding a non-busy slot");
    NVDC_ASSERT(page < pageCount_, "page ", page, " is outside the ",
                pageCount_, " pages this cache serves");
    slot.page = page;
    slot.dirty = false;
}

void
DramCache::finishFill(std::uint32_t s)
{
    CacheSlot& slot = slots_[s];
    NVDC_ASSERT(slot.state == CacheSlot::State::Busy,
                "finishing fill of a non-busy slot");
    std::uint32_t& entry = pageToSlot_.at(slot.page);
    NVDC_ASSERT(entry == 0, "page ", slot.page,
                " is already cached in slot ", entry - 1);
    entry = s + 1;
    slot.state = CacheSlot::State::Stable;
    ++stableCount_;
    stats_.installs.inc();
    policy_->onInstall(s);
}

void
DramCache::markDirty(std::uint32_t s)
{
    NVDC_ASSERT(slots_[s].state != CacheSlot::State::Free,
                "dirtying a free slot");
    slots_[s].dirty = true;
}

void
DramCache::markClean(std::uint32_t s)
{
    slots_[s].dirty = false;
}

void
DramCache::registerStats(StatRegistry& reg,
                         const std::string& prefix) const
{
    reg.addCounter(prefix + ".hits", stats_.hits);
    reg.addCounter(prefix + ".misses", stats_.misses);
    reg.addCounter(prefix + ".installs", stats_.installs);
    reg.addCounter(prefix + ".clean_evictions",
                   stats_.cleanEvictions);
    reg.addCounter(prefix + ".dirty_evictions",
                   stats_.dirtyEvictions);
    reg.add(prefix + ".hit_rate",
            [this] { return stats_.hitRate(); });
    reg.add(prefix + ".used_slots",
            [this] { return static_cast<double>(usedSlots()); });
}

} // namespace nvdimmc::driver
