/**
 * @file
 * Free-listed records for state a component keeps while a step is in
 * flight (gem5 keeps such state in MSHRs and packets, not closures).
 *
 * A component acquires a record, fills it, and hands the next layer a
 * continuation that captures only `this` and the record's index: at
 * most 16 trivially copyable bytes, which std::function stores without
 * a heap allocation. The continuation releases the record, moving out
 * whatever it still needs first, since what it calls may acquire the
 * record again.
 *
 * Records live in a deque, so one never moves once made: a pointer
 * into a record (a buffer another component fills) stays valid until
 * the record is released. Each pool is a member of its component,
 * never static, since sweep points run whole systems on parallel
 * threads.
 */

#ifndef NVDIMMC_COMMON_RECORD_POOL_HH
#define NVDIMMC_COMMON_RECORD_POOL_HH

#include <cstdint>
#include <deque>
#include <vector>

namespace nvdimmc
{

/** Index-addressed, free-listed records of type @p T. */
template <typename T>
class RecordPool
{
  public:
    /** A free record, value-initialized (as if freshly made). */
    std::uint32_t
    acquire()
    {
        if (free_.empty()) {
            records_.emplace_back();
            return static_cast<std::uint32_t>(records_.size() - 1);
        }
        std::uint32_t i = free_.back();
        free_.pop_back();
        records_[i] = T{};
        return i;
    }

    /** Return record @p i to the pool. */
    void release(std::uint32_t i) { free_.push_back(i); }

    T& operator[](std::uint32_t i) { return records_[i]; }

  private:
    std::deque<T> records_;
    std::vector<std::uint32_t> free_;
};

} // namespace nvdimmc

#endif // NVDIMMC_COMMON_RECORD_POOL_HH
