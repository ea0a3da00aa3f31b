/**
 * @file
 * Host memory request types handled by the integrated memory
 * controller. Requests are 64 B cache-line transfers; bulk movement is
 * built on top by cpu/memcpy_engine.
 */

#ifndef NVDIMMC_IMC_REQUEST_HH
#define NVDIMMC_IMC_REQUEST_HH

#include <array>
#include <cstddef>
#include <cstdint>
#include <functional>
#include <vector>

#include "common/logging.hh"
#include "common/types.hh"
#include "dram/address_map.hh"

namespace nvdimmc::imc
{

/** Completion callback; fired when data is delivered / posted. */
using Callback = std::function<void()>;

/** One pending line transfer inside the controller. */
struct MemRequest
{
    enum class Kind : std::uint8_t { Read, Write };

    Kind kind = Kind::Read;
    Addr addr = 0;                ///< 64 B aligned.
    dram::DramCoord coord;        ///< Pre-decomposed target.
    Tick enqueued = 0;

    /** For reads: destination buffer (may be null = timing only). */
    std::uint8_t* readBuf = nullptr;
    /** For writes: data image captured at enqueue (all-zero if timing
     *  only). */
    std::array<std::uint8_t, dram::AddressMap::kBurstBytes> writeData{};
    bool hasWriteData = false;

    Callback onComplete;
};

/**
 * A bounded FIFO of requests in fixed slots: the read queue and the
 * WPQ. The slots are made with the queue and never grow, so a queued
 * request stays where it is until it leaves, and a reference to it
 * stays valid meanwhile. The FIFO order is a vector of slot indices:
 * serving a request from anywhere in the scheduler's window erases one
 * index, and no request moves.
 */
class RequestQueue
{
  public:
    explicit RequestQueue(std::size_t capacity)
        : slots_(capacity)
    {
        NVDC_ASSERT(capacity <= 0xffff, "request queue of ", capacity,
                    " entries exceeds its 16-bit slot index");
        order_.reserve(capacity);
        free_.reserve(capacity);
        for (std::size_t s = capacity; s > 0; --s)
            free_.push_back(static_cast<std::uint16_t>(s - 1));
    }

    std::size_t size() const { return order_.size(); }
    bool empty() const { return order_.empty(); }
    bool full() const { return order_.size() >= slots_.size(); }

    /** The @p i-th oldest request. */
    MemRequest& operator[](std::size_t i) { return slots_[order_[i]]; }
    const MemRequest&
    operator[](std::size_t i) const
    {
        return slots_[order_[i]];
    }
    MemRequest& front() { return (*this)[0]; }
    const MemRequest& front() const { return (*this)[0]; }

    /**
     * Queue a request at the back, with no buffer, data or callback
     * yet; the caller fills those in. Panics when full.
     */
    MemRequest&
    push(MemRequest::Kind kind, Addr addr, const dram::DramCoord& coord,
         Tick enqueued)
    {
        NVDC_ASSERT(!full(), "push onto a full request queue");
        std::uint16_t s = free_.back();
        free_.pop_back();
        order_.push_back(s);
        MemRequest& r = slots_[s];
        r.kind = kind;
        r.addr = addr;
        r.coord = coord;
        r.enqueued = enqueued;
        r.readBuf = nullptr;
        r.hasWriteData = false;
        return r;
    }

    /** Remove the @p i-th oldest request; its slot keeps no callback. */
    void
    erase(std::size_t i)
    {
        std::uint16_t s = order_[i];
        slots_[s].onComplete = nullptr;
        order_.erase(order_.begin() + static_cast<std::ptrdiff_t>(i));
        free_.push_back(s);
    }

    /** Remove every request. */
    void
    clear()
    {
        while (!empty())
            erase(size() - 1);
    }

  private:
    std::vector<MemRequest> slots_;
    /** Slot indices, oldest first. */
    std::vector<std::uint16_t> order_;
    /** Slots holding no request. */
    std::vector<std::uint16_t> free_;
};

} // namespace nvdimmc::imc

#endif // NVDIMMC_IMC_REQUEST_HH
