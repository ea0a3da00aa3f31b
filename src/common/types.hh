/**
 * @file
 * Fundamental simulator-wide types and unit helpers.
 *
 * All simulated time is kept in integer picoseconds (Tick) so that DDR4
 * clock periods (e.g. 1250 ps at DDR4-1600) are exactly representable
 * and event ordering is fully deterministic.
 */

#ifndef NVDIMMC_COMMON_TYPES_HH
#define NVDIMMC_COMMON_TYPES_HH

#include <cstdint>

namespace nvdimmc
{

/** Simulated time in picoseconds. */
using Tick = std::uint64_t;

/** Physical or device address in bytes. */
using Addr = std::uint64_t;

/** Sentinel for "no tick" / "not scheduled". */
constexpr Tick kTickNever = ~Tick{0};

/** @name Time unit conversions (to picoseconds). */
/** @{ */
constexpr Tick kPs = 1;
constexpr Tick kNs = 1000 * kPs;
constexpr Tick kUs = 1000 * kNs;
constexpr Tick kMs = 1000 * kUs;
constexpr Tick kSec = 1000 * kMs;
/** @} */

/** Convert picoseconds to (double) nanoseconds / microseconds / seconds. */
constexpr double
ticksToNs(Tick t)
{
    return static_cast<double>(t) / static_cast<double>(kNs);
}

constexpr double
ticksToUs(Tick t)
{
    return static_cast<double>(t) / static_cast<double>(kUs);
}

constexpr double
ticksToSec(Tick t)
{
    return static_cast<double>(t) / static_cast<double>(kSec);
}

/** Convert a floating-point duration to ticks (rounding to nearest). */
constexpr Tick
nsToTicks(double ns)
{
    return static_cast<Tick>(ns * static_cast<double>(kNs) + 0.5);
}

constexpr Tick
usToTicks(double us)
{
    return static_cast<Tick>(us * static_cast<double>(kUs) + 0.5);
}

/** @name Capacity unit helpers. */
/** @{ */
constexpr std::uint64_t kKiB = 1ull << 10;
constexpr std::uint64_t kMiB = 1ull << 20;
constexpr std::uint64_t kGiB = 1ull << 30;
/** @} */

/**
 * Bandwidth in MB/s (decimal megabytes, as the paper reports) given a
 * byte count moved over a tick interval.
 */
constexpr double
bytesPerTickToMBps(std::uint64_t bytes, Tick interval)
{
    if (interval == 0)
        return 0.0;
    return (static_cast<double>(bytes) / 1e6) / ticksToSec(interval);
}

/** Operations per second expressed in thousands (KIOPS). */
constexpr double
opsPerTickToKiops(std::uint64_t ops, Tick interval)
{
    if (interval == 0)
        return 0.0;
    return (static_cast<double>(ops) / 1e3) / ticksToSec(interval);
}

} // namespace nvdimmc

#endif // NVDIMMC_COMMON_TYPES_HH
