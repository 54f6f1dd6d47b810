/**
 * @file
 * Fundamental scalar types shared by every ASTRA-SIM layer.
 *
 * One simulated cycle corresponds to one nanosecond (a 1 GHz fabric
 * clock), so a bandwidth of "200 GB/s" is exactly 200 bytes per cycle.
 */

#ifndef ASTRA_COMMON_TYPES_HH
#define ASTRA_COMMON_TYPES_HH

#include <cstdint>
#include <limits>

namespace astra
{

/** Simulated time, in cycles (== nanoseconds at the 1 GHz fabric clock). */
using Tick = std::uint64_t;

/** Sentinel for "no time" / "not yet happened". */
inline constexpr Tick kTickInvalid = std::numeric_limits<Tick>::max();

/**
 * ceil(@p ticks) as a Tick, for delays scaled by a double factor.
 * fatal() names @p what when the value is not finite, is negative or
 * does not fit a Tick, rather than wrapping.
 */
Tick ceilTicks(double ticks, const char *what);

/** Data sizes, in bytes. */
using Bytes = std::uint64_t;

/** Global identifier of an NPU endpoint (dense, 0-based). */
using NodeId = std::int32_t;

/** Sentinel node id. */
inline constexpr NodeId kNodeInvalid = -1;

/** Identifier of a collective stream (one chunk's journey). */
using StreamId = std::uint64_t;

/** Identifier of a workload layer. */
using LayerId = std::int32_t;

/** Bandwidth in bytes per cycle (== GB/s given the 1 GHz clock). */
using BytesPerCycle = double;

/**
 * The four collective operations of Fig. 4.
 */
enum class CollectiveKind
{
    ReduceScatter,
    AllGather,
    AllReduce,
    AllToAll,
    None,
};

/** Human-readable name for a collective kind. */
const char *toString(CollectiveKind kind);

/**
 * Parse a collective name ("ALLREDUCE", "all_to_all", ...) as it appears
 * in workload files. Returns CollectiveKind::None for "NONE" / empty.
 */
CollectiveKind parseCollectiveKind(const char *name);

} // namespace astra

#endif // ASTRA_COMMON_TYPES_HH
