/**
 * @file
 * The fan-out primitive for independent simulations (design-space
 * sweeps, figure harnesses).
 */

#ifndef ASTRA_COMMON_PARALLEL_FOR_HH
#define ASTRA_COMMON_PARALLEL_FOR_HH

#include <cstddef>
#include <functional>

namespace astra
{

/** std::thread::hardware_concurrency(), never less than 1. */
int hardwareThreads();

/**
 * Run fn(i) for every i in [0, count) on up to @p jobs threads: starts
 * min(jobs, count) - 1 std::jthreads, and the calling thread works
 * alongside them. Workers claim indices from one atomic counter, so
 * each index runs exactly once; completion order is unspecified, so
 * callers that need deterministic output write result i into slot i.
 * A worker that throws stops claiming; the first worker's exception is
 * rethrown once all have joined. Warns when more workers than hardware
 * threads are asked for.
 *
 * @param jobs  worker budget; <= 0 selects hardwareThreads().
 */
void parallelFor(int jobs, std::size_t count,
                 const std::function<void(std::size_t)> &fn);

} // namespace astra

#endif // ASTRA_COMMON_PARALLEL_FOR_HH
