/**
 * @file
 * Parallel simulation dispatch: a self-scheduling parallelFor used to
 * spread independent simulation points (sweep rates, experiment cells,
 * benchmark grids) across cores.
 *
 * Determinism contract: every task owns its slot in a pre-sized result
 * vector and its own network/driver/RNG, so results are bit-identical
 * to serial execution regardless of the thread count or the order in
 * which indices happen to run. Nothing here introduces shared mutable
 * simulation state.
 *
 * Thread-count resolution (resolveThreadCount): an explicit request
 * wins; otherwise the PL_THREADS environment variable; otherwise the
 * hardware concurrency.
 */

#ifndef PHASTLANE_COMMON_PARALLEL_HPP
#define PHASTLANE_COMMON_PARALLEL_HPP

#include <cstddef>
#include <cstdint>
#include <functional>

namespace phastlane {

/**
 * Resolve an effective simulation thread count: @p requested when
 * positive, else the PL_THREADS environment variable when set to a
 * positive integer, else std::thread::hardware_concurrency() (at
 * least 1).
 */
int resolveThreadCount(int requested);

/**
 * One-shot parallel loop: body(i) exactly once for every i in [0, n)
 * over min(n, @p threads) workers (resolved via resolveThreadCount),
 * the caller among them. Workers take the next unclaimed index from
 * a shared counter, so a slow index never holds others back behind
 * it. The first exception thrown by @p body is rethrown here; on
 * more than one worker, only after every other index has run.
 * threads == 1 (or n <= 1) runs inline with no thread machinery.
 */
void parallelFor(size_t n, const std::function<void(size_t)> &body,
                 int threads = 0);

/**
 * Deterministic per-point seed derivation (SplitMix64 over the pair):
 * statistically independent streams for distinct indices, identical
 * on every platform and thread count.
 */
uint64_t derivePointSeed(uint64_t base, uint64_t index);

} // namespace phastlane

#endif // PHASTLANE_COMMON_PARALLEL_HPP
