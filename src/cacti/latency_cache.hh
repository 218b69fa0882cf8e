/**
 * @file
 * Process-wide memoization of structure access latencies.  A sweep
 * evaluates the same (structure, capacity, calibration) points at every
 * clock period — the Cacti-style subarray search behind latencyFo4() is
 * pure, so each distinct point is computed once and shared by every
 * sweep point and every worker thread thereafter.
 *
 * The quantized form, cycles = ceil(latency_fo4 / t_useful), is derived
 * from the cached FO4 figure by ClockModel::latencyCycles; caching the
 * clock-independent latency therefore covers every (clock period,
 * capacity, calibration) combination the sweep grid touches.
 *
 * The table is a util::OnceMap: each point is computed exactly once,
 * concurrent first lookups of it wait for that one computation, and a
 * computation that throws caches nothing.
 */

#ifndef FO4_CACTI_LATENCY_CACHE_HH
#define FO4_CACTI_LATENCY_CACHE_HH

#include <atomic>
#include <cstdint>
#include <tuple>

#include "cacti/structures.hh"
#include "util/once_map.hh"

namespace fo4::cacti
{

/** Hit/miss counters, for tests and the engineering benches; a miss
 *  is a computation, so misses == distinct points looked up. */
struct LatencyCacheStats
{
    std::uint64_t hits = 0;
    std::uint64_t misses = 0;
    std::uint64_t lookups() const { return hits + misses; }
};

/** Memo table over StructureModel::latencyFo4. */
class LatencyCache
{
  public:
    /** The shared process-wide instance. */
    static LatencyCache &global();

    /**
     * Anchored latency of `kind` at `capacity` under `model`'s
     * calibration; identical to model.latencyFo4(kind, capacity), but
     * computed at most once per distinct (calibration, kind, capacity).
     */
    double latencyFo4(const StructureModel &model, StructureKind kind,
                      std::uint64_t capacity);

    LatencyCacheStats stats() const;

    /** Forget everything (tests; also resets the counters). */
    void clear();

  private:
    /** (calibration fingerprint, structure, capacity). */
    using Key = std::tuple<std::uint64_t, StructureKind, std::uint64_t>;

    util::OnceMap<Key, double> table;
    std::atomic<std::uint64_t> hits{0};
    std::atomic<std::uint64_t> misses{0};
};

} // namespace fo4::cacti

#endif // FO4_CACTI_LATENCY_CACHE_HH
