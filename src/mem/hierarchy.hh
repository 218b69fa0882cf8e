/**
 * @file
 * Two-level memory hierarchy (DL1 + unified L2 + DRAM) plus the flat
 * Cray-1S-style memory mode used by the paper's Section 4.2 comparison.
 * Latency-only: an access returns the number of cycles until data is
 * available; bandwidth and MSHR contention are not modelled.
 */

#ifndef FO4_MEM_HIERARCHY_HH
#define FO4_MEM_HIERARCHY_HH

#include <cstdint>

#include "mem/cache.hh"

namespace fo4::mem
{

/** Per-level latencies in cycles at the simulated clock. */
struct HierarchyLatencies
{
    int dl1 = 3;
    int l2 = 16;
    int memory = 150;
    int flat = 12;   ///< latency of every access in flat (Cray) mode

    /**
     * Occupancy of the L1<->L2 line-fill bus per DL1 miss, in cycles.
     * The bus is on-chip and clocked with the core, so its occupancy is
     * constant in cycles across pipeline scalings (a 64B line in 16B
     * beats = 4 cycles).  Misses queue behind one another, which is what
     * bounds the throughput of streaming workloads.
     */
    int l2BusCycles = 4;

    /** Occupancy of the memory channel per L2 miss, in cycles.  DRAM
     *  bandwidth is fixed in absolute time, so the scaling study sets
     *  this from an FO4 figure. */
    int memBusCycles = 8;
};

/** Memory-system style. */
enum class MemoryMode
{
    TwoLevel, ///< DL1 + L2 + DRAM
    Flat,     ///< no caches; every access costs `flat` cycles
};

/** The data-side memory system seen by a core. */
class MemoryHierarchy
{
  public:
    MemoryHierarchy(const CacheParams &dl1Params, const CacheParams &l2Params,
                    const HierarchyLatencies &latencies,
                    MemoryMode mode = MemoryMode::TwoLevel);

    /**
     * Cycles until load data is available (updates cache state).  `now`
     * is the current cycle; on a miss the access queues for the fill
     * bus, so a burst of misses sees growing latencies.
     */
    int loadLatency(std::uint64_t addr, std::int64_t now = 0);

    /**
     * Cycles a store occupies the memory pipeline (updates cache state).
     * Stores retire from a write buffer and do not stall dependents, but
     * misses still consume fill-bus bandwidth.
     */
    int storeLatency(std::uint64_t addr, std::int64_t now = 0);

    void reset();

    /** Clear only the bus-busy bookkeeping (after functional prewarm). */
    void resetContention();

    /**
     * Copy the cache state (tags, LRU order, hit/miss counters) of a
     * donor hierarchy with identical geometry and mode; bus bookkeeping
     * resets, exactly as after prewarmState().  Cache contents depend
     * only on geometry and the access stream — never on latencies — so
     * one prewarmed donor serves every clock-period cell of a sweep
     * column.
     */
    void adoptWarmState(const MemoryHierarchy &donor);

    const Cache &dl1() const { return dl1_; }
    const Cache &l2() const { return l2_; }
    const HierarchyLatencies &latencies() const { return lat; }
    MemoryMode mode() const { return mode_; }

  private:
    Cache dl1_;
    Cache l2_;
    HierarchyLatencies lat;
    MemoryMode mode_;
    std::int64_t l2BusFreeAt = 0;
    std::int64_t memBusFreeAt = 0;
};

} // namespace fo4::mem

#endif // FO4_MEM_HIERARCHY_HH
