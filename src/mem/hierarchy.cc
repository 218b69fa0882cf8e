#include "mem/hierarchy.hh"

#include <algorithm>

#include "util/logging.hh"
#include "util/status.hh"

namespace fo4::mem
{

MemoryHierarchy::MemoryHierarchy(const CacheParams &dl1Params,
                                 const CacheParams &l2Params,
                                 const HierarchyLatencies &latencies,
                                 MemoryMode mode)
    : dl1_(dl1Params), l2_(l2Params), lat(latencies), mode_(mode)
{
    if (lat.dl1 < 1 || lat.l2 < 1 || lat.memory < 1 || lat.flat < 1) {
        throw util::ConfigError(
            "memory latencies must be at least one cycle");
    }
    if (lat.l2BusCycles < 0 || lat.memBusCycles < 0)
        throw util::ConfigError("bus occupancies cannot be negative");
}

int
MemoryHierarchy::loadLatency(std::uint64_t addr, std::int64_t now)
{
    if (mode_ == MemoryMode::Flat)
        return lat.flat;

    if (dl1_.access(addr))
        return lat.dl1;

    // DL1 miss: the line fill occupies the L1<->L2 bus; misses queue.
    const std::int64_t busStart = std::max(now, l2BusFreeAt);
    l2BusFreeAt = busStart + lat.l2BusCycles;
    const int queueing = static_cast<int>(busStart - now);

    if (l2_.access(addr))
        return lat.dl1 + lat.l2 + queueing + lat.l2BusCycles;

    // L2 miss: additionally occupy the memory channel.
    const std::int64_t memStart = std::max(busStart, memBusFreeAt);
    memBusFreeAt = memStart + lat.memBusCycles;
    const int memQueueing = static_cast<int>(memStart - busStart);
    return lat.dl1 + lat.l2 + lat.memory + queueing + lat.l2BusCycles +
           memQueueing + lat.memBusCycles;
}

int
MemoryHierarchy::storeLatency(std::uint64_t addr, std::int64_t now)
{
    // Tag-only caches: a store looks up and allocates as a load does.
    return loadLatency(addr, now);
}

void
MemoryHierarchy::reset()
{
    dl1_.flush();
    l2_.flush();
    resetContention();
}

void
MemoryHierarchy::resetContention()
{
    l2BusFreeAt = 0;
    memBusFreeAt = 0;
}

void
MemoryHierarchy::adoptWarmState(const MemoryHierarchy &donor)
{
    FO4_ASSERT(mode_ == donor.mode_ &&
                   dl1_.params().capacityBytes ==
                       donor.dl1_.params().capacityBytes &&
                   dl1_.params().lineBytes == donor.dl1_.params().lineBytes &&
                   dl1_.params().associativity ==
                       donor.dl1_.params().associativity &&
                   l2_.params().capacityBytes ==
                       donor.l2_.params().capacityBytes &&
                   l2_.params().lineBytes == donor.l2_.params().lineBytes &&
                   l2_.params().associativity ==
                       donor.l2_.params().associativity,
               "warm-state donor has a different cache geometry");
    dl1_ = donor.dl1_;
    l2_ = donor.l2_;
    resetContention();
}

} // namespace fo4::mem
