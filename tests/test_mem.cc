/**
 * @file
 * Tests for the cache model and the two-level memory hierarchy, including
 * the fill-bus contention model and the flat Cray-style mode.
 */

#include <gtest/gtest.h>

#include "mem/cache.hh"
#include "mem/hierarchy.hh"

using namespace fo4::mem;

namespace
{

CacheParams
smallCache()
{
    CacheParams p;
    p.capacityBytes = 1024;
    p.lineBytes = 64;
    p.associativity = 2;
    return p;
}

HierarchyLatencies
testLatencies()
{
    HierarchyLatencies lat;
    lat.dl1 = 3;
    lat.l2 = 10;
    lat.memory = 100;
    lat.l2BusCycles = 4;
    lat.memBusCycles = 8;
    return lat;
}

} // namespace

TEST(Cache, MissThenHit)
{
    Cache c(smallCache());
    EXPECT_FALSE(c.access(0x1000));
    EXPECT_TRUE(c.access(0x1000));
    EXPECT_TRUE(c.access(0x103F)); // same 64B line
    EXPECT_FALSE(c.access(0x1040)); // next line
}

TEST(Cache, CountsHitsAndMisses)
{
    Cache c(smallCache());
    c.access(0x0);
    c.access(0x0);
    c.access(0x40);
    EXPECT_EQ(c.hits(), 1u);
    EXPECT_EQ(c.misses(), 2u);
    EXPECT_NEAR(c.missRate(), 2.0 / 3.0, 1e-12);
}

TEST(Cache, LruEvictsOldest)
{
    // 2-way, 8 sets; three lines in the same set evict the least
    // recently used.
    Cache c(smallCache());
    const std::uint64_t setStride = 8 * 64; // lines mapping to set 0
    c.access(0 * setStride);
    c.access(1 * setStride);
    c.access(0 * setStride); // touch way 0 again
    c.access(2 * setStride); // evicts line 1
    EXPECT_TRUE(c.probe(0 * setStride));
    EXPECT_FALSE(c.probe(1 * setStride));
    EXPECT_TRUE(c.probe(2 * setStride));
}

TEST(Cache, ProbeDoesNotDisturbState)
{
    Cache c(smallCache());
    c.access(0x0);
    const auto misses = c.misses();
    EXPECT_FALSE(c.probe(0x40));
    EXPECT_EQ(c.misses(), misses);
}

TEST(Cache, FlushInvalidatesEverything)
{
    Cache c(smallCache());
    c.access(0x0);
    c.flush();
    EXPECT_FALSE(c.probe(0x0));
}

TEST(Cache, FullyUsesCapacity)
{
    // Touch exactly capacity worth of distinct lines; all must fit.
    Cache c(smallCache());
    for (std::uint64_t a = 0; a < 1024; a += 64)
        c.access(a);
    for (std::uint64_t a = 0; a < 1024; a += 64)
        EXPECT_TRUE(c.probe(a)) << "line " << a;
}

TEST(Hierarchy, HitCostsAreLayered)
{
    MemoryHierarchy m(smallCache(), CacheParams{64 * 1024, 64, 8},
                      testLatencies());
    // Cold: DL1 miss + L2 miss -> memory (plus both bus occupancies).
    const int cold = m.loadLatency(0x5000, 0);
    EXPECT_EQ(cold, 3 + 10 + 100 + 4 + 8);
    // Warm DL1 hit.
    EXPECT_EQ(m.loadLatency(0x5000, 1000), 3);
}

TEST(Hierarchy, L2HitCost)
{
    MemoryHierarchy m(smallCache(), CacheParams{64 * 1024, 64, 8},
                      testLatencies());
    m.loadLatency(0x5000, 0); // allocate everywhere
    // Evict from tiny DL1 by touching its sets (same set: stride 512B).
    m.loadLatency(0x5000 + 512, 100);
    m.loadLatency(0x5000 + 1024, 200);
    // Now 0x5000 is out of DL1 but still in L2.
    const int lat = m.loadLatency(0x5000, 1000);
    EXPECT_EQ(lat, 3 + 10 + 4);
}

TEST(Hierarchy, FillBusQueuesBackToBackMisses)
{
    MemoryHierarchy m(smallCache(), CacheParams{64 * 1024, 64, 8},
                      testLatencies());
    // Two cold misses in the same cycle: the second queues behind the
    // first at both the fill bus (+4) and the memory channel (+4 net).
    m.reset();
    const int first = m.loadLatency(0x10000, 50);
    const int second = m.loadLatency(0x20000, 50);
    EXPECT_EQ(second, first + 8);
}

TEST(Hierarchy, BusIdleAfterGap)
{
    MemoryHierarchy m(smallCache(), CacheParams{64 * 1024, 64, 8},
                      testLatencies());
    m.loadLatency(0x10000, 0);
    // Far in the future the bus is idle again: same cost as the first.
    const int later = m.loadLatency(0x30000, 1000);
    const int baseline = 3 + 10 + 100 + 4 + 8;
    EXPECT_EQ(later, baseline);
}

TEST(Hierarchy, ResetContentionClearsBusOnly)
{
    MemoryHierarchy m(smallCache(), CacheParams{64 * 1024, 64, 8},
                      testLatencies());
    m.loadLatency(0x10000, 0);
    m.resetContention();
    EXPECT_TRUE(m.dl1().probe(0x10000)); // cache contents kept
    const int lat = m.loadLatency(0x20000, 0);
    EXPECT_EQ(lat, 3 + 10 + 100 + 4 + 8); // no queueing carried over
}

TEST(Hierarchy, FlatModeIgnoresCaches)
{
    HierarchyLatencies lat = testLatencies();
    lat.flat = 12;
    MemoryHierarchy m(smallCache(), CacheParams{64 * 1024, 64, 8}, lat,
                      MemoryMode::Flat);
    for (int i = 0; i < 10; ++i)
        EXPECT_EQ(m.loadLatency(0x1000, i), 12); // same address: still 12
}

TEST(Hierarchy, StoresUpdateCacheState)
{
    MemoryHierarchy m(smallCache(), CacheParams{64 * 1024, 64, 8},
                      testLatencies());
    m.storeLatency(0x7000, 0);
    EXPECT_EQ(m.loadLatency(0x7000, 500), 3); // store allocated the line
}

TEST(Hierarchy, ResetRestoresColdState)
{
    MemoryHierarchy m(smallCache(), CacheParams{64 * 1024, 64, 8},
                      testLatencies());
    m.loadLatency(0x9000, 0);
    m.reset();
    EXPECT_FALSE(m.dl1().probe(0x9000));
    EXPECT_FALSE(m.l2().probe(0x9000));
}
