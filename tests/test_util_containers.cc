/**
 * @file
 * Unit tests for the circular buffer, saturating counters and the
 * once-per-key memo (util::OnceMap) behind the process-wide caches.
 */

#include <gtest/gtest.h>

#include <atomic>
#include <chrono>
#include <latch>
#include <memory>
#include <stdexcept>
#include <string>
#include <thread>
#include <utility>
#include <vector>

#include "cacti/latency_cache.hh"
#include "util/circular_buffer.hh"
#include "util/once_map.hh"
#include "util/sat_counter.hh"

using fo4::util::CircularBuffer;
using fo4::util::OnceMap;
using fo4::util::SatCounter;

TEST(CircularBuffer, StartsEmpty)
{
    CircularBuffer<int> buf(4);
    EXPECT_TRUE(buf.empty());
    EXPECT_FALSE(buf.full());
    EXPECT_EQ(buf.size(), 0u);
    EXPECT_EQ(buf.free(), 4u);
}

TEST(CircularBuffer, FifoOrder)
{
    CircularBuffer<int> buf(3);
    buf.pushBack(1);
    buf.pushBack(2);
    buf.pushBack(3);
    EXPECT_TRUE(buf.full());
    EXPECT_EQ(buf.front(), 1);
    buf.popFront();
    EXPECT_EQ(buf.front(), 2);
    buf.popFront();
    EXPECT_EQ(buf.front(), 3);
}

TEST(CircularBuffer, WrapsAround)
{
    CircularBuffer<int> buf(2);
    for (int i = 0; i < 100; ++i) {
        buf.pushBack(i);
        EXPECT_EQ(buf.front(), i);
        buf.popFront();
    }
    EXPECT_TRUE(buf.empty());
}

TEST(CircularBuffer, IndexedAccess)
{
    CircularBuffer<int> buf(4);
    buf.pushBack(10);
    buf.pushBack(20);
    buf.popFront();
    buf.pushBack(30);
    buf.pushBack(40);
    // Contents are now 20, 30, 40 with head wrapped.
    EXPECT_EQ(buf.at(0), 20);
    EXPECT_EQ(buf.at(1), 30);
    EXPECT_EQ(buf.at(2), 40);
}

TEST(CircularBuffer, ClearResets)
{
    CircularBuffer<int> buf(2);
    buf.pushBack(5);
    buf.clear();
    EXPECT_TRUE(buf.empty());
    buf.pushBack(7);
    EXPECT_EQ(buf.front(), 7);
}

TEST(CircularBuffer, PushOnFullPanics)
{
    CircularBuffer<int> buf(1);
    buf.pushBack(1);
    EXPECT_DEATH(buf.pushBack(2), "full");
}

TEST(CircularBuffer, PopOnEmptyPanics)
{
    CircularBuffer<int> buf(1);
    EXPECT_DEATH(buf.popFront(), "empty");
}

TEST(SatCounter, StartsWeaklyTaken)
{
    SatCounter<2> c;
    EXPECT_EQ(c.value(), 2u);
    EXPECT_TRUE(c.predictTaken());
}

TEST(SatCounter, SaturatesHigh)
{
    SatCounter<2> c;
    for (int i = 0; i < 10; ++i)
        c.increment();
    EXPECT_EQ(c.value(), 3u);
}

TEST(SatCounter, SaturatesLow)
{
    SatCounter<2> c;
    for (int i = 0; i < 10; ++i)
        c.decrement();
    EXPECT_EQ(c.value(), 0u);
    EXPECT_FALSE(c.predictTaken());
}

TEST(SatCounter, HysteresisNeedsTwoSteps)
{
    SatCounter<2> c(3); // strongly taken
    c.train(false);
    EXPECT_TRUE(c.predictTaken()); // still weakly taken
    c.train(false);
    EXPECT_FALSE(c.predictTaken());
}

TEST(SatCounter, OneBitFlipsImmediately)
{
    SatCounter<1> c(1);
    EXPECT_TRUE(c.predictTaken());
    c.train(false);
    EXPECT_FALSE(c.predictTaken());
    c.train(true);
    EXPECT_TRUE(c.predictTaken());
}

TEST(SatCounter, ThreeBitThreshold)
{
    SatCounter<3> c(3);
    EXPECT_FALSE(c.predictTaken()); // 3 < 4
    c.increment();
    EXPECT_TRUE(c.predictTaken()); // 4 >= 4
}

TEST(OnceMap, ConcurrentFirstGetsBuildOnceAndShareOneObject)
{
    constexpr int kThreads = 8;
    OnceMap<int, std::shared_ptr<const int>> memo;
    std::atomic<int> builds{0};
    std::latch start(kThreads);
    std::vector<std::shared_ptr<const int>> got(kThreads);
    std::vector<std::thread> threads;
    for (int t = 0; t < kThreads; ++t) {
        threads.emplace_back([&, t] {
            start.arrive_and_wait();
            got[t] = memo.get(7, [&] {
                ++builds;
                // Hold the build open so the other threads queue on it.
                std::this_thread::sleep_for(std::chrono::milliseconds(20));
                return std::make_shared<const int>(42);
            });
        });
    }
    for (auto &thread : threads)
        thread.join();
    EXPECT_EQ(builds.load(), 1);
    for (const auto &value : got) {
        ASSERT_NE(value, nullptr);
        EXPECT_EQ(value, got[0]);
        EXPECT_EQ(*value, 42);
    }
    EXPECT_EQ(memo.size(), 1u);
}

TEST(OnceMap, OtherKeysDoNotWaitForABuild)
{
    OnceMap<int, int> memo;
    std::latch building(1);
    std::latch release(1);
    std::thread slow([&] {
        EXPECT_EQ(memo.get(1,
                           [&] {
                               building.count_down();
                               release.wait();
                               return 1;
                           }),
                  1);
    });
    building.wait();
    // Key 1 is mid-build; key 2 is served without waiting for it.
    EXPECT_EQ(memo.get(2, [] { return 2; }), 2);
    release.count_down();
    slow.join();
    EXPECT_EQ(memo.get(1, [] { return -1; }), 1);
}

TEST(OnceMap, ABuildThatThrowsCachesNothing)
{
    OnceMap<std::string, int> memo;
    int builds = 0;
    EXPECT_THROW(memo.get("trace",
                          [&]() -> int {
                              ++builds;
                              throw std::runtime_error("file not there yet");
                          }),
                 std::runtime_error);
    EXPECT_EQ(memo.size(), 0u);
    EXPECT_EQ(memo.get("trace", [&] { return ++builds; }), 2);
    EXPECT_EQ(memo.get("trace", [&] { return ++builds; }), 2);
    EXPECT_EQ(builds, 2);
}

TEST(OnceMap, ClearForgetsEntriesButNotValuesHeldElsewhere)
{
    OnceMap<int, std::shared_ptr<const std::string>> memo;
    const auto held = memo.get(
        1, [] { return std::make_shared<const std::string>("first"); });
    memo.clear();
    EXPECT_EQ(memo.size(), 0u);
    EXPECT_EQ(*held, "first");
    const auto again = memo.get(
        1, [] { return std::make_shared<const std::string>("second"); });
    EXPECT_EQ(*again, "second");
    EXPECT_EQ(*held, "first");
}

TEST(OnceMap, LatencyCacheMissesEqualDistinctPointsUnderContention)
{
    using fo4::cacti::StructureKind;
    using fo4::cacti::StructureModel;
    constexpr int kThreads = 8;
    auto &cache = fo4::cacti::LatencyCache::global();
    cache.clear();

    const StructureModel model;
    std::vector<std::pair<StructureKind, std::uint64_t>> points;
    for (const auto kind : {StructureKind::IssueWindow,
                            StructureKind::RegisterFile, StructureKind::DL1})
        for (std::uint64_t scale = 1; scale <= 64; scale *= 2)
            points.emplace_back(kind,
                                StructureModel::alphaCapacity(kind) * scale);
    std::vector<double> expected;
    for (const auto &[kind, capacity] : points)
        expected.push_back(model.latencyFo4(kind, capacity));

    // Every thread looks up the same fresh points in the same order, so
    // first lookups of a point collide.
    std::latch start(kThreads);
    std::vector<std::thread> threads;
    for (int t = 0; t < kThreads; ++t) {
        threads.emplace_back([&] {
            start.arrive_and_wait();
            for (std::size_t i = 0; i < points.size(); ++i)
                EXPECT_EQ(cache.latencyFo4(model, points[i].first,
                                           points[i].second),
                          expected[i]);
        });
    }
    for (auto &thread : threads)
        thread.join();
    const auto stats = cache.stats();
    EXPECT_EQ(stats.misses, points.size());
    EXPECT_EQ(stats.lookups(), kThreads * points.size());
    cache.clear();
}
