/**
 * @file
 * The observability layer's contracts:
 *
 *  - MetricsRegistry: find-or-create identity, stable references,
 *    exactness under concurrent increments (run under TSan), and the
 *    global enable gate (disabled increments are dropped).
 *  - TraceEventRing: window filtering, bounded overwrite, and the shape
 *    of the Chrome trace_event JSON it renders.
 *  - Determinism: the stats CSV rows derived from a suite — including
 *    one with injected faults — are byte-identical at jobs=1/2/8 and
 *    across a checkpoint/replay cycle, and every SimResult counter is
 *    a stats CSV column unless listed as left out.  Engineering
 *    metrics stay *out* of those artifacts; this file also pins their
 *    sums where the instrumented work is deterministic.
 */

#include <gtest/gtest.h>

#include <algorithm>
#include <cstdio>
#include <fstream>
#include <set>
#include <sstream>
#include <string>
#include <thread>
#include <vector>

#include "bench/common.hh"
#include "study/checkpoint.hh"
#include "study/runner.hh"
#include "study/scaling.hh"
#include "trace/capture.hh"
#include "trace/generator.hh"
#include "trace/spec2000.hh"
#include "util/metrics.hh"

using namespace fo4;

namespace
{

/** Save/restore the global metrics flag so tests cannot leak state. */
class MetricsFlagGuard
{
  public:
    explicit MetricsFlagGuard(bool enable)
        : previous(util::setMetricsEnabled(enable))
    {
    }
    ~MetricsFlagGuard() { util::setMetricsEnabled(previous); }

  private:
    bool previous;
};

study::RunSpec
smallSpec()
{
    study::RunSpec spec;
    spec.instructions = 2000;
    spec.warmup = 250;
    spec.prewarm = 20000;
    spec.cycleLimit = 1000000;
    return spec;
}

/** Write a short capture with one byte inside its op frame destroyed:
 *  the frame fails its CRC, so loading it is a typed TraceCorrupt. */
std::string
makeCorruptTrace(const std::string &name)
{
    const std::string path =
        std::string(::testing::TempDir()) + "/" + name;
    auto prof = trace::spec2000Profile("164.gzip");
    trace::SyntheticTraceGenerator gen(prof);
    trace::recordTrace(path, gen, 512);
    std::fstream f(path, std::ios::binary | std::ios::in | std::ios::out);
    f.seekp(16 + 32 * 50 + 30);
    f.put(static_cast<char>(0xEE));
    return path;
}

/** Healthy, corrupt-trace and watchdog-tripping jobs interleaved. */
std::vector<study::BenchJob>
faultyJobs(const std::string &corruptPath)
{
    std::vector<study::BenchJob> jobs;
    jobs.push_back(study::BenchJob::fromProfile(
        trace::spec2000Profile("176.gcc")));
    jobs.push_back(study::BenchJob::fromTraceFile(
        "corrupt-a", trace::BenchClass::Integer, corruptPath));
    auto hung = study::BenchJob::fromProfile(
        trace::spec2000Profile("164.gzip"));
    hung.name = "hung";
    hung.cycleLimit = 20;
    jobs.push_back(hung);
    jobs.push_back(study::BenchJob::fromProfile(
        trace::spec2000Profile("181.mcf")));
    return jobs;
}

} // namespace

// ---------------------------------------------------------------------
// Registry
// ---------------------------------------------------------------------

TEST(MetricsRegistry, FindOrCreateReturnsTheSameCounter)
{
    util::MetricsRegistry reg;
    auto &a = reg.counter("x.hits");
    auto &b = reg.counter("x.hits");
    EXPECT_EQ(&a, &b);
    EXPECT_EQ(reg.counterCount(), 1u);

    MetricsFlagGuard on(true);
    a.add(3);
    b.inc();
    EXPECT_EQ(reg.value("x.hits"), 4u);
    EXPECT_EQ(reg.value("never.registered"), 0u);
}

TEST(MetricsRegistry, DisabledIncrementsAreDropped)
{
    util::MetricsRegistry reg;
    auto &c = reg.counter("gated");

    MetricsFlagGuard off(false);
    c.add(100);
    c.inc();
    EXPECT_EQ(c.value(), 0u);

    util::setMetricsEnabled(true);
    c.inc();
    EXPECT_EQ(c.value(), 1u);
}

TEST(MetricsRegistry, SnapshotIsSortedAndResetAllZeroes)
{
    MetricsFlagGuard on(true);
    util::MetricsRegistry reg;
    reg.counter("zebra").add(2);
    reg.counter("alpha").add(1);
    reg.counter("mid").add(3);

    const auto snap = reg.snapshotCounters();
    ASSERT_EQ(snap.size(), 3u);
    EXPECT_EQ(snap[0].first, "alpha");
    EXPECT_EQ(snap[1].first, "mid");
    EXPECT_EQ(snap[2].first, "zebra");
    EXPECT_EQ(snap[0].second, 1u);
    EXPECT_EQ(snap[2].second, 2u);

    reg.resetAll();
    for (const auto &[name, value] : reg.snapshotCounters())
        EXPECT_EQ(value, 0u) << name;
    EXPECT_EQ(reg.counterCount(), 3u); // registrations survive
}

TEST(MetricsRegistry, HistogramBucketsClampAndAverage)
{
    MetricsFlagGuard on(true);
    util::MetricsRegistry reg;
    auto &h = reg.histogram("lat", 4);
    EXPECT_EQ(&h, &reg.histogram("lat", 99)); // first caller fixes size
    EXPECT_EQ(h.bucketCount(), 4u);

    for (const std::uint64_t v : {0ull, 1ull, 1ull, 3ull, 7ull, 100ull})
        h.sample(v);
    EXPECT_EQ(h.bucket(0), 1u);
    EXPECT_EQ(h.bucket(1), 2u);
    EXPECT_EQ(h.bucket(2), 0u);
    EXPECT_EQ(h.bucket(3), 3u); // 3, 7 and 100 clamp into the last
    EXPECT_EQ(h.samples(), 6u);
    EXPECT_EQ(h.total(), 112u);
    EXPECT_DOUBLE_EQ(h.mean(), 112.0 / 6.0);

    h.reset();
    EXPECT_EQ(h.samples(), 0u);
    EXPECT_EQ(h.bucket(3), 0u);
}

TEST(MetricsRegistry, ConcurrentIncrementsAreExact)
{
    // Run under the tsan preset this is the data-race canary for the
    // whole registry: shared-counter adds, racing registrations of the
    // same and of distinct names, and a racing snapshot.
    MetricsFlagGuard on(true);
    util::MetricsRegistry reg;
    constexpr int kThreads = 8;
    constexpr std::uint64_t kPerThread = 20000;

    std::vector<std::thread> workers;
    for (int t = 0; t < kThreads; ++t) {
        workers.emplace_back([&reg, t] {
            auto &shared = reg.counter("stress.shared");
            auto &own =
                reg.counter("stress.t" + std::to_string(t));
            auto &hist = reg.histogram("stress.hist", 8);
            for (std::uint64_t i = 0; i < kPerThread; ++i) {
                shared.inc();
                own.inc();
                hist.sample(i & 7);
            }
            (void)reg.snapshotCounters();
        });
    }
    for (auto &w : workers)
        w.join();

    EXPECT_EQ(reg.value("stress.shared"), kThreads * kPerThread);
    for (int t = 0; t < kThreads; ++t)
        EXPECT_EQ(reg.value("stress.t" + std::to_string(t)), kPerThread);
    EXPECT_EQ(reg.histogram("stress.hist").samples(),
              kThreads * kPerThread);
}

// ---------------------------------------------------------------------
// Trace ring
// ---------------------------------------------------------------------

TEST(TraceEventRing, WindowFilterAndBoundedOverwrite)
{
    util::TraceEventRing ring(4, 100, 50); // window [100, 150)
    EXPECT_FALSE(ring.wants(99));
    EXPECT_TRUE(ring.wants(100));
    EXPECT_TRUE(ring.wants(149));
    EXPECT_FALSE(ring.wants(150));

    auto at = [](std::int64_t cycle, std::uint64_t seq) {
        util::TraceEvent e;
        e.name = "iadd";
        e.category = "pipeline";
        e.start = cycle;
        e.duration = 1;
        e.seq = seq;
        return e;
    };

    ring.emit(at(99, 0));  // before the window: dropped
    ring.emit(at(150, 1)); // after the window: dropped
    EXPECT_EQ(ring.size(), 0u);

    for (std::uint64_t s = 0; s < 6; ++s)
        ring.emit(at(100 + static_cast<std::int64_t>(s), 10 + s));
    EXPECT_EQ(ring.size(), 4u);      // capacity bound holds
    EXPECT_EQ(ring.overwritten(), 2u);

    // Oldest two were overwritten; survivors in chronological order.
    const auto events = ring.events();
    ASSERT_EQ(events.size(), 4u);
    EXPECT_EQ(events.front().seq, 12u);
    EXPECT_EQ(events.back().seq, 15u);
}

TEST(TraceEventRing, ChromeJsonNamesLanesAndEvents)
{
    util::TraceEventRing ring(8, 0, 1000);
    util::TraceEvent e;
    e.name = "ld";
    e.category = "pipeline";
    e.track = 2;
    e.start = 42;
    e.duration = 3;
    e.seq = 7;
    ring.emit(e);

    std::ostringstream os;
    ring.writeChromeJson(os);
    const std::string json = os.str();

    EXPECT_NE(json.find("\"traceEvents\""), std::string::npos);
    EXPECT_NE(json.find("\"ph\":\"X\""), std::string::npos);
    EXPECT_NE(json.find("\"name\":\"ld\""), std::string::npos);
    EXPECT_NE(json.find("\"ts\":42"), std::string::npos);
    EXPECT_NE(json.find("\"dur\":3"), std::string::npos);
    // Lane metadata for all four pipeline stages.
    EXPECT_NE(json.find("thread_name"), std::string::npos);
    for (int track = 0; track < 4; ++track)
        EXPECT_NE(json.find(util::TraceEventRing::trackName(track)),
                  std::string::npos)
            << track;
    // Braces balance — cheap structural sanity without a JSON parser.
    EXPECT_EQ(std::count(json.begin(), json.end(), '{'),
              std::count(json.begin(), json.end(), '}'));
}

TEST(TraceEventRing, TraceStartKeepsTheWindowEndRepresentable)
{
    MetricsFlagGuard g(false); // trace= turns the registry on
    const auto parse = [](std::vector<const char *> args) {
        args.insert(args.begin(), "bench");
        return bench::observabilityFromArgs(util::Config::fromArgs(
            static_cast<int>(args.size()), args.data()));
    };
    for (const char *start :
         {"trace_start=-5", "trace_start=9223372036854775807"}) {
        try {
            (void)parse({"trace=/dev/null", start});
            ADD_FAILURE() << start << " was accepted";
        } catch (const util::ConfigError &e) {
            EXPECT_EQ(e.code(), util::ErrorCode::InvalidConfig) << e.what();
        }
    }
    // The last start whose window end (start + trace_cycles) fits.
    const auto last = parse({"trace=/dev/null", "trace_cycles=10",
                             "trace_start=9223372036854775797"});
    EXPECT_EQ(last.traceStart, INT64_MAX - 10);
    EXPECT_EQ(parse({}).traceStart, 0);
}

// ---------------------------------------------------------------------
// Stats determinism
// ---------------------------------------------------------------------

TEST(StatsDeterminism, RowsByteIdenticalAcrossThreadCountsUnderFaults)
{
    MetricsFlagGuard on(true); // live registry must not perturb results
    const auto corrupt = makeCorruptTrace("metrics_corrupt.fo4t");
    const auto jobs = faultyJobs(corrupt);
    const auto params = study::scaledCoreParams(6.0, {});
    const auto clock = study::scaledClock(6.0);
    const auto spec = smallSpec();

    const auto serialSuite = study::runSuite(params, clock, jobs, spec);
    const auto reference =
        bench::statsRowsToString(bench::statsRows("6", serialSuite));
    ASSERT_NE(reference.find("TraceCorrupt"), std::string::npos);
    ASSERT_NE(reference.find("Deadlock"), std::string::npos);

    for (const int threads : {1, 2, 8}) {
        study::CheckpointOptions options;
        options.threads = threads;
        const auto suite = study::CheckpointedRunner(std::move(options))
                               .runGrid({{params, clock}}, jobs, spec)
                               .front();
        EXPECT_EQ(bench::statsRowsToString(bench::statsRows("6", suite)),
                  reference)
            << "jobs=" << threads;
    }
    std::remove(corrupt.c_str());
}

TEST(StatsDeterminism, CheckpointReplayReproducesStatsByteForByte)
{
    MetricsFlagGuard on(true);
    const auto corrupt = makeCorruptTrace("metrics_ckpt_corrupt.fo4t");
    const auto jobs = faultyJobs(corrupt);
    const auto spec = smallSpec();
    std::vector<study::GridPoint> points(1);
    points[0].params = study::scaledCoreParams(6.0, {});
    points[0].clock = study::scaledClock(6.0);

    const std::string journal =
        std::string(::testing::TempDir()) + "/metrics_stats.journal";
    std::remove(journal.c_str());

    auto statsOf = [&](int threads) {
        study::CheckpointOptions copts;
        copts.journalPath = journal;
        copts.threads = threads;
        study::CheckpointedRunner runner(std::move(copts));
        const auto suite = runner.runGrid(points, jobs, spec).front();
        return std::make_pair(
            bench::statsRowsToString(bench::statsRows("6", suite)),
            runner.report());
    };

    const auto [first, firstReport] = statsOf(8);
    EXPECT_EQ(firstReport.replayedCells, 0u);
    EXPECT_EQ(firstReport.executedCells, jobs.size());

    // Same journal, different thread count: every cell replays, and the
    // stats rows — failures included — are byte-identical.
    const auto [replayed, replayReport] = statsOf(2);
    EXPECT_TRUE(replayReport.resumed);
    EXPECT_EQ(replayReport.replayedCells, jobs.size());
    EXPECT_EQ(replayed, first);

    std::remove(journal.c_str());
    std::remove(corrupt.c_str());
}

TEST(StatsCsv, EveryCounterIsAColumnOrOnTheExclusionList)
{
    // Today's header line, byte for byte.
    EXPECT_EQ(util::csvRow(bench::statsHeader()),
              "t_useful,benchmark,class,status,instructions,cycles,"
              "stall_cycles,stall_branch-mispredict,stall_icache-miss,"
              "stall_dcache-miss,stall_window-full,stall_raw-load-use,"
              "stall_execute,stall_front-end,stall_other,"
              "dispatch_window_full,dispatch_rob_full,dispatch_lsq_full,"
              "occ_front,occ_window,occ_rob,occ_lsq\n");

    // Each counter in turn moves from 1 to 3; a stats= column shows it
    // in exactly one cell of the row.
    study::SuiteResult suite;
    suite.benchmarks.resize(1);
    core::SimResult &sim = suite.benchmarks[0].sim;
    core::forEachCounter([](std::uint64_t &v) { v = 1; }, sim);
    const auto rowOf = [&suite] {
        return bench::statsRows("6", suite).front();
    };
    const auto base = rowOf();
    ASSERT_EQ(base.size(), bench::statsHeader().size());

    // The counters stats= leaves out.
    const std::set<const std::uint64_t *> excluded{
        &sim.branches, &sim.mispredicts, &sim.loads, &sim.stores,
        &sim.dl1Misses, &sim.l2Misses, &sim.occupancy.cycles};
    std::size_t index = 0;
    std::size_t columns = 0;
    core::forEachCounter(
        [&](std::uint64_t &v) {
            v = 3;
            const auto row = rowOf();
            v = 1;
            std::size_t changed = 0;
            for (std::size_t c = 0; c < row.size(); ++c)
                changed += row[c] != base[c];
            if (!excluded.count(&v)) {
                EXPECT_EQ(changed, 1u)
                    << "counter " << index
                    << " of core::forEachCounter is in no stats= column";
                ++columns;
            }
            ++index;
        },
        sim);
    EXPECT_EQ(columns, 18u);
    EXPECT_EQ(index - columns, excluded.size());
}

TEST(StatsDeterminism, EngineeringMetricsStayOutOfSuiteArtifacts)
{
    // The registry observes; it must never influence.  Run the same
    // suite with metrics off and on — serialized results match.
    const auto profiles = std::vector<trace::BenchmarkProfile>{
        trace::spec2000Profile("164.gzip")};
    const auto params = study::scaledCoreParams(6.0, {});
    const auto clock = study::scaledClock(6.0);
    const auto spec = smallSpec();

    std::string off, on;
    {
        MetricsFlagGuard g(false);
        off = study::serializeSuite(
            study::runSuite(params, clock, profiles, spec));
    }
    {
        MetricsFlagGuard g(true);
        on = study::serializeSuite(
            study::runSuite(params, clock, profiles, spec));
    }
    EXPECT_EQ(off, on);

    // And the sweep-engine counter sums are themselves deterministic:
    // cells.executed advances by exactly points x jobs per sweep.
    MetricsFlagGuard g(true);
    auto &reg = util::MetricsRegistry::global();
    const auto before = reg.value("study.cells.executed");
    study::CheckpointOptions options;
    options.threads = 2;
    (void)study::CheckpointedRunner(std::move(options))
        .runGrid({{params, clock}}, study::jobsFromProfiles(profiles), spec);
    EXPECT_EQ(reg.value("study.cells.executed"),
              before + profiles.size());
}
