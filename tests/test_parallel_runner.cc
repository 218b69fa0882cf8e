/**
 * @file
 * The determinism contract of the parallel sweep engine: at every
 * thread count, ParallelRunner and sweepScaling must produce results
 * bit-for-bit identical to the serial runner — including the position
 * and typed error of failed rows when faults are injected.  Identity
 * is stated in terms of study::serializeSuite, which renders every
 * field (doubles in hexfloat) so no difference can hide in rounding.
 */

#include <gtest/gtest.h>

#include <cstdio>
#include <fstream>
#include <string>
#include <vector>

#include "cacti/latency_cache.hh"
#include "study/batch.hh"
#include "study/parallel.hh"
#include "study/runner.hh"
#include "study/scaling.hh"
#include "trace/capture.hh"
#include "trace/decoded_trace.hh"
#include "trace/generator.hh"
#include "trace/spec2000.hh"
#include "util/status.hh"
#include "util/thread_pool.hh"

using namespace fo4;

namespace
{

/** The thread counts the contract is verified at. */
const int kThreadCounts[] = {1, 2, 8};

study::RunSpec
smallSpec()
{
    study::RunSpec spec;
    spec.instructions = 2000;
    spec.warmup = 250;
    spec.prewarm = 20000;
    spec.cycleLimit = 1000000; // fail fast instead of hanging ctest
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

/** A suite with healthy, corrupt-trace and watchdog-tripping jobs
 *  interleaved, so failed-row ordering is actually exercised. */
std::vector<study::BenchJob>
faultyJobs(const std::string &corruptPath)
{
    std::vector<study::BenchJob> jobs;
    jobs.push_back(study::BenchJob::fromProfile(
        trace::spec2000Profile("176.gcc")));
    jobs.push_back(study::BenchJob::fromTraceFile(
        "corrupt-a", trace::BenchClass::Integer, corruptPath));
    jobs.push_back(study::BenchJob::fromProfile(
        trace::spec2000Profile("181.mcf")));
    auto hung = study::BenchJob::fromProfile(
        trace::spec2000Profile("164.gzip"));
    hung.name = "hung";
    hung.cycleLimit = 20;
    jobs.push_back(hung);
    jobs.push_back(study::BenchJob::fromProfile(
        trace::spec2000Profile("256.bzip2")));
    jobs.push_back(study::BenchJob::fromTraceFile(
        "corrupt-b", trace::BenchClass::Integer, corruptPath));
    return jobs;
}

} // namespace

TEST(ParallelRunner, ThreadCountResolution)
{
    EXPECT_EQ(study::ParallelRunner(5).threads(), 5);
    EXPECT_EQ(study::ParallelRunner(1).threads(), 1);
    EXPECT_EQ(study::ParallelRunner(0).threads(),
              util::ThreadPool::hardwareThreads());
    EXPECT_EQ(study::ParallelRunner(-3).threads(),
              util::ThreadPool::hardwareThreads());
}

TEST(ParallelRunner, HealthySuiteByteIdenticalAtEveryThreadCount)
{
    const auto profiles =
        trace::spec2000Profiles(trace::BenchClass::Integer);
    const auto params = study::scaledCoreParams(6.0, {});
    const auto clock = study::scaledClock(6.0);
    const auto spec = smallSpec();

    const auto serial =
        study::serializeSuite(study::runSuite(params, clock, profiles, spec));
    ASSERT_FALSE(serial.empty());

    for (const int threads : kThreadCounts) {
        const study::ParallelRunner runner(threads);
        const auto parallel = study::serializeSuite(
            runner.runSuite(params, clock, profiles, spec));
        EXPECT_EQ(parallel, serial) << "threads=" << threads;
    }
}

TEST(ParallelRunner, FailedRowOrderingSurvivesParallelExecution)
{
    const auto corrupt = makeCorruptTrace("parallel_corrupt.fo4t");
    const auto jobs = faultyJobs(corrupt);
    const auto params = study::scaledCoreParams(6.0, {});
    const auto clock = study::scaledClock(6.0);
    const auto spec = smallSpec();

    const auto serialSuite = study::runSuite(params, clock, jobs, spec);
    const auto serial = study::serializeSuite(serialSuite);

    // Sanity on the serial reference itself: three typed failures, in
    // job order, siblings unharmed.
    const auto failures = serialSuite.failures();
    ASSERT_EQ(failures.size(), 3u);
    EXPECT_EQ(failures[0]->name, "corrupt-a");
    EXPECT_EQ(failures[0]->error.code(), util::ErrorCode::TraceCorrupt);
    EXPECT_EQ(failures[1]->name, "hung");
    EXPECT_EQ(failures[1]->error.code(), util::ErrorCode::Deadlock);
    EXPECT_EQ(failures[2]->name, "corrupt-b");
    EXPECT_EQ(serialSuite.succeeded(), 3u);

    for (const int threads : kThreadCounts) {
        const study::ParallelRunner runner(threads);
        const auto parallel = study::serializeSuite(
            runner.runSuite(params, clock, jobs, spec));
        EXPECT_EQ(parallel, serial) << "threads=" << threads;
    }
    std::remove(corrupt.c_str());
}

TEST(ParallelRunner, SweepGridMatchesSerialPointByPoint)
{
    const std::vector<double> ts{4, 6, 8, 11};
    const auto profiles =
        trace::spec2000Profiles(trace::BenchClass::VectorFp);
    const auto spec = smallSpec();

    // Serial reference: the plain runSuite loop every bench used to be.
    std::vector<std::string> reference;
    for (const double u : ts) {
        reference.push_back(study::serializeSuite(
            study::runSuite(study::scaledCoreParams(u, {}),
                            study::scaledClock(u), profiles, spec)));
    }

    for (const int threads : kThreadCounts) {
        study::SweepOptions options;
        options.threads = threads;
        const auto points =
            study::sweepScaling(ts, options, profiles, spec);
        ASSERT_EQ(points.size(), ts.size());
        for (std::size_t i = 0; i < points.size(); ++i) {
            EXPECT_EQ(points[i].tUseful, ts[i]);
            EXPECT_EQ(study::serializeSuite(points[i].suite), reference[i])
                << "threads=" << threads << " t=" << ts[i];
        }
    }
}

TEST(ParallelRunner, LatencyCacheServesRepeatSweepsFromMemory)
{
    // The structure-latency memo table is what makes repeated sweeps
    // cheap: the first pass over a grid computes each distinct
    // (calibration, structure, capacity) point once; a second identical
    // pass must be answered entirely from the table.
    auto &cache = cacti::LatencyCache::global();
    cache.clear();

    const std::vector<double> ts{5, 7};
    const std::vector<trace::BenchmarkProfile> profiles{
        trace::spec2000Profile("164.gzip")};
    study::SweepOptions options;
    options.threads = 1;

    (void)study::sweepScaling(ts, options, profiles, smallSpec());
    const auto first = cache.stats();
    EXPECT_GT(first.misses, 0u);
    EXPECT_GT(first.hits, 0u); // repeated structures within one sweep
    // Single-threaded, every miss inserts exactly once.
    EXPECT_EQ(first.inserts, first.misses);

    (void)study::sweepScaling(ts, options, profiles, smallSpec());
    const auto second = cache.stats();
    EXPECT_EQ(second.misses, first.misses) << "rerun recomputed latencies";
    EXPECT_EQ(second.inserts, first.inserts);
    EXPECT_GT(second.hits, first.hits);

    // clear() must forget entries *and* counters.
    cache.clear();
    const auto cleared = cache.stats();
    EXPECT_EQ(cleared.lookups(), 0u);
    EXPECT_EQ(cleared.inserts, 0u);
}

TEST(ParallelRunner, SuiteLevelMisconfigurationThrowsBeforeFanout)
{
    const study::ParallelRunner runner(4);
    const auto params = study::scaledCoreParams(6.0, {});
    const auto clock = study::scaledClock(6.0);

    const std::vector<study::BenchJob> none;
    EXPECT_THROW(runner.runSuite(params, clock, none, smallSpec()),
                 util::ConfigError);

    auto spec = smallSpec();
    spec.instructions = 0;
    const std::vector<trace::BenchmarkProfile> one{
        trace::spec2000Profile("164.gzip")};
    EXPECT_THROW(runner.runSuite(params, clock, one, spec),
                 util::ConfigError);

    // An invalid *point* in a grid poisons the whole grid up front.
    std::vector<study::GridPoint> points(2);
    points[0].params = params;
    points[0].clock = clock;
    points[1].params = params;
    points[1].clock.tUsefulFo4 = -1.0;
    std::vector<study::BenchJob> jobs{study::BenchJob::fromProfile(
        trace::spec2000Profile("164.gzip"))};
    EXPECT_THROW(runner.runGrid(points, jobs, smallSpec()),
                 util::ConfigError);
}

// ---------------------------------------------------------------------------
// BatchRunner: the one-pass batched engine must be indistinguishable —
// serializeSuite-equal — from the serial reference runner on the full
// Table 2 suite, on grids, and on suites with injected faults.
// ---------------------------------------------------------------------------

TEST(BatchRunner, AllProfilesByteIdenticalAtEveryThreadCount)
{
    const auto profiles = trace::spec2000Profiles();
    ASSERT_EQ(profiles.size(), 18u); // the paper's full Table 2 suite
    const auto params = study::scaledCoreParams(6.0, {});
    const auto clock = study::scaledClock(6.0);
    const auto spec = smallSpec();

    const auto serial =
        study::serializeSuite(study::runSuite(params, clock, profiles, spec));
    for (const int threads : kThreadCounts) {
        const study::BatchRunner runner(threads);
        const auto batched = study::serializeSuite(
            runner.runSuite(params, clock, profiles, spec));
        EXPECT_EQ(batched, serial) << "threads=" << threads;
    }
}

TEST(BatchRunner, ForcesBatchedImplementation)
{
    EXPECT_EQ(study::BatchRunner(3).threads(), 3);
    EXPECT_EQ(study::BatchRunner(0).threads(),
              util::ThreadPool::hardwareThreads());

    // The spec's impl field is overridden, not trusted: handing a
    // Reference spec to BatchRunner must still populate the decoded
    // registry (i.e. run on the batched path).
    trace::DecodedTraceRegistry::global().clear();
    const std::vector<trace::BenchmarkProfile> one{
        trace::spec2000Profile("197.parser")};
    auto spec = smallSpec();
    spec.impl = study::SimImpl::Reference;
    (void)study::BatchRunner(1).runSuite(study::scaledCoreParams(6.0, {}),
                                         study::scaledClock(6.0), one, spec);
    EXPECT_GE(trace::DecodedTraceRegistry::global().size(), 1u);
}

TEST(BatchRunner, SweepGridMatchesSerialReferencePointByPoint)
{
    const std::vector<double> ts{4, 6, 8, 11};
    const auto profiles =
        trace::spec2000Profiles(trace::BenchClass::VectorFp);
    const auto spec = smallSpec();

    std::vector<std::string> reference;
    for (const double u : ts) {
        reference.push_back(study::serializeSuite(
            study::runSuite(study::scaledCoreParams(u, {}),
                            study::scaledClock(u), profiles, spec)));
    }

    for (const int threads : kThreadCounts) {
        study::SweepOptions options;
        options.threads = threads;
        const auto points =
            study::sweepScalingBatched(ts, options, profiles, spec);
        ASSERT_EQ(points.size(), ts.size());
        for (std::size_t i = 0; i < points.size(); ++i) {
            EXPECT_EQ(points[i].tUseful, ts[i]);
            EXPECT_EQ(study::serializeSuite(points[i].suite), reference[i])
                << "threads=" << threads << " t=" << ts[i];
        }
    }
}

TEST(BatchRunner, FaultRowsSurviveBatchedExecution)
{
    // Corrupt traces and watchdog trips must land in the same rows with
    // the same typed errors and messages as the serial reference —
    // through the decoded-trace registry, at every thread count.
    const auto corrupt = makeCorruptTrace("batch_corrupt.fo4t");
    const auto jobs = faultyJobs(corrupt);
    const auto params = study::scaledCoreParams(6.0, {});
    const auto clock = study::scaledClock(6.0);
    const auto spec = smallSpec();

    const auto serial =
        study::serializeSuite(study::runSuite(params, clock, jobs, spec));
    for (const int threads : kThreadCounts) {
        const study::BatchRunner runner(threads);
        const auto batched = study::serializeSuite(
            runner.runSuite(params, clock, jobs, spec));
        EXPECT_EQ(batched, serial) << "threads=" << threads;
    }
    std::remove(corrupt.c_str());
}

TEST(BatchRunner, MisconfigurationThrowsBeforeFanout)
{
    const study::BatchRunner runner(4);
    const auto params = study::scaledCoreParams(6.0, {});
    const auto clock = study::scaledClock(6.0);

    const std::vector<study::BenchJob> none;
    EXPECT_THROW(runner.runSuite(params, clock, none, smallSpec()),
                 util::ConfigError);

    std::vector<study::GridPoint> points(2);
    points[0].params = params;
    points[0].clock = clock;
    points[1].params = params;
    points[1].clock.tUsefulFo4 = -1.0;
    std::vector<study::BenchJob> jobs{study::BenchJob::fromProfile(
        trace::spec2000Profile("164.gzip"))};
    EXPECT_THROW(runner.runGrid(points, jobs, smallSpec()),
                 util::ConfigError);
}
