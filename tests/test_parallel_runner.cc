/**
 * @file
 * The determinism contract of the grid executor (study/checkpoint.hh):
 * at every thread count and on either core implementation,
 * CheckpointedRunner must produce results bit-for-bit identical to the
 * serial runSuite on the reference cores — including the position and
 * typed error of failed rows when faults are injected.  Identity is
 * stated in terms of study::serializeSuite, which renders every field
 * (doubles in hexfloat) so no difference can hide in rounding.
 *
 * The suite names are those of the two executors CheckpointedRunner
 * replaced: ParallelRunner.* pins the runner on the reference cores and
 * BatchRunner.* on the batched cores.  Together the identity cases form
 * one matrix — both impls × threads 1/2/8 × {the 18 Table 2 profiles,
 * the faulty-jobs suite, a 4-point grid} — against one oracle, the
 * serial runSuite on the reference cores.
 */

#include <gtest/gtest.h>

#include <cstdio>
#include <fstream>
#include <string>
#include <vector>

#include "cacti/latency_cache.hh"
#include "study/checkpoint.hh"
#include "study/runner.hh"
#include "study/scaling.hh"
#include "trace/capture.hh"
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

/** A journalless grid runner on `threads` workers. */
study::CheckpointedRunner
runnerWith(int threads)
{
    study::CheckpointOptions options;
    options.threads = threads;
    return study::CheckpointedRunner(std::move(options));
}

/** The oracle: the plain serial runSuite loop on the reference cores,
 *  one serialized suite per t_useful. */
std::vector<std::string>
serialReference(const std::vector<double> &ts,
                const std::vector<study::BenchJob> &jobs)
{
    const auto spec = smallSpec();
    EXPECT_EQ(spec.impl, study::SimImpl::Reference);
    std::vector<std::string> reference;
    for (const double u : ts) {
        reference.push_back(study::serializeSuite(
            study::runSuite(study::scaledCoreParams(u, {}),
                            study::scaledClock(u), jobs, spec)));
    }
    return reference;
}

/** Sweep `ts` × `jobs` through the runner on `impl` at every thread
 *  count and require each point to equal the serial oracle. */
void
expectRunnerMatchesSerial(const std::vector<double> &ts,
                          const std::vector<study::BenchJob> &jobs,
                          study::SimImpl impl)
{
    const auto reference = serialReference(ts, jobs);
    auto spec = smallSpec();
    spec.impl = impl;
    for (const int threads : kThreadCounts) {
        const auto points =
            runnerWith(threads).sweepScaling(ts, {}, jobs, spec);
        ASSERT_EQ(points.size(), ts.size());
        for (std::size_t i = 0; i < points.size(); ++i) {
            EXPECT_EQ(points[i].tUseful, ts[i]);
            EXPECT_EQ(study::serializeSuite(points[i].suite), reference[i])
                << "impl=" << study::simImplName(impl)
                << " threads=" << threads << " t=" << ts[i];
        }
    }
}

/** The paper's full Table 2 suite, at one point. */
void
expectAllProfilesMatchSerial(study::SimImpl impl)
{
    const auto profiles = trace::spec2000Profiles();
    ASSERT_EQ(profiles.size(), 18u);
    expectRunnerMatchesSerial({6}, study::jobsFromProfiles(profiles), impl);
}

/** The 4-point vector-FP grid. */
void
expectGridMatchesSerial(study::SimImpl impl)
{
    expectRunnerMatchesSerial(
        {4, 6, 8, 11},
        study::jobsFromProfiles(
            trace::spec2000Profiles(trace::BenchClass::VectorFp)),
        impl);
}

/** Misconfiguration is refused before any cell runs. */
void
expectMisconfigurationThrows(study::SimImpl impl)
{
    auto runner = runnerWith(4);
    const auto params = study::scaledCoreParams(6.0, {});
    const auto clock = study::scaledClock(6.0);
    const std::vector<study::BenchJob> one{study::BenchJob::fromProfile(
        trace::spec2000Profile("164.gzip"))};
    auto spec = smallSpec();
    spec.impl = impl;

    EXPECT_THROW(runner.runGrid({{params, clock}}, {}, spec),
                 util::ConfigError);

    auto empty = spec;
    empty.instructions = 0;
    EXPECT_THROW(runner.runGrid({{params, clock}}, one, empty),
                 util::ConfigError);

    // An invalid *point* in a grid poisons the whole grid up front.
    std::vector<study::GridPoint> points(2, {params, clock});
    points[1].clock.tUsefulFo4 = -1.0;
    EXPECT_THROW(runner.runGrid(points, one, spec), util::ConfigError);
}

} // namespace

TEST(ParallelRunner, ThreadCountResolution)
{
    EXPECT_EQ(runnerWith(5).threads(), 5);
    EXPECT_EQ(runnerWith(1).threads(), 1);
    EXPECT_EQ(runnerWith(0).threads(), util::ThreadPool::hardwareThreads());
    EXPECT_EQ(runnerWith(-3).threads(),
              util::ThreadPool::hardwareThreads());
}

TEST(ParallelRunner, HealthySuiteByteIdenticalAtEveryThreadCount)
{
    expectAllProfilesMatchSerial(study::SimImpl::Reference);
}

TEST(ParallelRunner, FailedRowOrderingSurvivesParallelExecution)
{
    const auto corrupt = makeCorruptTrace("parallel_corrupt.fo4t");
    const auto jobs = faultyJobs(corrupt);

    // Sanity on the serial reference itself: three typed failures, in
    // job order, siblings unharmed.
    const auto serialSuite =
        study::runSuite(study::scaledCoreParams(6.0, {}),
                        study::scaledClock(6.0), jobs, smallSpec());
    const auto failures = serialSuite.failures();
    ASSERT_EQ(failures.size(), 3u);
    EXPECT_EQ(failures[0]->name, "corrupt-a");
    EXPECT_EQ(failures[0]->error.code(), util::ErrorCode::TraceCorrupt);
    EXPECT_EQ(failures[1]->name, "hung");
    EXPECT_EQ(failures[1]->error.code(), util::ErrorCode::Deadlock);
    EXPECT_EQ(failures[2]->name, "corrupt-b");
    EXPECT_EQ(serialSuite.succeeded(), 3u);

    expectRunnerMatchesSerial({6}, jobs, study::SimImpl::Reference);
    std::remove(corrupt.c_str());
}

TEST(ParallelRunner, SweepGridMatchesSerialPointByPoint)
{
    expectGridMatchesSerial(study::SimImpl::Reference);
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
    auto runner = runnerWith(1);

    (void)runner.sweepScaling(ts, {}, profiles, smallSpec());
    const auto first = cache.stats();
    EXPECT_GT(first.misses, 0u);
    EXPECT_GT(first.hits, 0u); // repeated structures within one sweep

    (void)runner.sweepScaling(ts, {}, profiles, smallSpec());
    const auto second = cache.stats();
    EXPECT_EQ(second.misses, first.misses) << "rerun recomputed latencies";
    EXPECT_GT(second.hits, first.hits);

    // clear() must forget entries *and* counters.
    cache.clear();
    const auto cleared = cache.stats();
    EXPECT_EQ(cleared.lookups(), 0u);
}

TEST(ParallelRunner, SuiteLevelMisconfigurationThrowsBeforeFanout)
{
    expectMisconfigurationThrows(study::SimImpl::Reference);
}

TEST(BatchRunner, AllProfilesByteIdenticalAtEveryThreadCount)
{
    expectAllProfilesMatchSerial(study::SimImpl::Batched);
}

TEST(BatchRunner, SweepGridMatchesSerialReferencePointByPoint)
{
    expectGridMatchesSerial(study::SimImpl::Batched);
}

TEST(BatchRunner, FaultRowsSurviveBatchedExecution)
{
    // Corrupt traces and watchdog trips must land in the same rows with
    // the same typed errors and messages as the serial reference —
    // through the decoded-trace registry, at every thread count.
    const auto corrupt = makeCorruptTrace("batch_corrupt.fo4t");
    expectRunnerMatchesSerial({6}, faultyJobs(corrupt),
                              study::SimImpl::Batched);
    std::remove(corrupt.c_str());
}

TEST(BatchRunner, MisconfigurationThrowsBeforeFanout)
{
    expectMisconfigurationThrows(study::SimImpl::Batched);
}
