/**
 * @file
 * The byte-identity contract of the batched core implementations
 * (DESIGN.md §14): on every input — randomized core geometries, both
 * pipeline models, every predictor, fault injection, watchdog trips, a
 * run after a cancelled one — SimImpl::Batched must produce results
 * bit-for-bit identical to SimImpl::Reference.  Identity is stated in
 * terms of study::serializeSuite, which renders every result field
 * (doubles in hexfloat) plus each failed row's error code name AND
 * message, so a divergent deadlock dump or error text fails the same
 * assertion a divergent cycle count does.
 */

#include <gtest/gtest.h>

#include <cstdio>
#include <fstream>
#include <string>
#include <vector>

#include "study/checkpoint.hh"
#include "study/goldengen.hh"
#include "study/runner.hh"
#include "study/scaling.hh"
#include "trace/capture.hh"
#include "trace/decoded_trace.hh"
#include "trace/generator.hh"
#include "trace/spec2000.hh"
#include "util/cancel.hh"
#include "util/random.hh"
#include "util/status.hh"

using namespace fo4;
using fo4::util::Rng;

namespace
{

/** Small but non-trivial run: long enough to fill windows, trip
 *  mispredict shadows and miss in both cache levels. */
study::RunSpec
baseSpec()
{
    study::RunSpec spec;
    spec.instructions = 1500;
    spec.warmup = 200;
    spec.prewarm = 5000;
    spec.cycleLimit = 2000000; // fail fast instead of hanging ctest
    return spec;
}

/** Serialize the outcome of one job under the given implementation. */
std::string
runOne(const core::CoreParams &params, const tech::ClockModel &clock,
       const study::BenchJob &job, study::RunSpec spec,
       study::SimImpl impl, core::SimResult *sim = nullptr)
{
    spec.impl = impl;
    study::SuiteResult suite;
    suite.benchmarks.push_back(
        study::runJobIsolated(params, clock, job, spec));
    if (sim != nullptr)
        *sim = suite.benchmarks.front().sim;
    if (!suite.benchmarks.front().failed()) {
        // Satellite invariant: the per-cause stall counts partition
        // stallCycles exactly, under either implementation.
        EXPECT_EQ(suite.benchmarks.front().sim.stalls.total(),
                  suite.benchmarks.front().sim.stallCycles)
            << job.name << " impl=" << study::simImplName(impl);
    }
    return study::serializeSuite(suite);
}

/** A random but always-valid core geometry, biased toward small
 *  structures so stalls, shadows and structural blocks all trigger. */
core::CoreParams
randomParams(Rng &rng)
{
    core::CoreParams p = core::CoreParams::alpha21264();
    p.fetchWidth = 1 + static_cast<int>(rng.below(6));
    p.renameWidth = 1 + static_cast<int>(rng.below(6));
    p.commitWidth = 1 + static_cast<int>(rng.below(8));
    p.intIssueWidth = 1 + static_cast<int>(rng.below(4));
    p.fpIssueWidth = static_cast<int>(rng.below(4)); // 0 is legal
    p.memIssueWidth = 1 + static_cast<int>(rng.below(3));
    p.robSize = 8 + static_cast<int>(rng.below(120));
    p.lsqSize = 1 + static_cast<int>(rng.below(48));
    p.fetchQueueSize = 1 + static_cast<int>(rng.below(32));
    p.window.capacity = 2 + static_cast<int>(rng.below(31));
    // Every stage count CoreParams::validate accepts: Fig 11 runs 10.
    p.window.wakeupStages =
        1 + static_cast<int>(rng.below(p.window.capacity));
    p.window.select = rng.chance(0.5) ? core::SelectModel::Partitioned
                                      : core::SelectModel::Full;
    p.fetchStages = 1 + static_cast<int>(rng.below(5));
    p.decodeStages = static_cast<int>(rng.below(4)); // 0 is legal
    p.renameStages = 1 + static_cast<int>(rng.below(3));
    p.regReadStages = 1 + static_cast<int>(rng.below(3));
    p.commitStages = 1 + static_cast<int>(rng.below(3));
    p.issueLatency = 1 + static_cast<int>(rng.below(3));
    p.extraMispredictPenalty = static_cast<int>(rng.below(4));
    p.extraLoadUse = static_cast<int>(rng.below(3));
    p.extraWakeup = static_cast<int>(rng.below(3));
    if (rng.chance(0.25))
        p.memoryMode = mem::MemoryMode::Flat;
    if (rng.chance(0.5)) {
        // Tiny caches: misses (and bus queueing) inside the window.
        p.dl1 = mem::CacheParams{8 * 1024, 32, 2};
        p.l2 = mem::CacheParams{128 * 1024, 64, 4};
    }
    return p;
}

const char *const kPredictors[] = {"taken", "bimodal", "gshare", "local",
                                   "tournament", "perfect"};

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

/** One run's statistics as a serialized suite row. */
std::string
simRow(const trace::BenchmarkProfile &profile, const core::SimResult &sim)
{
    study::SuiteResult suite;
    suite.benchmarks.emplace_back();
    suite.benchmarks.back().name = profile.name;
    suite.benchmarks.back().cls = profile.cls;
    suite.benchmarks.back().sim = sim;
    return study::serializeSuite(suite);
}

/**
 * A pre-cancelled batched run, on a decoded view with shared warm
 * start, must throw CancelledError naming `modelName`.  The same core
 * object must then serve a plain trace source byte-identically to the
 * reference core: the cancelled run left neither pipeline state nor a
 * pointer to its (now destroyed) view behind.
 */
void
expectCancelLeavesCoreReusable(study::CoreModel model,
                               const std::string &modelName)
{
    const auto profile = trace::spec2000Profile("164.gzip");
    const auto params = study::scaledCoreParams(6.0, {});
    auto spec = baseSpec();
    spec.model = model;
    spec.impl = study::SimImpl::Batched;
    const auto batched = study::makeCore(params, spec);
    spec.impl = study::SimImpl::Reference;
    const auto reference = study::makeCore(params, spec);

    util::CancelToken cancel;
    cancel.requestCancel();
    {
        const auto view =
            trace::DecodedTraceRegistry::global().viewForProfile(profile);
        try {
            batched->run(*view, spec.instructions, spec.warmup,
                         spec.prewarm, spec.cycleLimit, &cancel);
            ADD_FAILURE() << modelName << ": a cancelled run returned";
        } catch (const util::CancelledError &e) {
            EXPECT_EQ(std::string(e.what()).rfind(
                          modelName + " simulation cancelled at cycle", 0),
                      0u)
                << e.what();
        }
    }

    trace::SyntheticTraceGenerator batchedGen(profile);
    trace::SyntheticTraceGenerator referenceGen(profile);
    EXPECT_EQ(simRow(profile, batched->run(batchedGen, spec.instructions,
                                           spec.warmup, spec.prewarm)),
              simRow(profile, reference->run(referenceGen,
                                             spec.instructions,
                                             spec.warmup, spec.prewarm)));
}

} // namespace

TEST(CoreDifferential, CancelledInorderRunLeavesTheCoreReusable)
{
    expectCancelLeavesCoreReusable(study::CoreModel::InOrder, "in-order");
}

TEST(CoreDifferential, CancelledOooRunLeavesTheCoreReusable)
{
    expectCancelLeavesCoreReusable(study::CoreModel::OutOfOrder,
                                   "out-of-order");
}

TEST(CoreDifferential, RandomizedConfigsAreByteIdentical)
{
    const auto profiles = trace::spec2000Profiles();
    ASSERT_FALSE(profiles.empty());
    const auto clock = study::scaledClock(6.0);
    Rng rng(20260809);

    for (int iter = 0; iter < 48; ++iter) {
        const auto params = randomParams(rng);
        auto spec = baseSpec();
        spec.model = rng.chance(0.5) ? study::CoreModel::OutOfOrder
                                     : study::CoreModel::InOrder;
        spec.predictor =
            kPredictors[rng.below(std::size(kPredictors))];
        if (rng.chance(0.25))
            spec.prewarm = 0; // cold-start path, no warm-state cache
        const auto job = study::BenchJob::fromProfile(
            profiles[rng.below(profiles.size())]);

        const auto reference =
            runOne(params, clock, job, spec, study::SimImpl::Reference);
        const auto batched =
            runOne(params, clock, job, spec, study::SimImpl::Batched);
        ASSERT_EQ(batched, reference)
            << "iter=" << iter << " model="
            << (spec.model == study::CoreModel::OutOfOrder ? "ooo"
                                                           : "inorder")
            << " predictor=" << spec.predictor << " job=" << job.name;

        // A second batched run hits the decoded-trace and warm-state
        // caches; reuse must not perturb a single byte either.
        const auto again =
            runOne(params, clock, job, spec, study::SimImpl::Batched);
        ASSERT_EQ(again, reference) << "iter=" << iter << " (cache reuse)";
    }
}

TEST(CoreDifferential, ClockPeriodSweepColumnIsByteIdentical)
{
    // The batched path's home ground: one benchmark across every clock
    // period of a sweep — shared decoded stream, shared prewarm state.
    const auto job = study::BenchJob::fromProfile(
        trace::spec2000Profile("179.art"));
    const auto spec = baseSpec();
    for (const double u : {3.0, 4.0, 6.0, 8.0, 12.0, 17.4}) {
        const auto params = study::scaledCoreParams(u, {});
        const auto clock = study::scaledClock(u);
        const auto reference =
            runOne(params, clock, job, spec, study::SimImpl::Reference);
        const auto batched =
            runOne(params, clock, job, spec, study::SimImpl::Batched);
        EXPECT_EQ(batched, reference) << "t_useful=" << u;
    }

    // Guard against the batched path silently degrading to reference:
    // a batched run must have materialized its stream in the registry.
    EXPECT_GE(trace::DecodedTraceRegistry::global().size(), 1u);
}

TEST(CoreDifferential, SegmentedWindowColumnIsByteIdentical)
{
    // The deepest segmented window a bench runs (Fig 11's 10 stages)
    // under Fig 12's partitioned select, where a source's wakeup cycle
    // depends on the stage its consumer holds when the producer issues.
    study::ScalingOptions options;
    options.windowEntries = 32;
    options.window.wakeupStages = 10;
    options.window.select = core::SelectModel::Partitioned;
    const auto spec = baseSpec();
    for (const char *bench : {"179.art", "164.gzip"}) {
        const auto job =
            study::BenchJob::fromProfile(trace::spec2000Profile(bench));
        for (const double u : {3.0, 6.0, 12.0}) {
            const auto params = study::scaledCoreParams(u, options);
            const auto clock = study::scaledClock(u);
            const auto reference = runOne(params, clock, job, spec,
                                          study::SimImpl::Reference);
            const auto batched =
                runOne(params, clock, job, spec, study::SimImpl::Batched);
            EXPECT_EQ(batched, reference)
                << bench << " t_useful=" << u;
        }
    }
}

TEST(CoreDifferential, WatchdogDumpsAreByteIdentical)
{
    // A deadlocked run serializes its DeadlockError dump into the row's
    // error message; the batched implementation (including its bulk
    // span accounting against the cycle limit) must reproduce the dump
    // text exactly.
    const auto clock = study::scaledClock(6.0);

    // Out-of-order: a watchdog budget far too small for the run.
    {
        auto hung = study::BenchJob::fromProfile(
            trace::spec2000Profile("164.gzip"));
        hung.name = "hung-ooo";
        hung.cycleLimit = 20;
        const auto params = study::scaledCoreParams(6.0, {});
        const auto reference = runOne(params, clock, hung, baseSpec(),
                                      study::SimImpl::Reference);
        const auto batched = runOne(params, clock, hung, baseSpec(),
                                    study::SimImpl::Batched);
        EXPECT_EQ(batched, reference);
        EXPECT_NE(reference.find("Deadlock"), std::string::npos);
    }

    // In-order with fpIssueWidth == 0 and a floating-point benchmark:
    // the head op can never issue, so the core spins on a structural
    // stall until the watchdog fires — the batched core covers this
    // very span with its bulk-skip path.
    {
        auto params = study::scaledCoreParams(6.0, {});
        params.fpIssueWidth = 0;
        auto job = study::BenchJob::fromProfile(
            trace::spec2000Profile("171.swim"));
        job.name = "fp-starved";
        job.cycleLimit = 5000;
        auto spec = baseSpec();
        spec.model = study::CoreModel::InOrder;
        core::SimResult refSim, batSim;
        const auto reference = runOne(params, clock, job, spec,
                                      study::SimImpl::Reference, &refSim);
        const auto batched = runOne(params, clock, job, spec,
                                    study::SimImpl::Batched, &batSim);
        EXPECT_EQ(batched, reference);
        EXPECT_NE(reference.find("Deadlock"), std::string::npos);
    }
}

TEST(CoreDifferential, FaultRowsAreByteIdentical)
{
    // Trace-load faults surface through the decoded-trace registry with
    // the reference path's exact typed error and message — and are
    // never cached as failures.
    const auto corrupt = makeCorruptTrace("differential_corrupt.fo4t");
    const auto params = study::scaledCoreParams(6.0, {});
    const auto clock = study::scaledClock(6.0);
    const auto job = study::BenchJob::fromTraceFile(
        "corrupt", trace::BenchClass::Integer, corrupt);

    const auto reference =
        runOne(params, clock, job, baseSpec(), study::SimImpl::Reference);
    for (int attempt = 0; attempt < 2; ++attempt) {
        const auto batched = runOne(params, clock, job, baseSpec(),
                                    study::SimImpl::Batched);
        EXPECT_EQ(batched, reference) << "attempt=" << attempt;
    }
    EXPECT_NE(reference.find("TraceCorrupt"), std::string::npos);

    // A missing file is transient (RetryPolicy retries TraceIo): the
    // registry must re-attempt the load each call, so creating the file
    // after a failed batched lookup must let the next lookup succeed.
    const std::string ghost =
        std::string(::testing::TempDir()) + "/differential_ghost.fo4t";
    std::remove(ghost.c_str());
    const auto ghostJob = study::BenchJob::fromTraceFile(
        "ghost", trace::BenchClass::Integer, ghost);
    auto spec = baseSpec();
    spec.impl = study::SimImpl::Batched;
    const auto missing =
        study::runJobIsolated(params, clock, ghostJob, spec);
    ASSERT_TRUE(missing.failed());
    EXPECT_EQ(missing.error.code(), util::ErrorCode::TraceIo);

    auto prof = trace::spec2000Profile("164.gzip");
    trace::SyntheticTraceGenerator gen(prof);
    trace::recordTrace(ghost, gen, 512);
    const auto found = study::runJobIsolated(params, clock, ghostJob, spec);
    EXPECT_FALSE(found.failed())
        << "registry cached a transient load failure: "
        << found.error.toString();

    std::remove(corrupt.c_str());
    std::remove(ghost.c_str());
}

TEST(CoreDifferential, SimImplNamesRoundTrip)
{
    EXPECT_STREQ(study::simImplName(study::SimImpl::Reference),
                 "reference");
    EXPECT_STREQ(study::simImplName(study::SimImpl::Batched), "batched");
    EXPECT_EQ(study::simImplFromName("reference"),
              study::SimImpl::Reference);
    EXPECT_EQ(study::simImplFromName("batched"), study::SimImpl::Batched);
    EXPECT_THROW(study::simImplFromName("fast"), util::ConfigError);
}

TEST(CoreDifferential, RecordedReplaySweepIsByteIdentical)
{
    // Tentpole acceptance: a sweep replayed from a capture file is
    // byte-identical to the live sweep it was recorded from — under
    // both implementations and at 1 and 8 worker threads.
    const std::string path = std::string(::testing::TempDir()) +
                             "/differential_replay.fo4cap";
    study::CaptureRequest request;
    request.profile = trace::spec2000Profile("164.gzip");
    request.params = core::CoreParams::alpha21264();
    request.spec = baseSpec();
    const auto info = study::recordCapture(path, request);
    EXPECT_GE(info.retiredOps, static_cast<std::uint64_t>(
                                   request.spec.warmup +
                                   request.spec.instructions));
    EXPECT_GE(info.capturedOps, info.retiredOps + request.margin);

    std::vector<study::GridPoint> points;
    for (const double u : {6.0, 8.0})
        points.push_back({study::scaledCoreParams(u, {}),
                          study::scaledClock(u)});
    const auto liveJob = study::BenchJob::fromProfile(request.profile);
    const auto replayJob = study::BenchJob::fromTraceFile(
        liveJob.name, trace::BenchClass::Integer, path);

    const auto sweep = [&points](const study::BenchJob &job,
                                 study::SimImpl impl, int threads) {
        study::RunSpec spec = baseSpec();
        spec.impl = impl;
        study::CheckpointOptions options;
        options.threads = threads;
        const auto suites = study::CheckpointedRunner(std::move(options))
                                .runGrid(points, {job}, spec);
        std::string out;
        for (const auto &suite : suites)
            out += study::serializeSuite(suite);
        return out;
    };

    const auto live = sweep(liveJob, study::SimImpl::Reference, 1);
    ASSERT_NE(live.find("|Ok|"), std::string::npos) << live;
    for (const auto impl :
         {study::SimImpl::Reference, study::SimImpl::Batched}) {
        for (const int threads : {1, 8}) {
            EXPECT_EQ(sweep(liveJob, impl, threads), live)
                << "live impl=" << study::simImplName(impl)
                << " threads=" << threads;
            EXPECT_EQ(sweep(replayJob, impl, threads), live)
                << "replay impl=" << study::simImplName(impl)
                << " threads=" << threads;
        }
    }
    std::remove(path.c_str());
}

TEST(CoreDifferential, DirectTraceSourceMatchesReference)
{
    // The batched cores also accept a plain TraceSource — the path
    // capture recording uses, with no decoded view and no shared warm
    // state.  The streaming fallback must produce the same statistics.
    auto prof = trace::spec2000Profile("176.gcc");
    const auto params = core::CoreParams::alpha21264();
    for (const bool ooo : {false, true}) {
        trace::SyntheticTraceGenerator refGen(prof);
        trace::SyntheticTraceGenerator batGen(prof);
        auto ref = ooo ? core::makeOooCore(params, "tournament")
                       : core::makeInorderCore(params, "tournament");
        auto bat = ooo ? core::makeBatchedOooCore(params, "tournament")
                       : core::makeBatchedInorderCore(params, "tournament");
        const auto a = ref->run(refGen, 2000, 250, 20000);
        const auto b = bat->run(batGen, 2000, 250, 20000);
        EXPECT_EQ(a.instructions, b.instructions) << "ooo=" << ooo;
        EXPECT_EQ(a.cycles, b.cycles) << "ooo=" << ooo;
        EXPECT_EQ(a.branches, b.branches) << "ooo=" << ooo;
        EXPECT_EQ(a.mispredicts, b.mispredicts) << "ooo=" << ooo;
        EXPECT_EQ(a.dl1Misses, b.dl1Misses) << "ooo=" << ooo;
        EXPECT_EQ(a.l2Misses, b.l2Misses) << "ooo=" << ooo;
        EXPECT_EQ(a.stallCycles, b.stallCycles) << "ooo=" << ooo;
        for (int i = 0; i < core::numStallCauses; ++i)
            EXPECT_EQ(a.stalls.byCause[i], b.stalls.byCause[i])
                << "ooo=" << ooo << " cause=" << i;
        EXPECT_EQ(a.occupancy.frontSum, b.occupancy.frontSum);
        EXPECT_EQ(a.occupancy.windowSum, b.occupancy.windowSum);
        EXPECT_EQ(a.occupancy.robSum, b.occupancy.robSum);
        EXPECT_EQ(a.occupancy.lsqSum, b.occupancy.lsqSum);
    }
}
