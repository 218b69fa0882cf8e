/**
 * @file
 * Tests of the process-variation Monte Carlo subsystem (DESIGN.md §17):
 * the statistical identity contract (zero-sigma MC *is* the
 * deterministic sweep, byte for byte; nonzero-sigma runs are
 * byte-identical at any thread count and across kill/resume), the
 * sampling model's invariants (pure-function draws, lognormal
 * positivity, typed rejection of absurd sigmas), simulation sharing
 * (each die priced from its point's one simulation, byte-identical to
 * simulating it, failures never shared), and the paper-level property
 * the subsystem exists to compute: variation pushes the yield-weighted
 * optimum toward shallower pipelines.
 */

#include <gtest/gtest.h>

#include <atomic>
#include <chrono>
#include <cstdio>
#include <map>
#include <mutex>
#include <string>
#include <vector>

#include "study/checkpoint.hh"
#include "study/montecarlo.hh"
#include "study/parallel.hh"
#include "study/runner.hh"
#include "study/scaling.hh"
#include "trace/spec2000.hh"
#include "trace/trace.hh"
#include "util/journal.hh"
#include "util/logging.hh"
#include "util/metrics.hh"
#include "util/status.hh"

using namespace fo4;

namespace
{

/** Pinned seed-0 aggregate band (see GoldenPinSeedZeroAggregates). */
constexpr const char *kGoldenSeedZero =
    "mean=0x1.1b11a3090f24p+1 sd=0x1.2a27031fb4d98p-6 "
    "p5=0x1.17cbd0894f329p+1 p95=0x1.1d4771f8b0432p+1 yield=0x1p+0";

std::string
tempPath(const std::string &name)
{
    const std::string path =
        std::string(::testing::TempDir()) + "/" + name;
    std::remove(path.c_str());
    return path;
}

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

std::vector<study::BenchJob>
twoJobs()
{
    return {study::BenchJob::fromProfile(
                trace::spec2000Profile("164.gzip")),
            study::BenchJob::fromProfile(
                trace::spec2000Profile("181.mcf"))};
}

study::VariationModel
someVariation(int samples = 3)
{
    study::VariationModel v;
    v.sigmaLatch = 0.08;
    v.sigmaSkew = 0.02;
    v.sigmaJitter = 0.03;
    v.sigmaDie = 0.05;
    v.seed = 42;
    v.samples = samples;
    return v;
}

/** Canonical byte rendering of a whole MC result: every die's clock and
 *  suite, every aggregate band, doubles in hexfloat.  Two results are
 *  bit-identical iff these strings compare equal. */
std::string
serializeMc(const study::McSweepResult &r)
{
    std::string out;
    for (const auto &die : r.samples) {
        for (const auto &pt : die) {
            out += util::strprintf(
                "die t=%a latch=%a skew=%a jitter=%a\n", pt.tUseful,
                pt.clock.overhead.latchFo4, pt.clock.overhead.skewFo4,
                pt.clock.overhead.jitterFo4);
            out += study::serializeSuite(pt.suite);
        }
    }
    for (const auto &pt : r.points) {
        out += util::strprintf(
            "agg t=%a stages=%d mean=%a sd=%a p5=%a p95=%a yield=%a\n",
            pt.tUseful, pt.stages, pt.all.meanBips, pt.all.stddevBips,
            pt.all.p5Bips, pt.all.p95Bips, pt.yield);
    }
    return out;
}

/** The base grid MonteCarloRunner derives for `ts`. */
std::vector<study::GridPoint>
baseGrid(const std::vector<double> &ts)
{
    std::vector<study::GridPoint> base;
    for (const double t : ts) {
        base.push_back({study::scaledCoreParams(t, {}),
                        study::scaledClock(t, tech::OverheadModel{})});
    }
    return base;
}

/** serializeSuite of every point, in grid order. */
std::string
serializeGrid(const std::vector<study::SuiteResult> &suites)
{
    std::string out;
    for (const auto &suite : suites)
        out += study::serializeSuite(suite);
    return out;
}

} // namespace

// ---------------------------------------------------------------------
// The sampling model
// ---------------------------------------------------------------------

TEST(McSampling, DeeperPipelinesHaveMoreStages)
{
    const int deep = study::pipelineStageCount(study::scaledCoreParams(2));
    const int mid = study::pipelineStageCount(study::scaledCoreParams(6));
    const int shallow =
        study::pipelineStageCount(study::scaledCoreParams(16));
    EXPECT_GT(deep, mid);
    EXPECT_GT(mid, shallow);
    EXPECT_GE(shallow, 7); // seven pipeline segments, one cycle minimum
}

TEST(McSampling, OverheadIsAPureFunctionOfCoordinates)
{
    const auto v = someVariation();
    const auto nominal = tech::OverheadModel::paperDefault();
    const auto a = study::sampleOverhead(v, nominal, 12, 3, 1);
    const auto b = study::sampleOverhead(v, nominal, 12, 3, 1);
    EXPECT_EQ(a.latchFo4, b.latchFo4);
    EXPECT_EQ(a.skewFo4, b.skewFo4);
    EXPECT_EQ(a.jitterFo4, b.jitterFo4);

    // Different point or sample coordinates draw different dice.
    const auto otherPoint = study::sampleOverhead(v, nominal, 12, 4, 1);
    const auto otherDie = study::sampleOverhead(v, nominal, 12, 3, 2);
    EXPECT_NE(a.totalFo4(), otherPoint.totalFo4());
    EXPECT_NE(a.totalFo4(), otherDie.totalFo4());
}

TEST(McSampling, ZeroSigmaReturnsNominalBitExact)
{
    study::VariationModel v;
    v.samples = 8;
    v.seed = 99; // seed is irrelevant at sigma zero
    const auto nominal = tech::OverheadModel::paperDefault();
    for (std::size_t p = 0; p < 4; ++p) {
        for (std::size_t s = 0; s < 4; ++s) {
            const auto m = study::sampleOverhead(v, nominal, 20, p, s);
            EXPECT_EQ(m.latchFo4, nominal.latchFo4);
            EXPECT_EQ(m.skewFo4, nominal.skewFo4);
            EXPECT_EQ(m.jitterFo4, nominal.jitterFo4);
        }
    }
}

TEST(McSampling, WorstStageGrowsWithStageCount)
{
    // More stages, more draws under the max: the expected worst-stage
    // overhead must not shrink as the pipeline deepens.  Averaged over
    // dice to wash out per-die noise.
    const auto v = someVariation(64);
    const auto nominal = tech::OverheadModel::paperDefault();
    double few = 0.0, many = 0.0;
    for (std::size_t s = 0; s < 64; ++s) {
        few += study::sampleOverhead(v, nominal, 8, 0, s).totalFo4();
        many += study::sampleOverhead(v, nominal, 40, 0, s).totalFo4();
    }
    EXPECT_GT(many / 64.0, few / 64.0);
}

TEST(McSampling, LognormalDrawsStayPositive)
{
    study::VariationModel v;
    v.dist = study::McDist::Lognormal;
    v.sigmaLatch = 1.5; // wild, but lognormal cannot go negative
    v.sigmaSkew = 1.5;
    v.sigmaJitter = 1.5;
    v.sigmaDie = 1.0;
    v.seed = 7;
    v.samples = 50;
    const auto nominal = tech::OverheadModel::paperDefault();
    for (std::size_t s = 0; s < 50; ++s) {
        const auto m = study::sampleOverhead(v, nominal, 25, 0, s);
        EXPECT_GT(m.latchFo4, 0.0);
        EXPECT_GT(m.skewFo4, 0.0);
        EXPECT_GT(m.jitterFo4, 0.0);
    }
}

TEST(McSampling, AbsurdNormalSigmaIsATypedError)
{
    // A normal sigma that makes negative overheads routine exhausts the
    // deterministic rejection budget and is refused with ConfigError —
    // never silently clamped.
    study::VariationModel v;
    v.sigmaLatch = 100.0;
    v.seed = 5;
    v.samples = 1;
    const auto nominal = tech::OverheadModel::paperDefault();
    EXPECT_THROW(study::sampleOverhead(v, nominal, 20, 0, 0),
                 util::ConfigError);
}

TEST(McSampling, ValidateReportsEveryBadFieldAtOnce)
{
    study::VariationModel v;
    v.sigmaLatch = -1.0;
    v.sigmaDie = -0.5;
    v.samples = 0;
    const util::Status st = v.validate();
    ASSERT_FALSE(st.isOk());
    EXPECT_NE(st.message().find("mc_sigma_latch"), std::string::npos);
    EXPECT_NE(st.message().find("mc_sigma_die"), std::string::npos);
    EXPECT_NE(st.message().find("mc_samples"), std::string::npos);
}

TEST(McSampling, ExpandedGridIsSampleMajor)
{
    std::vector<study::GridPoint> base;
    for (const double u : {8.0, 6.0}) {
        base.push_back({study::scaledCoreParams(u),
                        study::scaledClock(u)});
    }
    const auto expanded =
        study::expandMonteCarloGrid(base, someVariation(3));
    ASSERT_EQ(expanded.size(), 6u);
    for (std::size_t s = 0; s < 3; ++s) {
        EXPECT_EQ(expanded[s * 2 + 0].clock.tUsefulFo4, 8.0);
        EXPECT_EQ(expanded[s * 2 + 1].clock.tUsefulFo4, 6.0);
        // Core parameters are untouched — only the clock varies.
        EXPECT_EQ(expanded[s * 2 + 0].params.fetchStages,
                  base[0].params.fetchStages);
    }
    // Dice differ across samples at the same base point.
    EXPECT_NE(expanded[0].clock.overhead.totalFo4(),
              expanded[2].clock.overhead.totalFo4());
}

TEST(McSampling, ZeroSigmaSingleSampleExpansionIsTheBaseGrid)
{
    std::vector<study::GridPoint> base;
    for (const double u : {8.0, 6.0}) {
        base.push_back({study::scaledCoreParams(u),
                        study::scaledClock(u)});
    }
    study::VariationModel v; // all sigmas zero, samples = 1
    const auto expanded = study::expandMonteCarloGrid(base, v);
    ASSERT_EQ(expanded.size(), base.size());
    // Identical inputs fingerprint identically: a zero-sigma MC journal
    // is resumable as (and by) the deterministic sweep.
    const auto jobs = twoJobs();
    const auto spec = smallSpec();
    EXPECT_EQ(study::gridFingerprint(base, jobs, spec),
              study::gridFingerprint(expanded, jobs, spec));
}

// ---------------------------------------------------------------------
// The runner: statistical identity contract
// ---------------------------------------------------------------------

TEST(McRunner, ZeroSigmaReproducesTheDeterministicSweepBitExact)
{
    const std::vector<double> ts = {8.0, 6.0};
    const auto jobs = twoJobs();
    const auto spec = smallSpec();

    const auto det =
        study::sweepScaling(ts, study::SweepOptions{}, jobs, spec);

    study::McOptions mopts;
    mopts.variation.samples = 2; // several dice, all identical
    study::MonteCarloRunner runner(mopts);
    const auto mc = runner.run(ts, jobs, spec);

    ASSERT_EQ(mc.samples.size(), 2u);
    for (const auto &die : mc.samples) {
        ASSERT_EQ(die.size(), det.size());
        for (std::size_t p = 0; p < det.size(); ++p) {
            EXPECT_EQ(die[p].clock.periodFo4(), det[p].clock.periodFo4());
            EXPECT_EQ(study::serializeSuite(die[p].suite),
                      study::serializeSuite(det[p].suite));
        }
    }
    // The aggregates collapse onto the deterministic curve bit-exactly:
    // Welford over identical values is exact, P2 markers never move.
    ASSERT_EQ(mc.points.size(), det.size());
    for (std::size_t p = 0; p < det.size(); ++p) {
        const double bips = det[p].suite.harmonicBipsAll();
        EXPECT_EQ(mc.points[p].all.meanBips, bips);
        EXPECT_EQ(mc.points[p].all.stddevBips, 0.0);
        EXPECT_EQ(mc.points[p].all.p5Bips, bips);
        EXPECT_EQ(mc.points[p].all.p95Bips, bips);
        EXPECT_EQ(mc.points[p].yield, 1.0);
        EXPECT_EQ(mc.points[p].integer.meanBips,
                  det[p].suite.harmonicBips(trace::BenchClass::Integer));
    }
}

TEST(McRunner, ByteIdenticalAtAnyThreadCount)
{
    const std::vector<double> ts = {8.0, 6.0};
    const auto jobs = twoJobs();
    const auto spec = smallSpec();

    std::string first;
    for (const int threads : {1, 2, 8}) {
        study::McOptions mopts;
        mopts.variation = someVariation(3);
        mopts.threads = threads;
        study::MonteCarloRunner runner(mopts);
        const std::string bytes = serializeMc(runner.run(ts, jobs, spec));
        if (first.empty())
            first = bytes;
        else
            EXPECT_EQ(first, bytes) << "jobs=" << threads;
    }
}

TEST(McRunner, KillAndResumeReplayIsByteIdentical)
{
    const std::vector<double> ts = {8.0, 6.0};
    const auto jobs = twoJobs();
    const auto spec = smallSpec();

    // The uninterrupted reference.
    study::McOptions ref;
    ref.variation = someVariation(3);
    study::MonteCarloRunner refRunner(ref);
    const std::string expected =
        serializeMc(refRunner.run(ts, jobs, spec));

    // Same run, cancelled as its fourth cell begins.
    const std::string journal = tempPath("mc_resume.journal");
    util::CancelToken cancel;
    int started = 0;
    study::McOptions interrupted;
    interrupted.variation = someVariation(3);
    interrupted.journalPath = journal;
    interrupted.cancel = &cancel;
    interrupted.onAttempt = [&](std::size_t, std::size_t, int) {
        if (++started == 4)
            cancel.requestCancel();
    };
    study::MonteCarloRunner killed(interrupted);
    EXPECT_THROW(killed.run(ts, jobs, spec), util::CancelledError);

    // Resume from the journal; the replayed cells plus the freshly
    // simulated remainder must be byte-identical to the reference.
    study::McOptions resumed;
    resumed.variation = someVariation(3);
    resumed.journalPath = journal;
    study::MonteCarloRunner resumer(resumed);
    const auto result = resumer.run(ts, jobs, spec);
    EXPECT_TRUE(resumer.report().resumed);
    EXPECT_GT(resumer.report().replayedCells, 0u);
    EXPECT_EQ(expected, serializeMc(result));
    std::remove(journal.c_str());
}

// ---------------------------------------------------------------------
// The result the subsystem exists to compute
// ---------------------------------------------------------------------

TEST(McRunner, VariationPushesTheOptimumNoDeeper)
{
    // Fig 5's deterministic optimum against the yield-weighted one:
    // with per-stage variation, deeper pipelines clock at the worst of
    // more draws, so the optimum may only move to shallower (>= FO4)
    // pipelines, never deeper.  Deterministic at this seed.
    const std::vector<double> ts = {4.0, 6.0, 8.0};
    const std::vector<study::BenchJob> jobs = {
        study::BenchJob::fromProfile(trace::spec2000Profile("164.gzip"))};
    const auto spec = smallSpec();

    study::McOptions zero;
    zero.variation.samples = 1; // sigma 0: the deterministic curve
    study::MonteCarloRunner zeroRunner(zero);
    const double detOpt =
        zeroRunner.run(ts, jobs, spec).optimumTUseful();

    study::McOptions noisy;
    noisy.variation = someVariation(12);
    noisy.variation.sigmaLatch = 0.30;
    noisy.variation.sigmaDie = 0.20;
    study::MonteCarloRunner noisyRunner(noisy);
    const double mcOpt =
        noisyRunner.run(ts, jobs, spec).optimumTUseful();

    EXPECT_GE(mcOpt, detOpt);
}

TEST(McRunner, GoldenPinSeedZeroAggregates)
{
    // Golden pin of the seed-0 yield-weighted aggregate at one grid
    // cell.  Guards the whole statistical stack at once: RandomStream
    // mixing, Irwin-Hall normals, worst-stage sampling, Welford and P2
    // aggregation.  A change here is a deliberate identity break: bump
    // DESIGN.md §17 and regenerate every MC golden together.
    const std::vector<double> ts = {6.0};
    const std::vector<study::BenchJob> jobs = {
        study::BenchJob::fromProfile(trace::spec2000Profile("164.gzip"))};
    const auto spec = smallSpec();

    study::McOptions mopts;
    mopts.variation = someVariation(4);
    mopts.variation.seed = 0;
    study::MonteCarloRunner runner(mopts);
    const auto result = runner.run(ts, jobs, spec);
    ASSERT_EQ(result.points.size(), 1u);
    const auto &pt = result.points[0];
    const std::string got = util::strprintf(
        "mean=%a sd=%a p5=%a p95=%a yield=%a", pt.all.meanBips,
        pt.all.stddevBips, pt.all.p5Bips, pt.all.p95Bips, pt.yield);
    EXPECT_EQ(got, std::string(kGoldenSeedZero));
}

// ---------------------------------------------------------------------
// Simulation sharing: one simulation per (point, job), every die priced
// ---------------------------------------------------------------------

TEST(McSharing, DiceOfOneGridMatchEachDieRunAlone)
{
    // Run alone, a die's grid has no repeated CoreParams, so every one
    // of its cells is simulated; inside the 8-dice grid, dice 1..7 are
    // priced from die 0.  The bytes must not tell the two apart.
    const auto base = baseGrid({8.0, 6.0});
    const auto expanded =
        study::expandMonteCarloGrid(base, someVariation(8));
    const auto jobs = twoJobs();
    const auto spec = smallSpec();

    std::string alone;
    for (std::size_t s = 0; s < 8; ++s) {
        const std::vector<study::GridPoint> die(
            expanded.begin() + static_cast<std::ptrdiff_t>(s * base.size()),
            expanded.begin() +
                static_cast<std::ptrdiff_t>((s + 1) * base.size()));
        study::CheckpointedRunner runner({});
        alone += serializeGrid(runner.runGrid(die, jobs, spec));
        EXPECT_EQ(runner.report().sharedCells, 0u);
    }

    for (const int threads : {1, 2, 8}) {
        study::CheckpointOptions opts;
        opts.threads = threads;
        study::CheckpointedRunner runner(opts);
        EXPECT_EQ(alone, serializeGrid(runner.runGrid(expanded, jobs, spec)))
            << "jobs=" << threads;
        EXPECT_EQ(runner.report().sharedCells, 7u * base.size() * 2u);
    }
}

TEST(McSharing, SharedCounterRisesByCellsMinusDistinctSimulations)
{
    const bool wasEnabled = util::setMetricsEnabled(true);
    auto &registry = util::MetricsRegistry::global();
    const auto base = baseGrid({8.0, 6.0, 4.6});
    const auto expanded =
        study::expandMonteCarloGrid(base, someVariation(4));
    const auto jobs = twoJobs();
    const std::size_t cells = expanded.size() * jobs.size();
    const std::size_t distinct = base.size() * jobs.size();

    const std::uint64_t shared0 = registry.value("study.cells.shared");
    const std::uint64_t executed0 = registry.value("study.cells.executed");
    study::CheckpointOptions opts;
    opts.threads = 1;
    study::CheckpointedRunner runner(opts);
    runner.runGrid(expanded, jobs, smallSpec());
    EXPECT_EQ(registry.value("study.cells.shared") - shared0,
              cells - distinct);
    EXPECT_EQ(registry.value("study.cells.executed") - executed0, cells)
        << "executed keeps counting every cell this run completed";
    EXPECT_EQ(runner.report().sharedCells, cells - distinct);
    EXPECT_EQ(runner.report().executedCells, cells);
    EXPECT_EQ(runner.report().cellTimings.size(), cells);
    util::setMetricsEnabled(wasEnabled);
}

TEST(McSharing, ResumeHoldingOnlyDieZeroRunsNoSimulation)
{
    // A journal holding die 0's cells is a set of simulations: the
    // resume prices every other die from it and simulates nothing.
    const auto base = baseGrid({8.0, 6.0});
    const auto expanded =
        study::expandMonteCarloGrid(base, someVariation(3));
    const auto jobs = twoJobs();
    const auto spec = smallSpec();

    study::CheckpointedRunner reference({});
    const std::string expected =
        serializeGrid(reference.runGrid(expanded, jobs, spec));

    const std::string journal = tempPath("mc_die_zero.journal");
    {
        const std::vector<study::GridPoint> dieZero(
            expanded.begin(),
            expanded.begin() + static_cast<std::ptrdiff_t>(base.size()));
        study::CheckpointedRunner runner({});
        const auto suites = runner.runGrid(dieZero, jobs, spec);
        auto writer = util::JournalWriter::create(
            journal, study::gridFingerprint(expanded, jobs, spec));
        for (std::size_t p = 0; p < suites.size(); ++p) {
            for (std::size_t j = 0; j < jobs.size(); ++j)
                writer.append(study::encodeCellRecord(
                    {p, j, suites[p].benchmarks[j]}));
        }
        writer.close();
    }

    std::atomic<int> attempts{0};
    study::CheckpointOptions opts;
    opts.journalPath = journal;
    opts.threads = 2;
    opts.onAttempt = [&](std::size_t, std::size_t, int attempt) {
        EXPECT_EQ(attempt, 1);
        ++attempts;
    };
    study::CheckpointedRunner resumed(opts);
    EXPECT_EQ(expected, serializeGrid(resumed.runGrid(expanded, jobs, spec)));
    const auto &report = resumed.report();
    EXPECT_TRUE(report.resumed);
    EXPECT_EQ(report.replayedCells, base.size() * jobs.size());
    EXPECT_EQ(report.executedCells, 2u * base.size() * jobs.size());
    EXPECT_EQ(report.sharedCells, report.executedCells)
        << "every executed cell was priced: no simulation ran";
    EXPECT_EQ(attempts.load(), static_cast<int>(report.executedCells))
        << "priced cells are still announced, once each";
    std::remove(journal.c_str());
}

TEST(McSharing, CancelMidClassResumesByteIdentical)
{
    // One point x 4 dice x 1 job is one class: die 0 simulates, dice
    // 1..3 are priced.  Cancelling as die 2 is announced stops the class
    // part-way; the resume prices what is left from the journal.
    const auto base = baseGrid({6.0});
    const auto expanded =
        study::expandMonteCarloGrid(base, someVariation(4));
    const std::vector<study::BenchJob> jobs = {
        study::BenchJob::fromProfile(trace::spec2000Profile("164.gzip"))};
    const auto spec = smallSpec();

    study::CheckpointedRunner reference({});
    const std::string expected =
        serializeGrid(reference.runGrid(expanded, jobs, spec));

    const std::string journal = tempPath("mc_mid_class.journal");
    util::CancelToken cancel;
    int started = 0;
    study::CheckpointOptions opts;
    opts.journalPath = journal;
    opts.cancel = &cancel;
    opts.onAttempt = [&](std::size_t, std::size_t, int) {
        if (++started == 3)
            cancel.requestCancel();
    };
    study::CheckpointedRunner killed(opts);
    EXPECT_THROW(killed.runGrid(expanded, jobs, spec), util::CancelledError);
    EXPECT_EQ(killed.report().executedCells, 3u)
        << "the announced die finishes; the class stops before die 3";

    study::CheckpointOptions again;
    again.journalPath = journal;
    study::CheckpointedRunner resumed(again);
    EXPECT_EQ(expected, serializeGrid(resumed.runGrid(expanded, jobs, spec)));
    EXPECT_EQ(resumed.report().replayedCells, 3u);
    EXPECT_EQ(resumed.report().sharedCells, 1u);
    EXPECT_EQ(resumed.report().executedCells, 1u);
    std::remove(journal.c_str());
}

TEST(McSharing, ObservedSpecsSimulateEveryDie)
{
    // A retire sink must see every simulation, so a spec carrying one
    // shares nothing: four dice retire four dice' worth of microops.
    struct CountingSink : trace::RetireSink
    {
        std::uint64_t retired = 0;
        void onRetire(const isa::MicroOp &) override { ++retired; }
    };
    const auto base = baseGrid({6.0});
    const auto expanded =
        study::expandMonteCarloGrid(base, someVariation(4));
    const std::vector<study::BenchJob> jobs = {
        study::BenchJob::fromProfile(trace::spec2000Profile("164.gzip"))};
    auto spec = smallSpec();
    EXPECT_EQ(study::simulationOwners(expanded, spec),
              (std::vector<std::size_t>{0, 0, 0, 0}));

    CountingSink sink;
    spec.retireSink = &sink;
    EXPECT_EQ(study::simulationOwners(expanded, spec),
              (std::vector<std::size_t>{0, 1, 2, 3}));
    study::CheckpointedRunner oneDie({});
    oneDie.runGrid(base, jobs, spec);
    const std::uint64_t perDie = sink.retired;
    ASSERT_GT(perDie, 0u);

    sink.retired = 0;
    study::CheckpointedRunner allDice({});
    allDice.runGrid(expanded, jobs, spec);
    EXPECT_EQ(sink.retired, 4 * perDie);
    EXPECT_EQ(allDice.report().sharedCells, 0u);
}

TEST(McSharing, FailuresAreNeverSharedEveryDieRetriesOnItsOwn)
{
    // A missing trace file fails with TraceIo, a transient code: every
    // die must spend all its attempts, exactly as if no die shared a
    // simulation, while the healthy job beside it is still shared.
    std::vector<study::BenchJob> jobs = {
        study::BenchJob::fromProfile(trace::spec2000Profile("164.gzip")),
        study::BenchJob::fromTraceFile(
            "missing", trace::BenchClass::Integer,
            std::string(::testing::TempDir()) + "/mc_missing.fo4t")};
    const auto base = baseGrid({8.0, 6.0});
    const auto expanded =
        study::expandMonteCarloGrid(base, someVariation(4));

    std::mutex mutex;
    std::map<std::size_t, int> missingAttempts; // point -> attempts
    study::CheckpointOptions opts;
    opts.threads = 2;
    opts.retry.maxAttempts = 3;
    opts.onAttempt = [&](std::size_t point, std::size_t job, int) {
        if (job != 1)
            return;
        std::lock_guard<std::mutex> lock(mutex);
        ++missingAttempts[point];
    };
    study::CheckpointedRunner runner(opts);
    const auto suites = runner.runGrid(expanded, jobs, smallSpec());

    ASSERT_EQ(missingAttempts.size(), expanded.size());
    for (std::size_t p = 0; p < expanded.size(); ++p) {
        EXPECT_EQ(missingAttempts[p], 3) << "point " << p;
        EXPECT_EQ(suites[p].benchmarks[1].error.code(),
                  util::ErrorCode::TraceIo);
        EXPECT_FALSE(suites[p].benchmarks[0].failed());
    }
    EXPECT_EQ(runner.report().retriedAttempts, 2u * expanded.size());
    EXPECT_EQ(runner.report().sharedCells, expanded.size() - base.size())
        << "only the healthy job's dice are priced";
}

TEST(McSharing, AFailedClassSimulatesItsRemainingDiceInParallel)
{
    // Die 0 of the only class fails with no success to share, so the
    // other dice go back to the pool as separate tasks.  With spare
    // threads their retry windows (attempt 1 to attempt 3, across two
    // 40 ms backoffs) overlap instead of running one after another.
    const std::vector<study::BenchJob> jobs = {study::BenchJob::fromTraceFile(
        "missing", trace::BenchClass::Integer,
        std::string(::testing::TempDir()) + "/mc_missing_parallel.fo4t")};
    const auto expanded =
        study::expandMonteCarloGrid(baseGrid({6.0}), someVariation(4));

    using Clock = std::chrono::steady_clock;
    std::mutex mutex;
    std::map<std::size_t, std::pair<Clock::time_point, Clock::time_point>>
        windows; // point -> (attempt 1, last attempt)
    study::CheckpointOptions opts;
    opts.threads = 4;
    opts.retry.maxAttempts = 3;
    opts.retry.baseDelayMs = 40.0;
    opts.onAttempt = [&](std::size_t point, std::size_t, int attempt) {
        const auto now = Clock::now();
        std::lock_guard<std::mutex> lock(mutex);
        auto &window = windows[point];
        if (attempt == 1)
            window.first = now;
        window.second = now;
    };
    study::CheckpointedRunner runner(opts);
    const auto suites = runner.runGrid(expanded, jobs, smallSpec());

    ASSERT_EQ(windows.size(), expanded.size());
    for (std::size_t p = 0; p < expanded.size(); ++p) {
        EXPECT_EQ(suites[p].benchmarks[0].error.code(),
                  util::ErrorCode::TraceIo);
    }
    EXPECT_EQ(runner.report().retriedAttempts, 2u * expanded.size());
    EXPECT_EQ(runner.report().sharedCells, 0u);
    bool overlap = false;
    for (std::size_t a = 1; a < expanded.size(); ++a) {
        for (std::size_t b = a + 1; b < expanded.size(); ++b) {
            overlap |= windows[a].first < windows[b].second &&
                       windows[b].first < windows[a].second;
        }
    }
    EXPECT_TRUE(overlap) << "the failed class's dice ran one at a time";
}
