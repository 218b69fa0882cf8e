/**
 * @file
 * Golden-number regression harness: pins the paper's headline numbers
 * so they cannot drift while the engine underneath is rebuilt.  Two
 * kinds of pins live here:
 *
 *  - analytic numbers (Table 1 overhead, the clock period at the
 *    optimum, the Appendix A ECL equivalences) are pinned to the
 *    paper's printed values with explicit tolerances;
 *  - simulation-derived numbers (the Fig 4b / Fig 5 integer optimum,
 *    the Fig 5 non-vector FP optimum, the Cray-1S optimum, the Fig 8
 *    loop ordering, the Fig 11 losses at 4 and 10 stages, the Fig 12
 *    select cost) are pinned as the argmax, ordering or loss of a
 *    fixed-length sweep.  The synthetic traces are seeded, so these
 *    sweeps are exactly reproducible: a changed argmax means the model
 *    changed, not the weather.
 *
 * Policy (see README "Golden numbers"): a pinned value may only be
 * updated when a model change is *intended* to move it, the new value
 * is still consistent with the paper's claim, and the update is called
 * out in the commit message.  Never loosen a tolerance to make a red
 * build green.
 *
 * The sweeps run on every hardware thread; the determinism contract
 * (test_parallel_runner) guarantees thread count cannot change any
 * digit of the result.
 */

#include <gtest/gtest.h>

#include "bench/common.hh"
#include "core/params.hh"
#include "study/checkpoint.hh"
#include "study/optimizer.hh"
#include "study/scaling.hh"
#include "tech/clocking.hh"
#include "tech/ecl.hh"
#include "trace/spec2000.hh"

using namespace fo4;

namespace
{

/** The fixed sweep spec behind every simulation-derived golden number.
 *  Calibrated so each sweep runs in seconds while every optimum below
 *  is stable across neighbouring run lengths (4k-6k instructions). */
study::RunSpec
goldenSpec()
{
    study::RunSpec spec;
    spec.instructions = 5000;
    spec.warmup = 625;
    spec.prewarm = 100000;
    // A hung sweep must fail fast with a watchdog dump, not eat the
    // ctest timeout: ~200 cycles per instruction is 50x the worst IPC
    // any sane configuration produces here.
    spec.cycleLimit = 1000000;
    // The pins run on the one-pass engine — the implementation every
    // bench sweep uses — which the byte-identity contract (DESIGN.md
    // §14, test_core_differential) makes interchangeable with the
    // reference cores; Fig5OooIntegerOptimumIs6Fo4 cross-checks the
    // contract once at this exact golden scale.
    spec.impl = study::SimImpl::Batched;
    return spec;
}

/** A grid runner on all hardware threads; results are invariant. */
study::CheckpointedRunner
allThreads()
{
    study::CheckpointOptions options;
    options.threads = 0;
    return study::CheckpointedRunner(std::move(options));
}

/** One class's harmonic BIPS over the standard 2..16 FO4 sweep. */
std::vector<double>
classSweep(const study::SweepOptions &options, const study::RunSpec &spec,
           trace::BenchClass cls = trace::BenchClass::Integer)
{
    const auto profiles = trace::spec2000Profiles(cls);
    const auto points = allThreads().sweepScaling(bench::usefulSweep(),
                                                  options, profiles, spec);
    std::vector<double> bips;
    bips.reserve(points.size());
    for (const auto &point : points)
        bips.push_back(point.suite.harmonicBips(cls));
    return bips;
}

/** Harmonic IPC of each configuration over the given suite, in order. */
std::vector<double>
suiteIpc(const std::vector<core::CoreParams> &configs,
         const std::vector<trace::BenchmarkProfile> &profiles)
{
    std::vector<study::GridPoint> points;
    for (const auto &params : configs)
        points.push_back({params, tech::ClockModel{}});
    const auto suites = allThreads().runGrid(
        points, study::jobsFromProfiles(profiles), goldenSpec());
    std::vector<double> ipc;
    for (const auto &suite : suites)
        ipc.push_back(suite.harmonicIpcAll());
    return ipc;
}

/** Integer harmonic IPC of each configuration, in order. */
std::vector<double>
integerIpc(const std::vector<core::CoreParams> &configs)
{
    return suiteIpc(configs,
                    trace::spec2000Profiles(trace::BenchClass::Integer));
}

/** Floating-point harmonic IPC of each configuration, over the vector
 *  and non-vector suites pooled as the Section 5 benches pool them. */
std::vector<double>
fpIpc(const std::vector<core::CoreParams> &configs)
{
    auto profiles = trace::spec2000Profiles(trace::BenchClass::VectorFp);
    for (auto &p : trace::spec2000Profiles(trace::BenchClass::NonVectorFp))
        profiles.push_back(p);
    return suiteIpc(configs, profiles);
}

} // namespace

// --- Analytic pins -------------------------------------------------------

TEST(GoldenPaper, Table1OverheadIs1p8Fo4)
{
    const auto overhead = tech::OverheadModel::paperDefault();
    EXPECT_NEAR(overhead.latchFo4, 1.0, 1e-12);
    EXPECT_NEAR(overhead.skewFo4, 0.3, 1e-12);
    EXPECT_NEAR(overhead.jitterFo4, 0.5, 1e-12);
    EXPECT_NEAR(overhead.totalFo4(), 1.8, 1e-12);
}

TEST(GoldenPaper, OooClockAtOptimumIs7p8Fo4)
{
    // 6 FO4 useful + 1.8 FO4 overhead = 7.8 FO4 -> ~3.6 GHz at 100nm.
    const auto clock = study::scaledClock(6.0);
    EXPECT_NEAR(clock.periodFo4(), 7.8, 1e-9);
    EXPECT_NEAR(clock.frequencyGhz(), 3.56, 0.05);
}

TEST(GoldenPaper, AppendixAEclEquivalences)
{
    // One Cray-1S ECL gate level = 1.36 FO4, so Kunkel & Smith's
    // optima translate to 8 x 1.36 = 10.9 and 4 x 1.36 = 5.4 FO4.
    EXPECT_NEAR(tech::paperEclLevelFo4, 1.36, 1e-12);
    EXPECT_NEAR(tech::eclLevelsToFo4(tech::kunkelSmithScalarLevels), 10.9,
                0.1);
    EXPECT_NEAR(tech::eclLevelsToFo4(tech::kunkelSmithVectorLevels), 5.4,
                0.1);
}

// --- Simulation-derived pins ---------------------------------------------

TEST(GoldenPaper, Fig5OooIntegerOptimumIs6Fo4)
{
    study::SweepOptions options;
    const auto ts = bench::usefulSweep();
    const auto bips = classSweep(options, goldenSpec());

    EXPECT_EQ(bench::argmax(ts, bips), 6.0);
    // Tolerance statement: 6 FO4 must also be the *sole* point within
    // 0.5% of the maximum — the optimum is a peak, not a plateau edge.
    EXPECT_EQ(bench::plateau(ts, bips, 0.005), std::vector<double>{6.0});

    // One golden-scale byte-identity spot check at the optimum itself:
    // the pin above is meaningful for the reference cores exactly
    // because the two implementations cannot differ by a byte.
    const auto profiles =
        trace::spec2000Profiles(trace::BenchClass::Integer);
    auto referenceSpec = goldenSpec();
    referenceSpec.impl = study::SimImpl::Reference;
    const auto params = study::scaledCoreParams(6.0, {});
    const auto clock = study::scaledClock(6.0);
    EXPECT_EQ(study::serializeSuite(
                  study::runSuite(params, clock, profiles, goldenSpec())),
              study::serializeSuite(study::runSuite(params, clock, profiles,
                                                    referenceSpec)));
}

TEST(GoldenPaper, Fig5OooNonVectorFpOptimumIs5Fo4)
{
    // E7: the non-vector FP optimum is 5 FO4, as in the paper.  The
    // vector FP optimum is not pinned: at this scale it is 3 FO4, not
    // the paper's 4, because the synthetic vector workloads carry more
    // ILP than SPEC's (EXPERIMENTS.md, divergence 3).
    const auto bips = classSweep({}, goldenSpec(),
                                 trace::BenchClass::NonVectorFp);
    EXPECT_EQ(bench::argmax(bench::usefulSweep(), bips), 5.0);
}

TEST(GoldenPaper, Fig4bInorderIntegerOptimumIs6Fo4)
{
    study::SweepOptions options;
    auto spec = goldenSpec();
    spec.model = study::CoreModel::InOrder;
    const auto ts = bench::usefulSweep();
    const auto bips = classSweep(options, spec);

    EXPECT_EQ(bench::argmax(ts, bips), 6.0);
    // The scoreboarded in-order model's curve is flatter than the
    // paper's, so the pin is argmax plus plateau membership at 2%.
    EXPECT_TRUE(bench::onPlateau(bench::plateau(ts, bips, 0.02), 6.0));
}

TEST(GoldenPaper, Fig6OptimumStaysAt6Fo4ForOverheads1To5)
{
    // Figure 6: the integer optimum is insensitive to the per-stage
    // overhead across 1..5 FO4.  Overhead changes only the clock (never
    // cycle counts), so one IPC sweep serves every overhead value.
    study::SweepOptions options;
    options.overhead = tech::OverheadModel::uniform(0);
    const auto profiles =
        trace::spec2000Profiles(trace::BenchClass::Integer);
    const auto ts = bench::usefulSweep();
    const auto points =
        allThreads().sweepScaling(ts, options, profiles, goldenSpec());

    // Like Fig 4b, our model's curve is flatter than the paper's, so
    // the printed claim ("optimum stays exactly at 6 for overheads
    // 1..5") softens to the mechanism behind it, which the model does
    // reproduce deterministically:
    //  - the optimum only drifts *shallower* (larger t_useful) as
    //    overhead grows — overhead is what punishes deep pipelines;
    //  - the drift across 1..5 FO4 is a few sweep steps, not a regime
    //    change (argmax 4/6/6/9/9 at the golden scale);
    //  - at 2 and 3 FO4, bracketing the paper's 1.8, the optimum is
    //    exactly 6 and 6 sits on the tight 0.5% plateau.
    double previousArgmax = 0.0;
    std::vector<double> argmaxes;
    for (const double overhead : {1.0, 2.0, 3.0, 4.0, 5.0}) {
        std::vector<double> bips;
        bips.reserve(points.size());
        for (std::size_t i = 0; i < points.size(); ++i) {
            const auto clock = study::scaledClock(
                ts[i], tech::OverheadModel::uniform(overhead));
            bips.push_back(clock.bips(
                points[i].suite.harmonicIpc(trace::BenchClass::Integer)));
        }
        const double opt = bench::argmax(ts, bips);
        EXPECT_GE(opt, previousArgmax) << "overhead=" << overhead;
        previousArgmax = opt;
        argmaxes.push_back(opt);
        if (overhead == 2.0 || overhead == 3.0) {
            EXPECT_EQ(opt, 6.0) << "overhead=" << overhead;
            EXPECT_TRUE(bench::onPlateau(
                bench::plateau(ts, bips, 0.005), 6.0))
                << "overhead=" << overhead;
        }
    }
    EXPECT_LE(argmaxes.back() - argmaxes.front(), 6.0)
        << "optimum drifted by more than a few FO4 across overheads 1..5";
}

TEST(GoldenPaper, Fig7OptimizedStructuresGainWithoutMovingTheOptimum)
{
    // Figure 7 / Section 4.5: per-clock optimized DL1/L2/window
    // capacities buy ~14% BIPS on average, and the optimum stays at
    // 6 FO4.  Pinned at the golden sweep scale over the points around
    // the optimum: 6 must beat its neighbours after optimization, and
    // the average gain must land in the paper's neighbourhood.
    const auto profiles =
        trace::spec2000Profiles(trace::BenchClass::Integer);
    const auto spec = goldenSpec();

    std::vector<double> ts{4, 5, 6, 7, 8};
    std::vector<double> base, tuned;
    double gainSum = 0;
    for (const double u : ts) {
        const auto clock = study::scaledClock(u);
        const auto baseline = study::runSuite(
            study::scaledCoreParams(u, {}), clock, profiles, spec);
        const auto best =
            study::optimizeStructures(u, clock, profiles, spec, {}, 0);
        base.push_back(baseline.harmonicBipsAll());
        tuned.push_back(best.harmonicBipsAll);
        // Optimization may never lose: the alpha capacities are inside
        // the search space.
        EXPECT_GE(tuned.back(), base.back()) << "t=" << u;
        gainSum += tuned.back() / base.back() - 1.0;
    }

    EXPECT_EQ(bench::argmax(ts, tuned), 6.0);
    // Paper: ~14% averaged over the full suite and sweep.  Our
    // synthetic-trace model realizes the same *shape* — a strictly
    // positive gain at every clock with the optimum unmoved — but a
    // smaller magnitude (~2.5% here, ~3% at bench scale), because the
    // synthetic working sets are less capacity-sensitive than SPEC's.
    // The pin brackets the model's measured value; see the README
    // golden-number policy before touching it.
    const double meanGain = gainSum / static_cast<double>(ts.size());
    EXPECT_GE(meanGain, 0.01);
    EXPECT_LE(meanGain, 0.10);
}

TEST(GoldenPaper, CrayMemoryIntegerOptimumIs11Fo4)
{
    study::SweepOptions options;
    options.scaling.crayMemory = true;
    const auto ts = bench::usefulSweep();
    const auto bips = classSweep(options, goldenSpec());

    // Section 4.2: the flat 12-cycle memory moves the optimum to 11
    // FO4, next to Kunkel & Smith's 8 ECL levels = 10.9 FO4.
    EXPECT_EQ(bench::argmax(ts, bips), 11.0);
    EXPECT_TRUE(bench::onPlateau(bench::plateau(ts, bips, 0.005), 11.0));
}

TEST(GoldenPaper, Fig8LoopSensitivityOrdersWakeupLoadUseMispredict)
{
    // E10 / Figure 8: stretched by 15 cycles over its 21264 length, the
    // issue-wakeup loop costs the most integer IPC, then the DL1
    // load-use loop, then the misprediction penalty (relative IPC
    // 0.295 < 0.493 < 0.784 at this scale).
    auto wakeup = core::CoreParams::alpha21264();
    wakeup.extraWakeup = 15;
    auto loadUse = core::CoreParams::alpha21264();
    loadUse.extraLoadUse = 15;
    auto mispredict = core::CoreParams::alpha21264();
    mispredict.extraMispredictPenalty = 15;
    const auto ipc = integerIpc(
        {core::CoreParams::alpha21264(), wakeup, loadUse, mispredict});
    EXPECT_LT(ipc[1] / ipc[0], ipc[2] / ipc[0]);
    EXPECT_LT(ipc[2] / ipc[0], ipc[3] / ipc[0]);
}

TEST(GoldenPaper, Fig11FourWakeupStagesCostUnderOnePercent)
{
    // E11 / Figure 11: a 32-entry window whose wakeup is pipelined over
    // 4 stages loses under 1% of integer IPC (0.6% at this scale; the
    // paper: roughly none).
    auto base = core::CoreParams::alpha21264();
    base.window.capacity = 32;
    auto segmented = base;
    segmented.window.wakeupStages = 4;
    const auto ipc = integerIpc({base, segmented});
    EXPECT_LT(1.0 - ipc[1] / ipc[0], 0.01);
}

TEST(GoldenPaper, Fig11TenWakeupStagesCostAModestAmount)
{
    // E11 / Figure 11 at its deepest point: 10 wakeup stages cost more
    // than 4, in both classes, but stay under the bench's own "modest
    // amount" bound of 15%.  The paper loses 11% integer and 5% FP; this
    // model loses 2.6% of each at this scale (0.55% integer and 0.43%
    // FP at 4 stages), because synthetic dependence locality concentrates
    // wakeups in the lowest stages (EXPERIMENTS.md, divergence 4).
    auto base = core::CoreParams::alpha21264();
    base.window.capacity = 32;
    auto four = base;
    four.window.wakeupStages = 4;
    auto ten = base;
    ten.window.wakeupStages = 10;
    for (const bool fp : {false, true}) {
        const auto ipc =
            fp ? fpIpc({base, four, ten}) : integerIpc({base, four, ten});
        const double lossAt4 = 1.0 - ipc[1] / ipc[0];
        const double lossAt10 = 1.0 - ipc[2] / ipc[0];
        EXPECT_GE(lossAt10, lossAt4) << (fp ? "FP" : "integer");
        EXPECT_LT(lossAt10, 0.15) << (fp ? "FP" : "integer");
    }
}

TEST(GoldenPaper, Fig12PartitionedSelectCostsUnderFivePercent)
{
    // E12 / Figure 12: the 32-entry, 4-stage window with partitioned
    // select (stage 1 plus preselect caps 5/2/1) loses under 5% of IPC
    // in both classes against the single-cycle window, and never less
    // than segmented wakeup alone.  The paper loses ~4% integer and ~1%
    // FP; this model loses 1.2% integer and 2.1% FP at this scale, so
    // the paper's FP-loses-less ordering flips (EXPERIMENTS.md, E12).
    auto mono = core::CoreParams::alpha21264();
    mono.window.capacity = 32;
    auto segmented = mono;
    segmented.window.wakeupStages = 4;
    auto partitioned = segmented;
    partitioned.window.select = core::SelectModel::Partitioned;
    partitioned.window.preselectCap = {5, 2, 1, 1, 1, 1, 1, 1};
    for (const bool fp : {false, true}) {
        const std::vector<core::CoreParams> configs{mono, segmented,
                                                    partitioned};
        const auto ipc = fp ? fpIpc(configs) : integerIpc(configs);
        const double segmentedLoss = 1.0 - ipc[1] / ipc[0];
        const double partitionedLoss = 1.0 - ipc[2] / ipc[0];
        EXPECT_LT(partitionedLoss, 0.05) << (fp ? "FP" : "integer");
        EXPECT_GE(partitionedLoss, segmentedLoss)
            << (fp ? "FP" : "integer");
    }
}
