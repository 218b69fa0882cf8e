/**
 * @file
 * Pipeline-depth explorer: sweep the useful logic per stage for a chosen
 * benchmark (or class) and print the BIPS curve with its optimum — the
 * core experiment of the paper, exposed as a command-line tool.
 *
 *   ./pipeline_explorer [bench=176.gcc | class=integer] [overhead=1.8]
 *                       [model=ooo|inorder] [instructions=80000]
 *                       [checkpoint=/path/run.journal] [resume=1]
 *
 * With checkpoint= every finished grid cell is journaled; an interrupted
 * sweep (Ctrl-C exits with status 130 after flushing) resumes from the
 * journal on the next run with the same arguments.  resume=0 discards an
 * existing journal and starts over.
 */

#include <cstdio>
#include <iostream>

#include "bench/common.hh"
#include "study/checkpoint.hh"
#include "study/montecarlo.hh"
#include "study/runner.hh"
#include "study/scaling.hh"
#include "trace/spec2000.hh"
#include "util/config.hh"
#include "util/status.hh"
#include "util/table.hh"

namespace
{

using namespace fo4;

const std::vector<util::KeyDoc> kKeys = study::runKeys(
    {"bench", "class", "overhead", "model", "instructions", "prewarm", "jobs",
     "checkpoint", "resume", "mc_samples", "mc_dist", "mc_sigma_latch",
     "mc_sigma_skew", "mc_sigma_jitter", "mc_sigma_die", "mc_seed"},
    bench::observabilityKeys());
const study::RunSpec kDefaults{.instructions = 80000, .prewarm = 500000};
// The explorer's nominal is uniform(overhead) — the skew and jitter
// components decompose to zero — so the default variation rides the
// latch component; normal sigmas on a zero-nominal component would
// reject every draw.  mc_samples=0 keeps the deterministic sweep.
const study::VariationModel kVariation{
    .sigmaLatch = 0.05, .sigmaDie = 0.05, .samples = 0};

int
explore(int argc, char **argv)
{
    const study::RunArgs args(argc, argv, kKeys);
    const util::Config &cfg = args.config();
    const auto obs = bench::observabilityFromArgs(cfg);
    const auto profiles = args.profiles("176.gcc");
    const double overhead = args.number("overhead", 1.8);
    const auto spec = args.spec(kDefaults, 8); // warmup = instructions / 8
    const study::VariationModel variation = args.variation(kVariation);

    // Ctrl-C cancels cooperatively: drain, flush the journal, exit 130.
    util::CancelToken cancel;
    util::installSigintCancel(cancel);
    study::CheckpointOptions copts = args.checkpointOptions();
    copts.cancel = &cancel;

    std::vector<double> ts;
    for (double u = 2; u <= 16; u += 1)
        ts.push_back(u);
    study::SweepOptions sweep;
    sweep.overhead = tech::OverheadModel::uniform(overhead);

    // mc_samples= switches the sweep to the Monte Carlo engine: every
    // die draws per-stage overhead around the nominal, and the curve
    // reported is the yield-weighted mean with its confidence band.
    if (variation.samples > 0) {
        study::MonteCarloRunner mc({sweep, variation, std::move(copts)});

        std::printf("Monte Carlo sweep: t_useful = 2..16 FO4, overhead "
                    "%.1f FO4 nominal, %d dice/point (%s), %zu "
                    "benchmark(s), %d worker thread(s)\n\n",
                    overhead, variation.samples,
                    study::mcDistName(variation.dist),
                    profiles.size(), mc.threads());
        const study::McSweepResult result = mc.run(ts, profiles, spec);

        util::TextTable mt;
        mt.setHeader({"t_useful", "period(FO4)", "stages", "mean BIPS",
                      "p5", "p95", "yield"});
        for (const auto &pt : result.points) {
            mt.addRow({util::TextTable::num(pt.tUseful, 0),
                       util::TextTable::num(
                           pt.nominalClock.periodFo4(), 1),
                       util::strprintf("%d", pt.stages),
                       util::TextTable::num(pt.all.meanBips, 3),
                       util::TextTable::num(pt.all.p5Bips, 3),
                       util::TextTable::num(pt.all.p95Bips, 3),
                       util::TextTable::num(pt.yield, 3)});
        }
        mt.print(std::cout);
        std::printf("\nyield-weighted optimum: %.0f FO4 useful logic "
                    "per stage\n",
                    result.optimumTUseful());
        bench::printLatencyCacheStats(cfg.getBool("verbose", false));
        bench::printMetricsRegistry(cfg.getBool("verbose", false));
        return 0;
    }

    study::CheckpointedRunner runner(std::move(copts));

    std::printf("sweeping t_useful = 2..16 FO4, overhead %.1f FO4, %zu "
                "benchmark(s), %s core, %d worker thread(s)\n\n",
                overhead, profiles.size(),
                spec.model == study::CoreModel::InOrder ? "in-order"
                                                        : "out-of-order",
                runner.threads());

    const auto points = runner.sweepScaling(ts, sweep, profiles, spec);
    if (runner.report().resumed) {
        std::printf("resumed from checkpoint: %zu of %zu cells replayed\n",
                    runner.report().replayedCells,
                    runner.report().totalCells);
    }

    util::TextTable t;
    t.setHeader({"t_useful", "period(FO4)", "GHz", "hmean IPC",
                 "hmean BIPS"});
    double bestT = 0, bestBips = 0;
    for (const auto &point : points) {
        const double bips = point.suite.harmonicBipsAll();
        if (bips > bestBips) {
            bestBips = bips;
            bestT = point.tUseful;
        }
        t.addRow({util::TextTable::num(point.tUseful, 0),
                  util::TextTable::num(point.clock.periodFo4(), 1),
                  util::TextTable::num(point.clock.frequencyGhz(), 2),
                  util::TextTable::num(point.suite.harmonicIpcAll(), 3),
                  util::TextTable::num(bips, 3)});
    }
    t.print(std::cout);
    std::printf("\noptimum: %.0f FO4 useful logic per stage (%.3f BIPS, "
                "clock period %.1f FO4)\n",
                bestT, bestBips, bestT + overhead);

    // stats=: stall attribution for every sweep point; trace=: pipeline
    // timeline of the first benchmark at the sweep's own optimum.
    if (obs.wantsStats())
        bench::writeStats(obs.statsPath, bench::sweepStatsRows(points));
    bench::maybeWriteTrace(obs, study::scaledCoreParams(bestT),
                           study::scaledClock(
                               bestT, tech::OverheadModel::uniform(overhead)),
                           study::BenchJob::fromProfile(profiles.front()),
                           spec);
    bench::printLatencyCacheStats(cfg.getBool("verbose", false));
    bench::printMetricsRegistry(cfg.getBool("verbose", false));
    return 0;
}

} // namespace

int
main(int argc, char **argv)
{
    return fo4::util::runTopLevel(argc, argv, kKeys,
                                  [&] { return explore(argc, argv); });
}
