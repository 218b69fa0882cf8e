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

const std::vector<fo4::util::KeyDoc> kKeys = {
    {"bench", "SPEC 2000 profile to sweep (default 176.gcc)"},
    {"class", "sweep a whole class: integer | vfp | nvfp | all"},
    {"overhead", "clocking overhead per stage, FO4"},
    {"model", "core model: ooo | inorder"},
    {"instructions", "measured instructions per benchmark"},
    {"prewarm", "instructions streamed through caches/predictor first"},
    {"jobs", "worker threads (1 = serial; must be >= 1)"},
    {"checkpoint", "journal file; an interrupted sweep resumes from it"},
    {"resume", "resume=0 discards an existing journal and starts over"},
    {"mc_samples", "Monte Carlo dice per sweep point (0 = deterministic)"},
    {"mc_dist", "per-stage draw family: normal | lognormal"},
    {"mc_sigma_latch", "per-stage latch overhead sigma"},
    {"mc_sigma_skew", "per-stage clock skew sigma"},
    {"mc_sigma_jitter", "per-stage clock jitter sigma"},
    {"mc_sigma_die", "die-level systematic corner sigma"},
    {"mc_seed", "root seed of the sampling streams"},
    {"verbose", "print cache and metrics diagnostics"},
    {"stats", "write per-point stall-attribution CSV here"},
    {"trace", "write a Chrome pipeline trace of one benchmark here"},
    {"trace_start", "first cycle the trace records"},
    {"trace_cycles", "length of the traced cycle window"},
};

std::vector<fo4::trace::BenchmarkProfile>
pickProfiles(const fo4::util::Config &cfg)
{
    using namespace fo4::trace;
    if (cfg.has("class")) {
        const std::string cls = cfg.getString("class", "integer");
        if (cls == "integer")
            return spec2000Profiles(BenchClass::Integer);
        if (cls == "vector-fp" || cls == "vfp")
            return spec2000Profiles(BenchClass::VectorFp);
        if (cls == "non-vector-fp" || cls == "nvfp")
            return spec2000Profiles(BenchClass::NonVectorFp);
        if (cls == "all")
            return spec2000Profiles();
        throw fo4::util::ConfigError(fo4::util::strprintf(
            "unknown class '%s' (use integer, vfp, nvfp or all)",
            cls.c_str()));
    }
    return {spec2000Profile(cfg.getString("bench", "176.gcc"))};
}

int
explore(int argc, char **argv)
{
    using namespace fo4;
    const auto cfg = util::Config::fromArgs(argc, argv);
    cfg.checkKnown(kKeys);
    const auto obs = bench::observabilityFromArgs(argc, argv);
    const auto profiles = pickProfiles(cfg);
    const double overhead = cfg.getDouble("overhead", 1.8);
    const int jobs = static_cast<int>(cfg.getPositiveInt("jobs", 1));
    const std::string checkpoint = cfg.getString("checkpoint", "");
    if (!checkpoint.empty() && !cfg.getBool("resume", true))
        std::remove(checkpoint.c_str());

    study::RunSpec spec;
    spec.instructions = cfg.getInt("instructions", 80000);
    spec.warmup = spec.instructions / 8;
    spec.prewarm = cfg.getInt("prewarm", 500000);
    spec.model = study::coreModelFromName(cfg.getString("model", "ooo"));

    // Ctrl-C cancels cooperatively: drain, flush the journal, exit 130.
    util::CancelToken cancel;
    util::installSigintCancel(cancel);

    std::vector<double> ts;
    for (double u = 2; u <= 16; u += 1)
        ts.push_back(u);
    study::SweepOptions sweep;
    sweep.overhead = tech::OverheadModel::uniform(overhead);

    // mc_samples= switches the sweep to the Monte Carlo engine: every
    // die draws per-stage overhead around the nominal, and the curve
    // reported is the yield-weighted mean with its confidence band.
    const int mcSamples = static_cast<int>(cfg.getInt("mc_samples", 0));
    if (mcSamples > 0) {
        study::McOptions mopts;
        mopts.sweep = sweep;
        mopts.variation.dist =
            study::mcDistFromName(cfg.getString("mc_dist", "normal"));
        // The explorer's nominal is uniform(overhead) — the skew and
        // jitter components decompose to zero — so the default
        // variation rides the latch component; normal sigmas on a
        // zero-nominal component would reject every draw.
        mopts.variation.sigmaLatch = cfg.getDouble("mc_sigma_latch", 0.05);
        mopts.variation.sigmaSkew = cfg.getDouble("mc_sigma_skew", 0.0);
        mopts.variation.sigmaJitter =
            cfg.getDouble("mc_sigma_jitter", 0.0);
        mopts.variation.sigmaDie = cfg.getDouble("mc_sigma_die", 0.05);
        mopts.variation.seed =
            static_cast<std::uint64_t>(cfg.getInt("mc_seed", 0));
        mopts.variation.samples = mcSamples;
        mopts.checkpoint.journalPath = checkpoint;
        mopts.checkpoint.threads = jobs;
        mopts.checkpoint.cancel = &cancel;
        study::MonteCarloRunner mc(mopts);

        std::printf("Monte Carlo sweep: t_useful = 2..16 FO4, overhead "
                    "%.1f FO4 nominal, %d dice/point (%s), %zu "
                    "benchmark(s), %d worker thread(s)\n\n",
                    overhead, mcSamples,
                    study::mcDistName(mopts.variation.dist),
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

    study::CheckpointOptions copts;
    copts.journalPath = checkpoint;
    copts.threads = jobs;
    copts.cancel = &cancel;
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
