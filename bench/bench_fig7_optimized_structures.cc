/**
 * @file
 * Experiment E9 — Figure 7 / Section 4.5 of the paper: choosing the
 * capacity (and so the latency) of the DL1, L2 and issue window
 * per clock frequency.  Optimized capacities buy ~14% BIPS on average
 * but leave the optimal logic depth at 6 FO4.
 */

#include "bench/common.hh"
#include "study/checkpoint.hh"
#include "study/optimizer.hh"
#include "study/runner.hh"
#include "study/scaling.hh"
#include "trace/spec2000.hh"
#include "util/table.hh"

using namespace fo4;

namespace
{

const std::vector<util::KeyDoc> kKeys = bench::keyUnion(
    {bench::specKeys(), {bench::jobsKey()}, bench::observabilityKeys()});

int
fig7(int argc, char **argv)
{
    bench::banner(
        "E9 / Figure 7",
        "per-clock optimized structure capacities improve performance by "
        "~14% on average but the optimum stays at 6 FO4 of useful logic; "
        "at 6 FO4 the paper picks a 64KB DL1, a 512KB L2 and a 64-entry "
        "window");

    util::Config::fromArgs(argc, argv).checkKnown(kKeys);
    auto spec = bench::specFromArgs(argc, argv, 40000, 5000, 300000);
    const auto obs = bench::observabilityFromArgs(argc, argv);
    const auto profiles = trace::spec2000Profiles();
    const auto ts = bench::usefulSweep();

    util::TextTable t;
    t.setHeader({"t_useful", "alpha caps (BIPS)", "optimized (BIPS)",
                 "gain", "dl1(KB)", "l2(KB)", "window"});

    auto runner = bench::runnerFromArgs(argc, argv);
    const auto baselines = runner.sweepScaling(ts, {}, profiles, spec);

    std::vector<double> base, tuned;
    double gainSum = 0;
    for (const auto &[u, clock, baseline] : baselines) {
        const auto best = study::optimizeStructures(
            u, clock, profiles, spec, {}, runner.threads());
        base.push_back(baseline.harmonicBipsAll());
        tuned.push_back(best.harmonicBipsAll);
        const double gain = tuned.back() / base.back() - 1.0;
        gainSum += gain;
        t.addRow({util::TextTable::num(u, 0),
                  util::TextTable::num(base.back(), 3),
                  util::TextTable::num(tuned.back(), 3),
                  util::TextTable::num(100.0 * gain, 1) + "%",
                  util::TextTable::num(
                      std::int64_t(best.options.dl1Bytes >> 10)),
                  util::TextTable::num(
                      std::int64_t(best.options.l2Bytes >> 10)),
                  util::TextTable::num(
                      std::int64_t(best.options.windowEntries))});
    }
    t.print(std::cout);

    std::printf("\naverage gain from optimized capacities: %.1f%% "
                "(paper: ~14%%)\n",
                100.0 * gainSum / ts.size());
    std::printf("optimum with alpha capacities: %.0f FO4; with optimized "
                "capacities: %.0f FO4 (paper: 6 both ways)\n",
                bench::argmax(ts, base), bench::argmax(ts, tuned));

    // stats= / trace=: attribution of the alpha-capacity baselines, and
    // the pipeline timeline at the 6 FO4 point.
    if (obs.wantsStats())
        bench::writeStats(obs.statsPath, bench::sweepStatsRows(baselines));
    bench::maybeWriteTrace(obs, study::scaledCoreParams(6, {}),
                           study::scaledClock(6),
                           study::BenchJob::fromProfile(profiles.front()),
                           spec);

    bench::printLatencyCacheStats(bench::verboseFromArgs(argc, argv));
    bench::printMetricsRegistry(bench::verboseFromArgs(argc, argv));
    bench::verdict("optimization lifts the whole curve without moving "
                   "the optimal logic depth away from ~6 FO4");
    return 0;
}

} // namespace

int
main(int argc, char **argv)
{
    return util::runTopLevel(argc, argv, kKeys,
                             [&] { return fig7(argc, argv); });
}
