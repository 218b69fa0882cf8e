/**
 * @file
 * Experiment E8 — Figure 6 of the paper: sensitivity of the integer
 * optimum to the per-stage overhead.  For overheads between 1 and 5 FO4
 * the best useful logic per stage stays at 6 FO4; deeper pipelines
 * benefit more from overhead reductions.
 *
 * Since overhead affects only the clock frequency (never the cycle
 * counts), one IPC sweep serves every overhead value.
 */

#include "bench/common.hh"
#include "study/checkpoint.hh"
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
fig6(int argc, char **argv)
{
    bench::banner(
        "E8 / Figure 6",
        "the 6 FO4 integer optimum is insensitive to overhead values of "
        "1..5 FO4; deep pipelines gain more from overhead reduction than "
        "shallow ones");

    util::Config::fromArgs(argc, argv).checkKnown(kKeys);
    const auto spec = bench::specFromArgs(argc, argv);
    const auto obs = bench::observabilityFromArgs(argc, argv);
    const auto profiles =
        trace::spec2000Profiles(trace::BenchClass::Integer);
    const auto ts = bench::usefulSweep();
    const std::vector<double> overheads{0, 1, 2, 3, 4, 5, 6};

    // One simulation per t_useful; BIPS recomputed per overhead.
    const auto points = bench::runnerFromArgs(argc, argv)
                            .sweepScaling(ts, {}, profiles, spec);
    std::vector<double> ipcAt;
    for (const auto &point : points)
        ipcAt.push_back(point.suite.harmonicIpc(trace::BenchClass::Integer));

    util::TextTable t;
    std::vector<std::string> header{"t_useful"};
    for (const double o : overheads)
        header.push_back("ovh=" + util::TextTable::num(o, 0));
    t.setHeader(header);

    std::vector<double> optima;
    std::vector<std::vector<double>> series(overheads.size());
    for (std::size_t i = 0; i < ts.size(); ++i) {
        std::vector<std::string> row{util::TextTable::num(ts[i], 0)};
        for (std::size_t o = 0; o < overheads.size(); ++o) {
            const auto clock = study::scaledClock(
                ts[i], tech::OverheadModel::uniform(overheads[o]));
            const double bips = clock.bips(ipcAt[i]);
            series[o].push_back(bips);
            row.push_back(util::TextTable::num(bips, 3));
        }
        t.addRow(row);
    }
    t.print(std::cout);

    std::printf("\noptimal t_useful per overhead (2%% plateau):\n");
    bool sixOnAll = true;
    for (std::size_t o = 0; o < overheads.size(); ++o) {
        optima.push_back(bench::argmax(ts, series[o]));
        const auto p = bench::plateau(ts, series[o], 0.02);
        std::printf("  overhead %g -> %g [%s]\n", overheads[o],
                    optima.back(), bench::plateauStr(p).c_str());
        if (overheads[o] >= 1 && overheads[o] <= 5)
            sixOnAll = sixOnAll && bench::onPlateau(p, 6);
    }
    std::printf("(paper: stays at 6 FO4 for overheads 1..5; here 6 FO4 "
                "%s on every plateau in that range)\n",
                sixOnAll ? "stays" : "does NOT stay");

    // Deep pipelines benefit more from removing overhead.
    const double deepGain = series[0][1] / series.back()[1];   // t=3
    const double shallowGain = series[0][12] / series.back()[12]; // t=14
    std::printf("zero-vs-6FO4-overhead gain at t=3: %.2fx, at t=14: "
                "%.2fx (deeper gains more)\n",
                deepGain, shallowGain);

    // stats= / trace=: cycle counts are overhead-independent, so the
    // one sweep's stall attribution serves every overhead column.
    if (obs.wantsStats())
        bench::writeStats(obs.statsPath, bench::sweepStatsRows(points));
    bench::maybeWriteTrace(obs, study::scaledCoreParams(6),
                           study::scaledClock(6),
                           study::BenchJob::fromProfile(profiles.front()),
                           spec);

    bench::printLatencyCacheStats(bench::verboseFromArgs(argc, argv));
    bench::printMetricsRegistry(bench::verboseFromArgs(argc, argv));
    bench::verdict("the optimum moves by at most a couple of FO4 across "
                   "overheads 1..5, and overhead reduction helps deep "
                   "pipelines more than shallow ones");
    return 0;
}

} // namespace

int
main(int argc, char **argv)
{
    return util::runTopLevel(argc, argv, kKeys,
                             [&] { return fig6(argc, argv); });
}
