/**
 * @file
 * Experiment E10 — Figure 8 / Section 4.6 of the paper: IPC sensitivity
 * to the three critical loops of the data path, each extended by 0..15
 * cycles over its Alpha 21264 length.  IPC is most sensitive to the
 * issue-wakeup loop, then the DL1 load-use loop, and least sensitive to
 * the branch misprediction penalty.
 *
 * The stall-attribution layer makes the mechanism visible: extending a
 * loop inflates exactly the stall cause that loop feeds (load-use ->
 * raw-load-use/dcache stalls, mispredict penalty -> branch-mispredict
 * stalls), which is the paper's explanation for *why* the loops rank
 * the way they do.  `stats=PATH` writes the per-cause counts for every
 * (loop, extension) cell.
 */

#include "bench/common.hh"
#include "core/core.hh"
#include "study/checkpoint.hh"
#include "study/runner.hh"
#include "study/scaling.hh"
#include "trace/spec2000.hh"
#include "util/table.hh"

using namespace fo4;

namespace
{

const char *const kLoopNames[3] = {"issue-wakeup", "load-use",
                                   "branch-mispred"};

core::CoreParams
extendedParams(int loop, int ext)
{
    auto p = core::CoreParams::alpha21264();
    if (loop == 0)
        p.extraWakeup = ext;
    else if (loop == 1)
        p.extraLoadUse = ext;
    else
        p.extraMispredictPenalty = ext;
    return p;
}

} // namespace

const std::vector<util::KeyDoc> kKeys =
    study::runKeys({"instructions", "warmup", "prewarm", "sim_impl", "jobs"},
                   bench::observabilityKeys());
const study::RunSpec kDefaults{.instructions = 60000,
                               .warmup = 8000,
                               .prewarm = 400000,
                               .impl = study::SimImpl::Batched};

int
fig8(int argc, char **argv)
{
    bench::banner(
        "E10 / Figure 8",
        "relative integer IPC when each critical loop is extended over "
        "its 21264 length: issue-wakeup is the most sensitive loop, then "
        "load-use (DL1), then the branch misprediction penalty");

    const study::RunArgs args(argc, argv, kKeys);
    const auto spec = args.spec(kDefaults);
    const auto obs = bench::observabilityFromArgs(args.config());
    const bool verbose = args.config().getBool("verbose", false);
    const auto profiles =
        trace::spec2000Profiles(trace::BenchClass::Integer);
    const std::vector<int> extensions{0, 1, 2, 4, 6, 8, 10, 12, 15};

    // The loops are an IPC experiment (no clock scaling); the clock only
    // converts to BIPS, which this figure never uses.
    const auto clock = study::scaledClock(6);

    // One grid: the 21264 baseline, then every (extension, loop) cell.
    std::vector<study::GridPoint> points{
        {core::CoreParams::alpha21264(), clock}};
    for (const int ext : extensions) {
        for (int loop = 0; loop < 3; ++loop)
            points.push_back({extendedParams(loop, ext), clock});
    }
    const auto jobs = study::jobsFromProfiles(profiles);
    const auto suites = study::CheckpointedRunner(args.checkpointOptions())
                            .runGrid(points, jobs, spec);
    const double baseIpc = suites.front().harmonicIpcAll();

    std::vector<std::vector<std::string>> stats;
    stats.push_back(bench::statsHeader("config"));

    util::TextTable t;
    t.setHeader({"+cycles", "issue-wakeup", "load-use", "branch-mispred"});
    std::vector<double> atMax(3);
    // Per-loop stall share of the cause that loop feeds, at +0 and +15:
    // the attribution evidence for the sensitivity ordering.
    const core::StallCause fedCause[3] = {
        core::StallCause::WindowFull, core::StallCause::RawLoadUse,
        core::StallCause::BranchMispredict};
    std::vector<std::uint64_t> causeAt0(3), causeAtMax(3);
    auto next = suites.begin() + 1;
    for (const int ext : extensions) {
        std::vector<std::string> row{util::TextTable::num(
            std::int64_t{ext})};
        for (int loop = 0; loop < 3; ++loop) {
            const auto &suite = *next++;
            const double rel = suite.harmonicIpcAll() / baseIpc;
            const auto stalls = suite.aggregateStalls();
            if (ext == 0)
                causeAt0[loop] = stalls[fedCause[loop]];
            if (ext == extensions.back()) {
                atMax[loop] = rel;
                causeAtMax[loop] = stalls[fedCause[loop]];
            }
            for (auto &r : bench::statsRows(
                     util::strprintf("%s+%d", kLoopNames[loop], ext),
                     suite))
                stats.push_back(std::move(r));
            row.push_back(util::TextTable::num(rel, 3));
        }
        t.addRow(row);
    }
    t.print(std::cout);

    std::printf("\nrelative IPC at +15 cycles: issue-wakeup %.3f < "
                "load-use %.3f < mispredict %.3f\n",
                atMax[0], atMax[1], atMax[2]);
    std::printf("stall cycles charged to each loop's cause, +0 -> +15:\n");
    for (int loop = 0; loop < 3; ++loop) {
        std::printf("  %-14s (%s): %llu -> %llu\n", kLoopNames[loop],
                    core::stallCauseName(fedCause[loop]),
                    static_cast<unsigned long long>(causeAt0[loop]),
                    static_cast<unsigned long long>(causeAtMax[loop]));
    }

    if (obs.wantsStats())
        bench::writeStats(obs.statsPath, stats);
    bench::maybeWriteTrace(obs, core::CoreParams::alpha21264(), clock,
                           study::BenchJob::fromProfile(profiles.front()),
                           spec);
    bench::printLatencyCacheStats(verbose);
    bench::printMetricsRegistry(verbose);

    bench::verdict(
        atMax[0] < atMax[1] && atMax[1] < atMax[2]
            ? "sensitivity ordering matches the paper: issue-wakeup > "
              "load-use > branch misprediction"
            : "ORDERING MISMATCH with the paper");
    return 0;
}

int
main(int argc, char **argv)
{
    return util::runTopLevel(argc, argv, kKeys,
                             [&] { return fig8(argc, argv); });
}
