/**
 * @file
 * Experiment E7 — Figure 5, the paper's headline result: performance of
 * the dynamically scheduled (Alpha 21264-like) pipeline against useful
 * logic per stage, with the 1.8 FO4 overhead.  Optimal t_useful is 6 FO4
 * for integer codes, 4 FO4 for vector FP and 5 FO4 for non-vector FP;
 * the corresponding integer clock period is 7.8 FO4 (~3.6 GHz at 100nm).
 *
 * Durability: `checkpoint=PATH` journals every finished grid cell, so a
 * crash or Ctrl-C loses at most the in-flight cells and a rerun with the
 * same arguments resumes where it stopped (pass `resume=0` to discard an
 * existing journal and start over).  Ctrl-C cancels cooperatively: the
 * sweep drains, flushes the journal, and exits with status 130.
 */

#include <cstdio>
#include <memory>

#include "bench/common.hh"
#include "study/checkpoint.hh"
#include "study/runner.hh"
#include "study/scaling.hh"
#include "trace/spec2000.hh"
#include "util/csv.hh"
#include "util/table.hh"

using namespace fo4;

namespace
{

const std::vector<util::KeyDoc> kKeys = study::runKeys(
    {"instructions", "warmup", "prewarm", "sim_impl", "jobs", "checkpoint",
     "resume", "attempts"},
    bench::keyUnion({{{"csv", "write the figure's data points to this CSV"}},
                     bench::observabilityKeys()}));
const study::RunSpec kDefaults{.instructions = 80000,
                               .warmup = 10000,
                               .prewarm = 500000,
                               .impl = study::SimImpl::Batched};

int
fig5(int argc, char **argv)
{
    bench::banner(
        "E7 / Figure 5",
        "out-of-order pipeline optima: integer 6 FO4, vector FP 4 FO4, "
        "non-vector FP 5 FO4; optimal integer clock period 7.8 FO4 "
        "(~3.6 GHz at 100nm)");

    const study::RunArgs args(argc, argv, kKeys);
    const auto spec = args.spec(kDefaults);
    const auto profiles = trace::spec2000Profiles();
    const auto ts = bench::usefulSweep();

    const util::Config &cfg = args.config();
    const auto obs = bench::observabilityFromArgs(cfg);
    const std::string csvPath = cfg.getString("csv", "");
    const bool verbose = cfg.getBool("verbose", false);

    // Ctrl-C drains the sweep, flushes the journal, exits 130.
    util::CancelToken cancel;
    bench::installSigintCancel(cancel);

    study::CheckpointOptions copts = args.checkpointOptions();
    copts.cancel = &cancel;
    study::CheckpointedRunner runner(std::move(copts));

    const auto points =
        runner.sweepScaling(ts, study::SweepOptions{}, profiles, spec);
    if (verbose) {
        const auto &rep = runner.report();
        std::printf("cells: %zu total, %zu replayed from checkpoint, %zu "
                    "simulated, %zu retried attempts%s\n",
                    rep.totalCells, rep.replayedCells, rep.executedCells,
                    rep.retriedAttempts,
                    rep.tornTailDiscarded ? " (torn tail discarded)" : "");
    }

    // Optional machine-readable series for replotting: csv=/path/out.csv
    // (written atomically — the file appears only when complete).
    std::unique_ptr<util::AtomicCsvFile> csv;
    if (!csvPath.empty()) {
        csv = std::make_unique<util::AtomicCsvFile>(csvPath);
        csv->writeRow({"t_useful", "period_fo4", "ghz", "benchmark",
                       "class", "ipc", "bips"});
    }

    util::TextTable t;
    t.setHeader({"t_useful", "period", "GHz", "int", "vector-fp",
                 "non-vector-fp", "all"});

    std::vector<double> intB, vfpB, nvfpB, allB;
    for (const auto &point : points) {
        const double u = point.tUseful;
        const auto &clock = point.clock;
        const auto &suite = point.suite;
        if (csv) {
            for (const auto &b : suite.benchmarks) {
                csv->writeRow({util::TextTable::num(u, 0),
                               util::TextTable::num(clock.periodFo4(), 1),
                               util::TextTable::num(clock.frequencyGhz(),
                                                    3),
                               b.name, trace::benchClassName(b.cls),
                               util::TextTable::num(b.sim.ipc(), 4),
                               util::TextTable::num(b.bips, 4)});
            }
        }
        intB.push_back(suite.harmonicBips(trace::BenchClass::Integer));
        vfpB.push_back(suite.harmonicBips(trace::BenchClass::VectorFp));
        nvfpB.push_back(
            suite.harmonicBips(trace::BenchClass::NonVectorFp));
        allB.push_back(suite.harmonicBipsAll());
        t.addRow({util::TextTable::num(u, 0),
                  util::TextTable::num(clock.periodFo4(), 1),
                  util::TextTable::num(clock.frequencyGhz(), 2),
                  util::TextTable::num(intB.back(), 3),
                  util::TextTable::num(vfpB.back(), 3),
                  util::TextTable::num(nvfpB.back(), 3),
                  util::TextTable::num(allB.back(), 3)});
    }
    if (csv)
        csv->commit();
    t.print(std::cout);

    const double optInt = bench::argmax(ts, intB);
    const double optVfp = bench::argmax(ts, vfpB);
    const double optNvfp = bench::argmax(ts, nvfpB);
    const double optAll = bench::argmax(ts, allB);
    const auto pInt = bench::plateau(ts, intB);
    const auto pVfp = bench::plateau(ts, vfpB);
    const auto pNvfp = bench::plateau(ts, nvfpB);
    std::printf("\noptimal t_useful (0.5%% plateau in brackets):\n");
    std::printf("  integer:       %.0f [%s]  (paper 6)\n", optInt,
                bench::plateauStr(pInt).c_str());
    std::printf("  vector FP:     %.0f [%s]  (paper 4)\n", optVfp,
                bench::plateauStr(pVfp).c_str());
    std::printf("  non-vector FP: %.0f [%s]  (paper 5)\n", optNvfp,
                bench::plateauStr(pNvfp).c_str());
    std::printf("  all:           %.0f  (paper 6)\n", optAll);
    std::printf("integer clock period at the paper's 6 FO4 point: %.1f "
                "FO4 = %.2f GHz (paper: 7.8 FO4, ~3.6 GHz)\n",
                study::scaledClock(6).periodFo4(),
                study::scaledClock(6).frequencyGhz());

    // stats=: per-benchmark stall attribution and occupancy for every
    // sweep point (deterministic at any jobs= value).
    if (obs.wantsStats())
        bench::writeStats(obs.statsPath, bench::sweepStatsRows(points));

    // trace=: pipeline timeline of the first benchmark at the paper's
    // 6 FO4 optimum, rerun serially with the ring attached.
    bench::maybeWriteTrace(obs, study::scaledCoreParams(6),
                           study::scaledClock(6),
                           study::BenchJob::fromProfile(profiles.front()),
                           spec);

    bench::printLatencyCacheStats(verbose);
    bench::printMetricsRegistry(verbose);

    std::string v = "vector FP prefers the deepest pipeline, integer the "
                    "shallowest of the three optima, non-vector FP in "
                    "between; vector FP outperforms the other classes "
                    "throughout";
    if (!bench::onPlateau(pInt, 6) || !bench::onPlateau(pVfp, 4) ||
        !bench::onPlateau(pNvfp, 5)) {
        v += "; WARNING: a paper optimum fell off its plateau";
    } else {
        v += "; the paper's 6/4/5 optima all lie on the model's "
             "plateaus";
    }
    bench::verdict(v);
    return 0;
}

} // namespace

int
main(int argc, char **argv)
{
    return fo4::util::runTopLevel(argc, argv, kKeys,
                                  [&] { return fig5(argc, argv); });
}
