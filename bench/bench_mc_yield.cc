/**
 * @file
 * Experiment E12 — process-variation Monte Carlo: the yield-aware
 * optimal pipeline depth.  The paper's Fig 5 optimum assumes every
 * stage pays exactly 1.8 FO4 of overhead; here each die draws per-stage
 * latch/skew/jitter samples (plus a die-level systematic corner) and
 * clocks at its worst stage, so deeper pipelines — more stages, more
 * draws — pay a growing max-of-samples penalty.  The bench sweeps the
 * sigma scale and reports how the yield-weighted optimum migrates away
 * from the deterministic 6 FO4 point as variation grows.
 *
 * Identity: sampling is counter-based (study::sampleOverhead), so the
 * run is byte-identical at any jobs= value and across checkpoint=
 * resume cycles; with mc_sigma_*=0 and mc_samples=1 the samples_csv=
 * output is byte-identical to bench_fig5_ooo's csv= (the zero-sigma
 * Monte Carlo *is* the deterministic sweep — CI holds us to the cmp).
 *
 * Durability: `checkpoint=PATH` journals every finished die cell; an
 * interrupted run resumes where it stopped (resume=0 starts over).
 * With several mc_sigma_scale= values each scale journals to
 * PATH.scale<i>.
 */

#include <algorithm>
#include <cstdio>
#include <memory>

#include "bench/common.hh"
#include "study/montecarlo.hh"
#include "study/scaling.hh"
#include "trace/spec2000.hh"
#include "util/csv.hh"
#include "util/table.hh"

using namespace fo4;

namespace
{

const std::vector<util::KeyDoc> kKeys = study::runKeys(
    {"instructions", "warmup", "prewarm", "sim_impl", "jobs", "bench",
     "class", "t_useful", "mc_samples", "mc_dist", "mc_sigma_latch",
     "mc_sigma_skew", "mc_sigma_jitter", "mc_sigma_die", "mc_seed",
     "mc_sigma_scale", "checkpoint", "resume", "attempts"},
    bench::keyUnion(
        {{{"csv", "write the aggregate yield/band curve to this CSV"},
          {"samples_csv", "write per-die rows in the Fig 5 CSV schema "
                          "(single sigma scale only)"}},
         bench::observabilityKeys()}));
const study::RunSpec kDefaults{.instructions = 80000,
                               .warmup = 10000,
                               .prewarm = 500000,
                               .impl = study::SimImpl::Batched};
const study::VariationModel kVariation{.sigmaLatch = 0.05,
                                       .sigmaSkew = 0.02,
                                       .sigmaJitter = 0.03,
                                       .sigmaDie = 0.05,
                                       .samples = 16};

int
mcYield(int argc, char **argv)
{
    bench::banner(
        "E12 / Monte Carlo yield",
        "with per-stage overhead variation the yield-weighted optimum "
        "moves to shallower pipelines (larger t_useful) than the "
        "deterministic 6 FO4 optimum, because deeper pipelines clock at "
        "the worst of more per-stage draws");

    const study::RunArgs args(argc, argv, kKeys);
    const auto spec = args.spec(kDefaults);
    const util::Config &cfg = args.config();
    const auto obs = bench::observabilityFromArgs(cfg);
    const auto profiles = args.profiles("176.gcc");
    const auto ts = args.numbers("t_useful", bench::usefulSweep());
    const study::VariationModel base = args.variation(kVariation);
    const auto scales = args.numbers("mc_sigma_scale", {1});
    const std::string csvPath = cfg.getString("csv", "");
    const std::string samplesCsvPath = cfg.getString("samples_csv", "");
    if (!samplesCsvPath.empty() && scales.size() != 1) {
        throw util::ConfigError("samples_csv= needs a single "
                                "mc_sigma_scale value");
    }
    const bool verbose = cfg.getBool("verbose", false);

    // Ctrl-C drains the sweep, flushes the journal, exits 130.
    util::CancelToken cancel;
    bench::installSigintCancel(cancel);

    std::unique_ptr<util::AtomicCsvFile> csv;
    if (!csvPath.empty()) {
        csv = std::make_unique<util::AtomicCsvFile>(csvPath);
        csv->writeRow({"sigma_scale", "t_useful", "period_fo4", "stages",
                       "class", "samples", "mean_bips", "stddev_bips",
                       "p5_bips", "p95_bips", "yield"});
    }

    std::vector<double> optima;
    bool taxed = true;
    for (std::size_t si = 0; si < scales.size(); ++si) {
        const double scale = scales[si];
        study::McOptions mopts;
        mopts.variation = base;
        mopts.variation.sigmaLatch *= scale;
        mopts.variation.sigmaSkew *= scale;
        mopts.variation.sigmaJitter *= scale;
        mopts.variation.sigmaDie *= scale;
        mopts.checkpoint = args.checkpointOptions(
            scales.size() == 1 ? "" : util::strprintf(".scale%zu", si));
        mopts.checkpoint.cancel = &cancel;

        study::MonteCarloRunner runner(mopts);
        const study::McSweepResult result =
            runner.run(ts, profiles, spec);
        if (verbose) {
            const auto &rep = runner.report();
            std::printf("scale %g: %zu cells total, %zu replayed from "
                        "checkpoint, %zu simulated, %zu priced from a "
                        "shared simulation, %zu retried attempts%s\n",
                        scale, rep.totalCells, rep.replayedCells,
                        rep.executedCells - rep.sharedCells,
                        rep.sharedCells, rep.retriedAttempts,
                        rep.tornTailDiscarded ? " (torn tail discarded)"
                                              : "");
        }

        std::printf("sigma scale %g (%d dice/point, %s):\n", scale,
                    mopts.variation.samples,
                    study::mcDistName(mopts.variation.dist));
        util::TextTable t;
        t.setHeader({"t_useful", "period", "stages", "mean BIPS",
                     "stddev", "p5", "p95", "yield"});
        for (const auto &pt : result.points) {
            t.addRow({util::TextTable::num(pt.tUseful, 0),
                      util::TextTable::num(pt.nominalClock.periodFo4(), 1),
                      util::strprintf("%d", pt.stages),
                      util::TextTable::num(pt.all.meanBips, 3),
                      util::TextTable::num(pt.all.stddevBips, 3),
                      util::TextTable::num(pt.all.p5Bips, 3),
                      util::TextTable::num(pt.all.p95Bips, 3),
                      util::TextTable::num(pt.yield, 3)});
            if (csv) {
                const struct
                {
                    const char *name;
                    const study::McBand &band;
                } rows[] = {{"integer", pt.integer},
                            {"vector-fp", pt.vectorFp},
                            {"non-vector-fp", pt.nonVectorFp},
                            {"all", pt.all}};
                for (const auto &row : rows) {
                    csv->writeRow(
                        {util::TextTable::num(scale, 3),
                         util::TextTable::num(pt.tUseful, 0),
                         util::TextTable::num(
                             pt.nominalClock.periodFo4(), 1),
                         util::strprintf("%d", pt.stages), row.name,
                         util::strprintf(
                             "%llu", static_cast<unsigned long long>(
                                         row.band.samples)),
                         util::TextTable::num(row.band.meanBips, 4),
                         util::TextTable::num(row.band.stddevBips, 4),
                         util::TextTable::num(row.band.p5Bips, 4),
                         util::TextTable::num(row.band.p95Bips, 4),
                         util::TextTable::num(pt.yield, 4)});
                }
            }
        }
        t.print(std::cout);
        const double opt = result.optimumTUseful();
        optima.push_back(opt);
        const auto [deepest, shallowest] = std::minmax_element(
            result.points.begin(), result.points.end(),
            [](const auto &a, const auto &b) {
                return a.tUseful < b.tUseful;
            });
        taxed = taxed && deepest->yield <= shallowest->yield &&
                deepest->all.p5Bips * shallowest->all.meanBips <=
                    shallowest->all.p5Bips * deepest->all.meanBips;
        std::printf("yield-weighted optimum at sigma scale %g: %.0f FO4 "
                    "useful logic per stage\n\n",
                    scale, opt);

        // samples_csv=: per-die rows in bench_fig5_ooo's exact CSV
        // schema.  With mc_sigma_*=0 and mc_samples=1 this file is
        // byte-identical to the deterministic bench's csv= output.
        if (!samplesCsvPath.empty()) {
            util::AtomicCsvFile sampleCsv(samplesCsvPath);
            sampleCsv.writeRow({"t_useful", "period_fo4", "ghz",
                                "benchmark", "class", "ipc", "bips"});
            for (const auto &die : result.samples) {
                for (const auto &point : die) {
                    for (const auto &b : point.suite.benchmarks) {
                        sampleCsv.writeRow(
                            {util::TextTable::num(point.tUseful, 0),
                             util::TextTable::num(
                                 point.clock.periodFo4(), 1),
                             util::TextTable::num(
                                 point.clock.frequencyGhz(), 3),
                             b.name, trace::benchClassName(b.cls),
                             util::TextTable::num(b.sim.ipc(), 4),
                             util::TextTable::num(b.bips, 4)});
                    }
                }
            }
            sampleCsv.commit();
        }
    }
    if (csv)
        csv->commit();

    std::vector<bench::Clause> clauses{
        {taxed, "deeper pipelines pay the worst of more per-stage draws, "
                "so variation taxes small t_useful hardest (yield and "
                "p5/mean at the smallest t_useful no better than at the "
                "largest)"}};
    if (scales.size() > 1) {
        clauses.push_back(
            {std::is_sorted(optima.begin(), optima.end()),
             "the yield-weighted optimum moved monotonically to "
             "shallower (or equal) pipelines as sigma grew"});
    }
    bench::verdict(clauses);
    bench::printLatencyCacheStats(verbose);
    bench::printMetricsRegistry(verbose);
    return 0;
}

} // namespace

int
main(int argc, char **argv)
{
    return fo4::util::runTopLevel(argc, argv, kKeys,
                                  [&] { return mcYield(argc, argv); });
}
