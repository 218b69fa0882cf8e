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

#include <cstdio>
#include <memory>
#include <stdexcept>

#include "bench/common.hh"
#include "study/montecarlo.hh"
#include "study/scaling.hh"
#include "trace/spec2000.hh"
#include "util/csv.hh"
#include "util/table.hh"

using namespace fo4;

namespace
{

const std::vector<util::KeyDoc> kKeys = bench::keyUnion(
    {bench::specKeys(),
     {bench::jobsKey()},
     {{"bench", "comma list of SPEC 2000 profiles (default 176.gcc)"},
      {"class", "sweep a whole class: integer | vfp | nvfp | all"},
      {"t_useful", "comma list of useful-logic depths (default 2..16)"},
      {"mc_samples", "Monte Carlo dice per sweep point"},
      {"mc_dist", "per-stage draw family: normal | lognormal"},
      {"mc_sigma_latch", "per-stage latch overhead sigma (FO4 under "
                         "normal, lognormal shape otherwise)"},
      {"mc_sigma_skew", "per-stage clock skew sigma"},
      {"mc_sigma_jitter", "per-stage clock jitter sigma"},
      {"mc_sigma_die", "die-level systematic corner sigma (carried by "
                       "the latch component on every stage)"},
      {"mc_seed", "root seed of the sampling streams"},
      {"mc_sigma_scale", "comma list of sigma multipliers; the optimum "
                         "is reported per scale"},
      {"csv", "write the aggregate yield/band curve to this CSV"},
      {"samples_csv", "write per-die rows in the Fig 5 CSV schema "
                      "(single sigma scale only)"},
      {"checkpoint", "journal file; an interrupted sweep resumes from it"},
      {"resume", "resume=0 discards an existing journal and starts over"},
      {"attempts", "max attempts per cell for transient failures"}},
     bench::observabilityKeys()});

std::vector<double>
parseDoubleList(const std::string &text, const char *key)
{
    std::vector<double> out;
    std::size_t start = 0;
    while (start <= text.size()) {
        std::size_t comma = text.find(',', start);
        if (comma == std::string::npos)
            comma = text.size();
        const std::string item = text.substr(start, comma - start);
        if (!item.empty()) {
            std::size_t pos = 0;
            double v = 0.0;
            try {
                v = std::stod(item, &pos);
            } catch (const std::exception &) {
                pos = 0;
            }
            if (pos != item.size()) {
                throw util::ConfigError(util::strprintf(
                    "%s: '%s' is not a number", key, item.c_str()));
            }
            out.push_back(v);
        }
        if (comma == text.size())
            break;
        start = comma + 1;
    }
    if (out.empty())
        throw util::ConfigError(
            util::strprintf("%s: empty list", key));
    return out;
}

std::vector<trace::BenchmarkProfile>
pickProfiles(const util::Config &cfg)
{
    using namespace trace;
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
        throw util::ConfigError(util::strprintf(
            "unknown class '%s' (use integer, vfp, nvfp or all)",
            cls.c_str()));
    }
    // bench= accepts a comma list, like fo4ctl's request syntax.
    std::vector<BenchmarkProfile> out;
    const std::string names = cfg.getString("bench", "176.gcc");
    std::size_t start = 0;
    while (start <= names.size()) {
        std::size_t comma = names.find(',', start);
        if (comma == std::string::npos)
            comma = names.size();
        const std::string name = names.substr(start, comma - start);
        if (!name.empty())
            out.push_back(spec2000Profile(name));
        if (comma == names.size())
            break;
        start = comma + 1;
    }
    if (out.empty())
        throw util::ConfigError("bench=: empty benchmark list");
    return out;
}

int
mcYield(int argc, char **argv)
{
    bench::banner(
        "E12 / Monte Carlo yield",
        "with per-stage overhead variation the yield-weighted optimum "
        "moves to shallower pipelines (larger t_useful) than the "
        "deterministic 6 FO4 optimum, because deeper pipelines clock at "
        "the worst of more per-stage draws");

    const auto spec = bench::specFromArgs(argc, argv);
    const util::Config cfg = util::Config::fromArgs(argc, argv);
    cfg.checkKnown(kKeys);
    const auto obs = bench::observabilityFromArgs(argc, argv);
    const auto profiles = pickProfiles(cfg);
    const auto ts = cfg.has("t_useful")
                        ? parseDoubleList(cfg.getString("t_useful", ""),
                                          "t_useful")
                        : bench::usefulSweep();

    study::VariationModel base;
    base.dist = study::mcDistFromName(cfg.getString("mc_dist", "normal"));
    base.sigmaLatch = cfg.getDouble("mc_sigma_latch", 0.05);
    base.sigmaSkew = cfg.getDouble("mc_sigma_skew", 0.02);
    base.sigmaJitter = cfg.getDouble("mc_sigma_jitter", 0.03);
    base.sigmaDie = cfg.getDouble("mc_sigma_die", 0.05);
    base.seed = static_cast<std::uint64_t>(cfg.getInt("mc_seed", 0));
    base.samples = static_cast<int>(cfg.getPositiveInt("mc_samples", 16));

    const auto scales = parseDoubleList(
        cfg.getString("mc_sigma_scale", "1"), "mc_sigma_scale");
    const std::string csvPath = cfg.getString("csv", "");
    const std::string samplesCsvPath = cfg.getString("samples_csv", "");
    if (!samplesCsvPath.empty() && scales.size() != 1) {
        throw util::ConfigError("samples_csv= needs a single "
                                "mc_sigma_scale value");
    }
    const std::string checkpointPath = cfg.getString("checkpoint", "");
    const bool resume = cfg.getBool("resume", true);
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
    for (std::size_t si = 0; si < scales.size(); ++si) {
        const double scale = scales[si];
        study::McOptions mopts;
        mopts.variation = base;
        mopts.variation.sigmaLatch *= scale;
        mopts.variation.sigmaSkew *= scale;
        mopts.variation.sigmaJitter *= scale;
        mopts.variation.sigmaDie *= scale;
        auto &copts = mopts.checkpoint;
        copts.journalPath =
            checkpointPath.empty()
                ? std::string()
                : (scales.size() == 1
                       ? checkpointPath
                       : checkpointPath +
                             util::strprintf(".scale%zu", si));
        if (!copts.journalPath.empty() && !resume)
            std::remove(copts.journalPath.c_str());
        copts.threads = bench::jobsFromArgs(argc, argv);
        copts.cancel = &cancel;
        copts.retry.maxAttempts =
            static_cast<int>(cfg.getPositiveInt("attempts", 1));

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

    std::string v = "deeper pipelines pay the worst of more per-stage "
                    "draws, so variation taxes small t_useful hardest";
    bool monotone = true;
    for (std::size_t i = 1; i < optima.size(); ++i) {
        if (optima[i] < optima[i - 1])
            monotone = false;
    }
    if (scales.size() > 1) {
        v += monotone ? "; the yield-weighted optimum moved monotonically "
                        "to shallower (or equal) pipelines as sigma grew"
                      : "; WARNING: the optimum moved deeper as sigma "
                        "grew";
    }
    bench::verdict(v);
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
