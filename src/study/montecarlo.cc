#include "study/montecarlo.hh"

#include <cmath>
#include <utility>

#include "util/logging.hh"

namespace fo4::study
{

const char *
mcDistName(McDist dist)
{
    switch (dist) {
      case McDist::Normal: return "normal";
      case McDist::Lognormal: return "lognormal";
    }
    return "?";
}

McDist
mcDistFromName(const std::string &name)
{
    if (name == "normal")
        return McDist::Normal;
    if (name == "lognormal")
        return McDist::Lognormal;
    throw util::ConfigError("unknown mc_dist '" + name +
                            "' (expected normal or lognormal)");
}

bool
VariationModel::zeroSigma() const
{
    return sigmaLatch == 0.0 && sigmaSkew == 0.0 && sigmaJitter == 0.0 &&
           sigmaDie == 0.0;
}

util::Status
VariationModel::validate() const
{
    util::ErrorCollector errs;
    const struct
    {
        const char *name;
        double value;
    } sigmas[] = {{"mc_sigma_latch", sigmaLatch},
                  {"mc_sigma_skew", sigmaSkew},
                  {"mc_sigma_jitter", sigmaJitter},
                  {"mc_sigma_die", sigmaDie}};
    for (const auto &s : sigmas) {
        if (!std::isfinite(s.value))
            errs.addf("%s must be finite (got %g)", s.name, s.value);
        else if (s.value < 0.0)
            errs.addf("%s cannot be negative (got %g)", s.name, s.value);
    }
    if (samples < 1)
        errs.addf("mc_samples %d must be at least 1", samples);
    return errs.status(util::ErrorCode::InvalidConfig);
}

int
pipelineStageCount(const core::CoreParams &params)
{
    // Latch boundaries of the scaled design: the in-order front end and
    // back end segments, the issue-wakeup loop, and the (possibly
    // segmented) window wakeup stages.  Every one is a latch-to-latch
    // path that draws its own overhead sample.
    const int stages = params.fetchStages + params.decodeStages +
                       params.renameStages + params.regReadStages +
                       params.issueLatency + params.window.wakeupStages +
                       params.commitStages;
    return stages < 1 ? 1 : stages;
}

namespace
{

/** Maximum deterministic redraws of one die before the sigma is
 *  declared physically absurd. */
constexpr std::uint64_t kMaxRejectedAttempts = 64;

/** One stage's sampled overhead decomposition. */
struct StageDraw
{
    double latch = 0.0;
    double skew = 0.0;
    double jitter = 0.0;

    double total() const { return latch + skew + jitter; }
    bool valid() const
    {
        return latch >= 0.0 && skew >= 0.0 && jitter >= 0.0;
    }
};

/**
 * Sample one component: additive sigma under Normal, multiplicative
 * shape under Lognormal.  The zero-sigma identities are bit-exact:
 * nominal + 0.0 * z == nominal and nominal * exp(0.0) == nominal.
 */
double
sampleComponent(McDist dist, double nominal, double z)
{
    if (dist == McDist::Lognormal)
        return nominal * std::exp(z);
    return nominal + z;
}

} // namespace

tech::OverheadModel
sampleOverhead(const VariationModel &variation,
               const tech::OverheadModel &nominal, int stages,
               std::size_t point, std::size_t sample)
{
    if (variation.zeroSigma())
        return nominal;
    FO4_ASSERT(stages >= 1, "a pipeline has at least one stage");

    const util::RandomStream die =
        util::RandomStream::root(variation.seed)
            .child(static_cast<std::uint64_t>(point))
            .child(static_cast<std::uint64_t>(sample));

    for (std::uint64_t attempt = 0; attempt < kMaxRejectedAttempts;
         ++attempt) {
        const util::RandomStream draw = die.child(attempt);

        // Die-level systematic: one z shared by every stage, carried by
        // the latch component — latch delay is the transistor-speed-
        // sensitive part of the overhead, so a chip-wide process corner
        // shifts it on every stage at once.
        const double zDie = draw.normal(0, 0.0, 1.0);
        const double dieLatch = variation.sigmaDie * zDie;

        StageDraw worst;
        bool haveWorst = false;
        bool rejected = false;
        for (int s = 0; s < stages; ++s) {
            const util::RandomStream stage =
                draw.child(1 + static_cast<std::uint64_t>(s));
            StageDraw d;
            d.latch = sampleComponent(
                variation.dist, nominal.latchFo4,
                stage.normal(0, 0.0, variation.sigmaLatch) + dieLatch);
            d.skew = sampleComponent(variation.dist, nominal.skewFo4,
                                     stage.normal(1, 0.0,
                                                  variation.sigmaSkew));
            d.jitter = sampleComponent(
                variation.dist, nominal.jitterFo4,
                stage.normal(2, 0.0, variation.sigmaJitter));
            if (!d.valid()) {
                rejected = true;
                break;
            }
            if (!haveWorst || d.total() > worst.total()) {
                worst = d;
                haveWorst = true;
            }
        }
        if (rejected)
            continue;
        return tech::OverheadModel::validated(worst.latch, worst.skew,
                                              worst.jitter);
    }
    throw util::ConfigError(
        "Monte Carlo overhead sampling rejected " +
        std::to_string(kMaxRejectedAttempts) +
        " consecutive draws at point " + std::to_string(point) +
        ", sample " + std::to_string(sample) +
        ": the configured sigmas make negative overheads routine; "
        "reduce mc_sigma_* or use mc_dist=lognormal");
}

std::vector<GridPoint>
expandMonteCarloGrid(const std::vector<GridPoint> &base,
                     const VariationModel &variation)
{
    const util::Status st = variation.validate();
    if (!st.isOk())
        throw util::ConfigError(st.message());

    std::vector<GridPoint> expanded;
    expanded.reserve(base.size() *
                     static_cast<std::size_t>(variation.samples));
    for (int s = 0; s < variation.samples; ++s) {
        for (std::size_t p = 0; p < base.size(); ++p) {
            GridPoint die = base[p];
            die.clock.overhead = sampleOverhead(
                variation, base[p].clock.overhead,
                pipelineStageCount(base[p].params), p,
                static_cast<std::size_t>(s));
            expanded.push_back(std::move(die));
        }
    }
    return expanded;
}

double
McSweepResult::optimumTUseful() const
{
    double best = 0.0;
    double bestBips = -1.0;
    for (const McPointResult &pt : points) {
        if (pt.all.meanBips > bestBips) {
            bestBips = pt.all.meanBips;
            best = pt.tUseful;
        }
    }
    return best;
}

namespace
{

/** Streams one class's per-die BIPS values in sample order. */
struct BandAccumulator
{
    util::StreamingMoments moments;
    util::P2Quantile p5{0.05};
    util::P2Quantile p95{0.95};

    void
    add(double bips)
    {
        moments.add(bips);
        p5.add(bips);
        p95.add(bips);
    }

    McBand
    band() const
    {
        McBand b;
        b.samples = moments.count();
        b.meanBips = moments.mean();
        b.stddevBips = moments.stddev();
        b.p5Bips = p5.value();
        b.p95Bips = p95.value();
        return b;
    }
};

} // namespace

MonteCarloRunner::MonteCarloRunner(McOptions options)
    : sweep(options.sweep), variation(options.variation),
      runner(std::move(options.checkpoint))
{
    const util::Status st = variation.validate();
    if (!st.isOk())
        throw util::ConfigError(st.message());
}

McSweepResult
MonteCarloRunner::run(const std::vector<double> &tUseful,
                      const std::vector<BenchJob> &jobs, const RunSpec &spec)
{
    const std::vector<GridPoint> base = scalingGrid(tUseful, sweep);
    const std::vector<GridPoint> expanded =
        expandMonteCarloGrid(base, variation);
    std::vector<SuiteResult> suites = runner.runGrid(expanded, jobs, spec);

    const std::size_t nBase = base.size();
    const std::size_t nSamples = static_cast<std::size_t>(variation.samples);

    McSweepResult result;
    result.samples.resize(nSamples);
    for (std::size_t s = 0; s < nSamples; ++s) {
        result.samples[s].reserve(nBase);
        for (std::size_t p = 0; p < nBase; ++p) {
            result.samples[s].push_back({tUseful[p],
                                         expanded[s * nBase + p].clock,
                                         std::move(suites[s * nBase + p])});
        }
    }

    result.points.reserve(nBase);
    for (std::size_t p = 0; p < nBase; ++p) {
        McPointResult pt;
        pt.tUseful = tUseful[p];
        pt.nominalClock = base[p].clock;
        pt.stages = pipelineStageCount(base[p].params);

        // Dice are folded in sample order — a fixed order independent of
        // thread count, resume history and fabric sharding, so the
        // streamed statistics inherit the grid's byte-identity.
        BandAccumulator accInteger, accVector, accNonVector, accAll;
        std::size_t meetsNominal = 0;
        const double nominalPeriod = pt.nominalClock.periodFo4();
        for (std::size_t s = 0; s < nSamples; ++s) {
            const SweepPointResult &die = result.samples[s][p];
            accInteger.add(
                die.suite.harmonicBips(trace::BenchClass::Integer));
            accVector.add(
                die.suite.harmonicBips(trace::BenchClass::VectorFp));
            accNonVector.add(
                die.suite.harmonicBips(trace::BenchClass::NonVectorFp));
            accAll.add(die.suite.harmonicBipsAll());
            if (die.clock.periodFo4() <=
                nominalPeriod * (1.0 + kYieldGuardbandFraction))
                ++meetsNominal;
        }
        pt.integer = accInteger.band();
        pt.vectorFp = accVector.band();
        pt.nonVectorFp = accNonVector.band();
        pt.all = accAll.band();
        pt.yield = nSamples == 0
                       ? 0.0
                       : static_cast<double>(meetsNominal) /
                             static_cast<double>(nSamples);
        result.points.push_back(std::move(pt));
    }
    return result;
}

McSweepResult
MonteCarloRunner::run(const std::vector<double> &tUseful,
                      const std::vector<trace::BenchmarkProfile> &profiles,
                      const RunSpec &spec)
{
    return run(tUseful, jobsFromProfiles(profiles), spec);
}

} // namespace fo4::study
