/**
 * @file
 * Process-variation Monte Carlo: yield-aware optimal pipeline depth.
 *
 * The paper's sweep assumes the per-stage latch+skew+jitter overhead is
 * a *constant* 1.8 FO4.  In sub-100nm nodes it is a per-stage random
 * variable (Datta et al., "Statistical Modeling of Pipeline Delay under
 * Process Variation"), and because a die clocks at the speed of its
 * slowest stage, deeper pipelines — more stages — pay a growing
 * max-of-samples penalty.  That shifts the *yield-weighted* optimal
 * logic depth away from the deterministic optimum, a result the 2002
 * paper could not compute.  This module computes it.
 *
 * Model (DESIGN.md §17): for each sweep point (t_useful) and each Monte
 * Carlo sample (die), every pipeline stage draws its own overhead
 * components around the nominal OverheadModel — normal (additive
 * sigma, FO4) or lognormal (multiplicative shape sigma) — plus one
 * die-level systematic component shared by all stages.  The die's
 * effective overhead is the worst stage's total; its clock period is
 * t_useful + that total; BIPS follows at the die's own binned
 * frequency.  A zero-sigma model reproduces the nominal overhead
 * bit-exactly, so a zero-sigma Monte Carlo run *is* the deterministic
 * sweep, byte for byte.
 *
 * Statistical identity contract: sampling is counter-based and
 * splittable (util::RandomStream keyed by (mc_seed, point, sample,
 * attempt, stage)), never stateful, so a sampled grid is a pure
 * function of its inputs.  Samples are therefore *just more grid
 * cells*: the expanded (sample x point, job) grid runs through the
 * same ParallelRunner/CheckpointedRunner engine as every other sweep,
 * and inherits its contracts wholesale — byte-identical results at any
 * jobs=, across checkpoint/resume (the grid fingerprint hashes every
 * sampled clock), and when cells are sharded across the fo4coord
 * fabric (workers re-derive identical sampled grids from the request).
 * Because a die differs from its point only in the clock, which prices
 * IPC into BIPS and nothing else, every executor simulates each
 * (point, job) once and prices the other dice from it
 * (study::simulationOwners, study::priceAtClock; DESIGN.md §17).
 */

#ifndef FO4_STUDY_MONTECARLO_HH
#define FO4_STUDY_MONTECARLO_HH

#include <cstdint>
#include <functional>
#include <string>
#include <vector>

#include "study/checkpoint.hh"
#include "study/parallel.hh"
#include "util/means.hh"
#include "util/random.hh"
#include "util/status.hh"

namespace fo4::study
{

/** Distribution family of the per-stage overhead draws. */
enum class McDist
{
    /** Components are nominal + sigma * z (sigma additive, in FO4). */
    Normal,
    /** Components are nominal * exp(sigma * z) (sigma is the lognormal
     *  shape; medians equal the nominal, draws stay positive). */
    Lognormal,
};

/** Stable name of a distribution ("normal", "lognormal"). */
const char *mcDistName(McDist dist);

/** Parse a distribution name; throws ConfigError on unknown values. */
McDist mcDistFromName(const std::string &name);

/**
 * The variation model of one Monte Carlo study: per-stage sigmas for
 * each overhead component, a die-level systematic sigma, the sample
 * count and the stream seed.
 */
struct VariationModel
{
    McDist dist = McDist::Normal;
    /** Per-stage (within-die) variation of each overhead component. */
    double sigmaLatch = 0.0;
    double sigmaSkew = 0.0;
    double sigmaJitter = 0.0;
    /** Die-level systematic component, shared by every stage of a
     *  sample: additive sigma (FO4) under Normal, multiplicative shape
     *  under Lognormal. */
    double sigmaDie = 0.0;
    /** Root seed of the sampling streams (mc_seed=). */
    std::uint64_t seed = 0;
    /** Dice per grid point (mc_samples=); >= 1. */
    int samples = 1;

    /** All sigmas exactly zero: the study degenerates to the
     *  deterministic sweep (and is guaranteed to reproduce it). */
    bool zeroSigma() const;

    /** Report every out-of-range field at once. */
    util::Status validate() const;
};

/**
 * Latch boundaries that draw independent variation at a scaled design
 * point: the depth of the scaled pipeline (front end + issue + execute
 * + commit segments).  Grows as t_useful shrinks — the mechanism by
 * which variation penalizes deep pipelines.
 */
int pipelineStageCount(const core::CoreParams &params);

/**
 * Sample the effective overhead of die `sample` at sweep point `point`:
 * worst stage total of `stages` per-stage draws around `nominal`, plus
 * the die-level systematic component.  A pure function of its
 * arguments (counter-based streams; see the file comment), so every
 * process that knows the coordinates derives the same die.  Zero-sigma
 * models return `nominal` unchanged, bit for bit.
 *
 * Negative totals (possible under Normal with large sigmas) are
 * rejection-sampled deterministically — the draw moves to the next
 * substream — and after 64 rejected attempts the model is refused with
 * a typed ConfigError (the sigma is physically absurd); draws are
 * never silently clamped.
 */
tech::OverheadModel sampleOverhead(const VariationModel &variation,
                                   const tech::OverheadModel &nominal,
                                   int stages, std::size_t point,
                                   std::size_t sample);

/**
 * Expand a base sweep grid into its Monte Carlo sample grid,
 * sample-major: expanded[s * base.size() + p] is die `s` of base point
 * `p` — identical core parameters, clock overhead resampled per die.
 * With a zero-sigma model the expansion is the base grid repeated
 * verbatim (and with samples == 1, the base grid itself, equal
 * gridFingerprint and all).
 */
std::vector<GridPoint>
expandMonteCarloGrid(const std::vector<GridPoint> &base,
                     const VariationModel &variation);

/**
 * Frequency guardband of the yield bin: a die yields when its sampled
 * period is within this fraction of the nominal period.  Binning at the
 * bare nominal would be useless under worst-stage sampling — the max of
 * many mean-centred draws beats the nominal almost never — so shipping
 * parts are binned with margin, per industry practice.  Aggregation
 * only: never touches simulation results or the identity contract.
 */
constexpr double kYieldGuardbandFraction = 0.10;

/** One class's confidence band at one sweep point. */
struct McBand
{
    std::uint64_t samples = 0;
    double meanBips = 0.0;
    double stddevBips = 0.0;
    double p5Bips = 0.0;
    double p95Bips = 0.0;
};

/** Aggregated Monte Carlo outcome of one base sweep point. */
struct McPointResult
{
    double tUseful = 0.0;
    /** The deterministic (nominal-overhead) clock of the point. */
    tech::ClockModel nominalClock;
    /** Stages that drew independent variation at this depth. */
    int stages = 0;
    /** Bands per benchmark class and overall (harmonic BIPS per die,
     *  arithmetic statistics over dice). */
    McBand integer, vectorFp, nonVectorFp, all;
    /** Fraction of dice whose sampled period meets the nominal period
     *  plus the kYieldGuardbandFraction margin (1.0 for zero-sigma
     *  models). */
    double yield = 0.0;
};

/** A whole Monte Carlo sweep. */
struct McSweepResult
{
    /** Aggregates, one per base sweep point, in sweep order. */
    std::vector<McPointResult> points;
    /** Raw per-die sweeps, sample-major: samples[s][p] is die s at base
     *  point p, carrying the die's own sampled clock. */
    std::vector<std::vector<SweepPointResult>> samples;

    /** t_useful maximizing the mean ("yield-weighted") overall BIPS. */
    double optimumTUseful() const;
};

/** Knobs of the Monte Carlo runner. */
struct McOptions
{
    /** Scaling, nominal overhead and (ignored) threads of the base
     *  sweep; `threads` below is the one that counts. */
    SweepOptions sweep;
    VariationModel variation;
    /** Journal file; empty disables durability (see CheckpointOptions). */
    std::string journalPath;
    /** Worker threads; 1 = serial, <= 0 = hardware thread count. */
    int threads = 1;
    RetryPolicy retry;
    const util::CancelToken *cancel = nullptr;
    /** Per-attempt observability hook (see CheckpointOptions::onAttempt);
     *  used by tests to inject cancellation at exact cell boundaries. */
    std::function<void(std::size_t point, std::size_t job, int attempt)>
        onAttempt;
};

/**
 * The Monte Carlo study engine: expands the (t_useful x sample) grid,
 * runs it through study::CheckpointedRunner (journaling, retry and
 * cancellation included), and aggregates yield-weighted BIPS curves
 * with confidence bands.  Throws ConfigError on invalid inputs —
 * including an invalid VariationModel — before any cell simulates.
 */
class MonteCarloRunner
{
  public:
    explicit MonteCarloRunner(McOptions options);

    /** Actual parallelism this runner fans out to (>= 1). */
    int threads() const { return nThreads; }

    McSweepResult run(const std::vector<double> &tUseful,
                      const std::vector<BenchJob> &jobs,
                      const RunSpec &spec);

    /** Convenience overload for profile lists. */
    McSweepResult run(const std::vector<double> &tUseful,
                      const std::vector<trace::BenchmarkProfile> &profiles,
                      const RunSpec &spec);

    /** Accounting for the most recent run() call. */
    const CheckpointReport &report() const { return lastReport; }

  private:
    McOptions opts;
    int nThreads = 1;
    CheckpointReport lastReport;
};

} // namespace fo4::study

#endif // FO4_STUDY_MONTECARLO_HH
