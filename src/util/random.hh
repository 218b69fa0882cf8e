/**
 * @file
 * Deterministic pseudo-random number generation: the sequential
 * generator and sampling distributions used by the synthetic workload
 * generator, and the counter-based splittable streams used wherever a
 * draw must be a *pure function of its coordinates* (Monte Carlo
 * overhead sampling, retry-backoff jitter).
 *
 * We use xoshiro256** / keyed SplitMix-style mixing rather than
 * std::mt19937 and std::normal_distribution so that every draw is
 * bit-reproducible across standard library implementations, which keeps
 * the experiment tables stable.
 */

#ifndef FO4_UTIL_RANDOM_HH
#define FO4_UTIL_RANDOM_HH

#include <cstdint>
#include <memory>
#include <vector>

namespace fo4::util
{

/**
 * xoshiro256** generator (Blackman & Vigna), seeded via SplitMix64 so that
 * any 64-bit seed produces a well-mixed state.
 */
class Rng
{
  public:
    explicit Rng(std::uint64_t seed = 0x9e3779b97f4a7c15ULL);

    /** Next raw 64-bit value. */
    std::uint64_t next();

    /** Uniform double in [0, 1). */
    double uniform();

    /** Uniform integer in [0, bound) using Lemire's method. bound > 0. */
    std::uint64_t below(std::uint64_t bound);

    /** Uniform integer in [lo, hi] inclusive. Requires lo <= hi. */
    std::int64_t range(std::int64_t lo, std::int64_t hi);

    /** Bernoulli trial with probability p of returning true. */
    bool chance(double p);

    /**
     * Geometric sample: number of failures before the first success with
     * success probability p in (0, 1]. Mean (1-p)/p.
     */
    std::uint64_t geometric(double p);

    /** Approximately normal sample via sum of uniforms (Irwin-Hall, n=12). */
    double normal(double mean, double stddev);

  private:
    std::uint64_t s[4];
};

/**
 * A counter-based, splittable random stream: an immutable 64-bit key
 * whose draws are pure functions of (key, counter).  This is the RNG
 * discipline behind every reproducible-by-coordinates draw in the
 * repo — Monte Carlo overhead sampling keyed by (seed, point, sample,
 * stage) and the retry policy's per-(cell, attempt) backoff jitter —
 * because it makes determinism structural:
 *
 *  - no shared mutable state: any thread, worker daemon, or resumed
 *    process that knows the coordinates reproduces the draw, so results
 *    are byte-identical at any jobs=, across checkpoint/resume, and
 *    when cells are sharded over the sweep fabric;
 *  - random access: bits(k) costs the same with or without computing
 *    bits(0..k-1), so skipping draws (a rejected sample, a replayed
 *    cell) never shifts later ones;
 *  - splittable: child(i) derives an independent stream, so a sampling
 *    hierarchy (point -> sample -> attempt -> stage) maps onto streams
 *    without counter bookkeeping across levels.
 *
 * Draws use only integer mixing and IEEE add/multiply (normals are
 * Irwin-Hall sums of uniforms, not libm transforms), so streams are
 * bit-stable across platforms and standard libraries; the unit tests
 * pin golden draw values.
 */
class RandomStream
{
  public:
    /** Root stream of a seeded domain: same seed, same stream. */
    static RandomStream root(std::uint64_t seed);

    /** Independent child stream; same (parent, index) -> same child. */
    RandomStream child(std::uint64_t index) const;

    /** Raw 64-bit draw at `counter`: a pure function of (key, counter). */
    std::uint64_t bits(std::uint64_t counter) const;

    /** Uniform double in [0, 1) at `counter`. */
    double uniform(std::uint64_t counter) const;

    /**
     * Normal draw number `draw` (each consumes the 12 uniforms at
     * counters [12*draw, 12*draw + 12) via an Irwin-Hall sum, so
     * successive draws never overlap).  sigma == 0 returns `mean`
     * bit-exactly — the zero-variance stream *is* the deterministic
     * value, which is what lets a zero-sigma Monte Carlo run reproduce
     * the deterministic sweep byte-for-byte.
     */
    double normal(std::uint64_t draw, double mean, double sigma) const;

    /** The stream's key (diagnostics, fingerprints). */
    std::uint64_t key() const { return k; }

  private:
    explicit RandomStream(std::uint64_t key) : k(key) {}
    std::uint64_t k;
};

/**
 * Sampler over a fixed discrete distribution (alias method).  Used for op
 * mixes and dependence-distance distributions; O(1) per sample.
 */
class DiscreteSampler
{
  public:
    /**
     * Build from non-negative weights.  At least one weight must be
     * positive; weights need not be normalized.
     */
    explicit DiscreteSampler(const std::vector<double> &weights);

    /** Draw an index in [0, size()). */
    std::size_t sample(Rng &rng) const;

    std::size_t size() const { return prob.size(); }

    /** Normalized probability of index i (for tests). */
    double probability(std::size_t i) const;

  private:
    std::vector<double> prob;   // alias-method acceptance probabilities
    std::vector<std::uint32_t> alias;
    std::vector<double> norm;   // normalized input distribution
};

/**
 * Zipf-distributed sampler over {0, .., n-1} with exponent s, used to model
 * skewed memory reference streams.  O(log n) sample over a CDF that is
 * built once per process for each (n, s) — by the first sampler with
 * that key, other threads waiting — and shared read-only by every
 * later sampler with it (counted by util.zipf_table.built).
 */
class ZipfSampler
{
  public:
    ZipfSampler(std::size_t n, double s);

    std::size_t sample(Rng &rng) const;

    std::size_t size() const { return cdf->size(); }

    /** The shared CDF; samplers with equal (n, s) return one object. */
    const std::vector<double> &table() const { return *cdf; }

  private:
    std::shared_ptr<const std::vector<double>> cdf;
};

} // namespace fo4::util

#endif // FO4_UTIL_RANDOM_HH
