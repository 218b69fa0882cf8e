/**
 * @file
 * Unit tests for util/means.hh: the harmonic, arithmetic and geometric
 * means, and the streaming statistics — Welford moments (exact against
 * a two-pass reference) and the P² streaming quantile (exact for small
 * n, close to the exact sample quantile for large n).  These aggregates
 * sit behind the Monte Carlo confidence bands, so their determinism —
 * same insertion order, same bits — is part of the statistical identity
 * contract.
 */

#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <vector>

#include "util/means.hh"
#include "util/random.hh"

using fo4::util::P2Quantile;
using fo4::util::RandomStream;
using fo4::util::StreamingMoments;
using fo4::util::arithmeticMean;
using fo4::util::geometricMean;
using fo4::util::harmonicMean;

namespace
{

/** Two-pass reference mean/variance (n-1 denominator). */
std::pair<double, double>
twoPass(const std::vector<double> &xs)
{
    double sum = 0.0;
    for (const double x : xs)
        sum += x;
    const double mean = sum / static_cast<double>(xs.size());
    double m2 = 0.0;
    for (const double x : xs)
        m2 += (x - mean) * (x - mean);
    const double var =
        xs.size() < 2 ? 0.0 : m2 / static_cast<double>(xs.size() - 1);
    return {mean, var};
}

std::vector<double>
randomData(std::uint64_t seed, int n, double mean, double sigma)
{
    const RandomStream s = RandomStream::root(seed);
    std::vector<double> xs;
    xs.reserve(n);
    for (int i = 0; i < n; ++i)
        xs.push_back(s.normal(static_cast<std::uint64_t>(i), mean, sigma));
    return xs;
}

/** Exact sample quantile, nearest-rank on the sorted data. */
double
exactQuantile(std::vector<double> xs, double q)
{
    std::sort(xs.begin(), xs.end());
    const auto n = xs.size();
    std::size_t rank = static_cast<std::size_t>(
        std::ceil(q * static_cast<double>(n)));
    if (rank == 0)
        rank = 1;
    if (rank > n)
        rank = n;
    return xs[rank - 1];
}

} // namespace

TEST(StreamingMoments, EmptyAndSingle)
{
    StreamingMoments m;
    EXPECT_EQ(m.count(), 0u);
    EXPECT_EQ(m.variance(), 0.0);
    m.add(3.25);
    EXPECT_EQ(m.count(), 1u);
    EXPECT_EQ(m.mean(), 3.25);
    EXPECT_EQ(m.variance(), 0.0);
    EXPECT_EQ(m.min(), 3.25);
    EXPECT_EQ(m.max(), 3.25);
}

TEST(StreamingMoments, MatchesTwoPassOnRandomData)
{
    for (const std::uint64_t seed : {1ull, 2ull, 3ull}) {
        const auto xs = randomData(seed, 5000, 2.5, 0.7);
        StreamingMoments m;
        for (const double x : xs)
            m.add(x);
        const auto [mean, var] = twoPass(xs);
        EXPECT_EQ(m.count(), xs.size());
        EXPECT_NEAR(m.mean(), mean, 1e-12);
        EXPECT_NEAR(m.variance(), var, 1e-12);
        EXPECT_NEAR(m.stddev(), std::sqrt(var), 1e-12);
        EXPECT_EQ(m.min(), *std::min_element(xs.begin(), xs.end()));
        EXPECT_EQ(m.max(), *std::max_element(xs.begin(), xs.end()));
    }
}

TEST(StreamingMoments, IdenticalValuesAreBitExact)
{
    // Feeding n copies of x must return exactly x with exactly zero
    // variance — Welford's delta goes to 0.0, no drift.  This is what
    // lets a zero-sigma Monte Carlo mean reproduce the deterministic
    // BIPS value byte-for-byte.
    const double x = 0x1.23456789abcdep+1;
    StreamingMoments m;
    for (int i = 0; i < 1000; ++i)
        m.add(x);
    EXPECT_EQ(m.mean(), x);
    EXPECT_EQ(m.variance(), 0.0);
    EXPECT_EQ(m.stddev(), 0.0);
}

TEST(StreamingMoments, DeterministicGivenOrder)
{
    const auto xs = randomData(9, 1000, 0.0, 1.0);
    StreamingMoments a, b;
    for (const double x : xs) {
        a.add(x);
        b.add(x);
    }
    EXPECT_EQ(a.mean(), b.mean());
    EXPECT_EQ(a.variance(), b.variance());
}

TEST(P2Quantile, ExactForFirstFiveObservations)
{
    // Below 5 observations P² stores the data, so the estimate is the
    // exact nearest-rank quantile.
    P2Quantile median(0.5);
    median.add(5.0);
    EXPECT_EQ(median.value(), 5.0);
    median.add(1.0);
    median.add(9.0);
    EXPECT_EQ(median.count(), 3u);
    EXPECT_EQ(median.value(),
              exactQuantile({5.0, 1.0, 9.0}, 0.5));
    median.add(7.0);
    median.add(3.0);
    EXPECT_EQ(median.value(),
              exactQuantile({5.0, 1.0, 9.0, 7.0, 3.0}, 0.5));
}

TEST(P2Quantile, ConstantStreamIsExact)
{
    P2Quantile p95(0.95);
    for (int i = 0; i < 500; ++i)
        p95.add(4.25);
    EXPECT_EQ(p95.value(), 4.25);
}

TEST(P2Quantile, TracksExactQuantileOnRandomData)
{
    for (const double q : {0.05, 0.5, 0.95}) {
        const auto xs = randomData(77, 20000, 10.0, 2.0);
        P2Quantile est(q);
        for (const double x : xs)
            est.add(x);
        const double exact = exactQuantile(xs, q);
        // P² is an approximation; on 20k smooth normal samples the
        // median lands very close, and the tail markers — which see far
        // fewer relevant observations — within ~0.15 of a standard
        // deviation (sigma is 2.0 here).
        const double tol = q == 0.5 ? 0.1 : 0.3;
        EXPECT_NEAR(est.value(), exact, tol)
            << "quantile " << q;
        EXPECT_EQ(est.count(), xs.size());
    }
}

TEST(P2Quantile, DeterministicGivenOrder)
{
    const auto xs = randomData(13, 5000, 0.0, 1.0);
    P2Quantile a(0.9), b(0.9);
    for (const double x : xs) {
        a.add(x);
        b.add(x);
    }
    EXPECT_EQ(a.value(), b.value());
}

TEST(P2Quantile, MonotoneAcrossQuantiles)
{
    const auto xs = randomData(21, 10000, 0.0, 1.0);
    P2Quantile p5(0.05), p50(0.5), p95(0.95);
    for (const double x : xs) {
        p5.add(x);
        p50.add(x);
        p95.add(x);
    }
    EXPECT_LT(p5.value(), p50.value());
    EXPECT_LT(p50.value(), p95.value());
}

TEST(Means, HarmonicOfEqualValues)
{
    EXPECT_DOUBLE_EQ(harmonicMean({2.0, 2.0, 2.0}), 2.0);
}

TEST(Means, HarmonicDominatedBySmallValues)
{
    const double h = harmonicMean({1.0, 100.0});
    EXPECT_LT(h, 2.0);
    EXPECT_GT(h, 1.0);
}

TEST(Means, HarmonicKnownValue)
{
    // HM(1, 2, 4) = 3 / (1 + 0.5 + 0.25) = 12/7.
    EXPECT_NEAR(harmonicMean({1.0, 2.0, 4.0}), 12.0 / 7.0, 1e-12);
}

TEST(Means, ArithmeticKnownValue)
{
    EXPECT_DOUBLE_EQ(arithmeticMean({1.0, 2.0, 3.0}), 2.0);
}

TEST(Means, GeometricKnownValue)
{
    EXPECT_NEAR(geometricMean({2.0, 8.0}), 4.0, 1e-12);
}

TEST(Means, OrderingHarmonicLeGeometricLeArithmetic)
{
    const std::vector<double> v{1.5, 2.5, 7.0, 0.5};
    const double h = harmonicMean(v);
    const double g = geometricMean(v);
    const double a = arithmeticMean(v);
    EXPECT_LE(h, g + 1e-12);
    EXPECT_LE(g, a + 1e-12);
}
