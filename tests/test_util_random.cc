/**
 * @file
 * Unit and property tests for the RNG and sampling distributions.
 */

#include <gtest/gtest.h>

#include <cmath>
#include <map>

#include "util/metrics.hh"
#include "util/random.hh"

using fo4::util::DiscreteSampler;
using fo4::util::Rng;
using fo4::util::ZipfSampler;

TEST(Rng, DeterministicForSameSeed)
{
    Rng a(42), b(42);
    for (int i = 0; i < 1000; ++i)
        EXPECT_EQ(a.next(), b.next());
}

TEST(Rng, DifferentSeedsDiverge)
{
    Rng a(1), b(2);
    int same = 0;
    for (int i = 0; i < 100; ++i)
        same += a.next() == b.next();
    EXPECT_LT(same, 2);
}

TEST(Rng, UniformInUnitInterval)
{
    Rng rng(7);
    for (int i = 0; i < 10000; ++i) {
        const double u = rng.uniform();
        EXPECT_GE(u, 0.0);
        EXPECT_LT(u, 1.0);
    }
}

TEST(Rng, UniformMeanNearHalf)
{
    Rng rng(11);
    double sum = 0.0;
    const int n = 100000;
    for (int i = 0; i < n; ++i)
        sum += rng.uniform();
    EXPECT_NEAR(sum / n, 0.5, 0.01);
}

TEST(Rng, BelowRespectsBound)
{
    Rng rng(3);
    for (std::uint64_t bound : {1ull, 2ull, 7ull, 1000ull}) {
        for (int i = 0; i < 1000; ++i)
            EXPECT_LT(rng.below(bound), bound);
    }
}

TEST(Rng, BelowCoversAllValues)
{
    Rng rng(5);
    std::map<std::uint64_t, int> seen;
    for (int i = 0; i < 10000; ++i)
        ++seen[rng.below(8)];
    EXPECT_EQ(seen.size(), 8u);
    for (const auto &[v, count] : seen)
        EXPECT_GT(count, 900); // roughly uniform
}

TEST(Rng, RangeInclusive)
{
    Rng rng(9);
    bool saw_lo = false, saw_hi = false;
    for (int i = 0; i < 5000; ++i) {
        const auto v = rng.range(-3, 3);
        EXPECT_GE(v, -3);
        EXPECT_LE(v, 3);
        saw_lo |= v == -3;
        saw_hi |= v == 3;
    }
    EXPECT_TRUE(saw_lo);
    EXPECT_TRUE(saw_hi);
}

TEST(Rng, ChanceExtremes)
{
    Rng rng(1);
    for (int i = 0; i < 100; ++i) {
        EXPECT_FALSE(rng.chance(0.0));
        EXPECT_TRUE(rng.chance(1.0));
    }
}

TEST(Rng, ChanceFrequencyTracksP)
{
    Rng rng(123);
    const int n = 100000;
    int hits = 0;
    for (int i = 0; i < n; ++i)
        hits += rng.chance(0.3);
    EXPECT_NEAR(static_cast<double>(hits) / n, 0.3, 0.01);
}

TEST(Rng, GeometricMeanMatchesTheory)
{
    Rng rng(77);
    const double p = 0.25;
    const int n = 200000;
    double sum = 0.0;
    for (int i = 0; i < n; ++i)
        sum += static_cast<double>(rng.geometric(p));
    // Mean of failures-before-success is (1-p)/p = 3.
    EXPECT_NEAR(sum / n, 3.0, 0.05);
}

TEST(Rng, GeometricWithPOneIsZero)
{
    Rng rng(4);
    for (int i = 0; i < 100; ++i)
        EXPECT_EQ(rng.geometric(1.0), 0u);
}

TEST(Rng, NormalMoments)
{
    Rng rng(31);
    const int n = 100000;
    double sum = 0.0, sq = 0.0;
    for (int i = 0; i < n; ++i) {
        const double v = rng.normal(10.0, 2.0);
        sum += v;
        sq += v * v;
    }
    const double mean = sum / n;
    const double var = sq / n - mean * mean;
    EXPECT_NEAR(mean, 10.0, 0.05);
    EXPECT_NEAR(std::sqrt(var), 2.0, 0.05);
}

TEST(DiscreteSampler, NormalizesProbabilities)
{
    DiscreteSampler s({2.0, 6.0, 2.0});
    EXPECT_DOUBLE_EQ(s.probability(0), 0.2);
    EXPECT_DOUBLE_EQ(s.probability(1), 0.6);
    EXPECT_DOUBLE_EQ(s.probability(2), 0.2);
}

TEST(DiscreteSampler, EmpiricalFrequenciesMatch)
{
    DiscreteSampler s({1.0, 3.0, 6.0});
    Rng rng(55);
    const int n = 300000;
    std::vector<int> counts(3, 0);
    for (int i = 0; i < n; ++i)
        ++counts[s.sample(rng)];
    EXPECT_NEAR(counts[0] / double(n), 0.1, 0.01);
    EXPECT_NEAR(counts[1] / double(n), 0.3, 0.01);
    EXPECT_NEAR(counts[2] / double(n), 0.6, 0.01);
}

TEST(DiscreteSampler, ZeroWeightNeverSampled)
{
    DiscreteSampler s({1.0, 0.0, 1.0});
    Rng rng(8);
    for (int i = 0; i < 10000; ++i)
        EXPECT_NE(s.sample(rng), 1u);
}

TEST(DiscreteSampler, SingleOutcome)
{
    DiscreteSampler s({5.0});
    Rng rng(2);
    for (int i = 0; i < 100; ++i)
        EXPECT_EQ(s.sample(rng), 0u);
}

TEST(ZipfSampler, FirstRankMostFrequent)
{
    ZipfSampler z(100, 1.0);
    Rng rng(6);
    std::vector<int> counts(100, 0);
    for (int i = 0; i < 100000; ++i)
        ++counts[z.sample(rng)];
    EXPECT_GT(counts[0], counts[1]);
    EXPECT_GT(counts[1], counts[10]);
    EXPECT_GT(counts[10], counts[99]);
}

TEST(ZipfSampler, UniformWhenExponentZero)
{
    ZipfSampler z(10, 0.0);
    Rng rng(14);
    std::vector<int> counts(10, 0);
    const int n = 100000;
    for (int i = 0; i < n; ++i)
        ++counts[z.sample(rng)];
    for (int c : counts)
        EXPECT_NEAR(c / double(n), 0.1, 0.01);
}

TEST(ZipfSampler, InRange)
{
    ZipfSampler z(5, 2.0);
    Rng rng(21);
    for (int i = 0; i < 10000; ++i)
        EXPECT_LT(z.sample(rng), 5u);
}

TEST(ZipfSampler, EqualKeysShareOneTable)
{
    const bool wasEnabled = fo4::util::setMetricsEnabled(true);
    auto &built = fo4::util::MetricsRegistry::global().counter(
        "util.zipf_table.built");
    const std::uint64_t before = built.value();

    // Keys no other test uses, so this test builds each of them first.
    const ZipfSampler a(4099, 0.83), b(4099, 0.83);
    EXPECT_EQ(&a.table(), &b.table());
    EXPECT_EQ(built.value() - before, 1u);

    const ZipfSampler c(4099, 0.84);
    EXPECT_NE(&c.table(), &a.table());
    EXPECT_EQ(c.size(), a.size());
    EXPECT_EQ(built.value() - before, 2u);
    fo4::util::setMetricsEnabled(wasEnabled);
}

// Property sweep: geometric mean tracks (1-p)/p across p values.
class GeometricSweep : public ::testing::TestWithParam<double>
{
};

TEST_P(GeometricSweep, MeanMatches)
{
    const double p = GetParam();
    Rng rng(static_cast<std::uint64_t>(p * 1e6) + 17);
    const int n = 100000;
    double sum = 0.0;
    for (int i = 0; i < n; ++i)
        sum += static_cast<double>(rng.geometric(p));
    const double expected = (1.0 - p) / p;
    EXPECT_NEAR(sum / n, expected, 0.05 * (expected + 1.0));
}

INSTANTIATE_TEST_SUITE_P(Ps, GeometricSweep,
                         ::testing::Values(0.1, 0.25, 0.5, 0.75, 0.9));

// ---------------------------------------------------------------------
// RandomStream: the counter-based splittable streams behind Monte Carlo
// overhead sampling and the retry policy's backoff jitter.
// ---------------------------------------------------------------------

using fo4::util::RandomStream;

TEST(RandomStream, DeterministicForSameCoordinates)
{
    const RandomStream a = RandomStream::root(99).child(3).child(7);
    const RandomStream b = RandomStream::root(99).child(3).child(7);
    EXPECT_EQ(a.key(), b.key());
    for (std::uint64_t c = 0; c < 64; ++c)
        EXPECT_EQ(a.bits(c), b.bits(c));
}

TEST(RandomStream, RandomAccessIsOrderFree)
{
    // bits(k) is a pure function of (key, k): reading counters out of
    // order, or skipping some entirely, changes nothing.
    const RandomStream s = RandomStream::root(5).child(1);
    const std::uint64_t late = s.bits(1000);
    const std::uint64_t early = s.bits(2);
    EXPECT_EQ(s.bits(1000), late);
    EXPECT_EQ(s.bits(2), early);
}

TEST(RandomStream, SiblingsAndSeedsDiverge)
{
    const RandomStream root = RandomStream::root(42);
    // Sibling children, parent-vs-child, and different roots must all
    // draw independently.
    const RandomStream kids[] = {root.child(0), root.child(1),
                                 root.child(2)};
    for (int i = 0; i < 3; ++i) {
        for (int j = i + 1; j < 3; ++j) {
            int same = 0;
            for (std::uint64_t c = 0; c < 64; ++c)
                same += kids[i].bits(c) == kids[j].bits(c);
            EXPECT_EQ(same, 0) << "children " << i << " vs " << j;
        }
        int sameAsParent = 0;
        for (std::uint64_t c = 0; c < 64; ++c)
            sameAsParent += kids[i].bits(c) == root.bits(c);
        EXPECT_EQ(sameAsParent, 0);
    }
    int sameSeed = 0;
    for (std::uint64_t c = 0; c < 64; ++c)
        sameSeed += RandomStream::root(1).bits(c) ==
                    RandomStream::root(2).bits(c);
    EXPECT_EQ(sameSeed, 0);
}

TEST(RandomStream, ChildIndexMatters)
{
    // child(i) and child(j) differ even for adjacent and huge indices.
    const RandomStream root = RandomStream::root(7);
    EXPECT_NE(root.child(0).key(), root.child(1).key());
    EXPECT_NE(root.child(0).key(),
              root.child(~std::uint64_t{0}).key());
    // Nested paths with equal flattened sums must not collide.
    EXPECT_NE(root.child(1).child(2).key(), root.child(2).child(1).key());
}

TEST(RandomStream, GoldenBitsPinCrossPlatformStability)
{
    // The streams feed grid fingerprints and journaled results, so the
    // exact values are part of the repo's byte-identity contract.  If
    // this test fails, the mixing constants changed and every Monte
    // Carlo golden is invalidated — bump them deliberately or not at
    // all.
    const RandomStream r = RandomStream::root(0xf04);
    EXPECT_EQ(r.bits(0), 0xd2173fb7996ca373ULL);
    EXPECT_EQ(r.bits(1), 0xa751eb30c4fe778aULL);
    EXPECT_EQ(r.child(7).bits(0), 0x46ffac8e46024a20ULL);
    EXPECT_EQ(r.uniform(0), 0x1.a42e7f6f32d94p-1);
    EXPECT_EQ(r.normal(0, 0.0, 1.0), 0x1.6ef03876cf54p-4);
}

TEST(RandomStream, UniformInUnitInterval)
{
    const RandomStream s = RandomStream::root(17);
    double sum = 0.0;
    const int n = 20000;
    for (int i = 0; i < n; ++i) {
        const double u = s.uniform(static_cast<std::uint64_t>(i));
        EXPECT_GE(u, 0.0);
        EXPECT_LT(u, 1.0);
        sum += u;
    }
    EXPECT_NEAR(sum / n, 0.5, 0.01);
}

TEST(RandomStream, NormalMomentsAndIrwinHallRange)
{
    const RandomStream s = RandomStream::root(23);
    double sum = 0.0, sq = 0.0;
    const int n = 20000;
    for (int i = 0; i < n; ++i) {
        const double z =
            s.normal(static_cast<std::uint64_t>(i), 0.0, 1.0);
        // Irwin-Hall n=12 is bounded: |z| <= 6 by construction.
        EXPECT_LE(std::abs(z), 6.0);
        sum += z;
        sq += z * z;
    }
    EXPECT_NEAR(sum / n, 0.0, 0.02);
    EXPECT_NEAR(sq / n, 1.0, 0.03);
}

TEST(RandomStream, ZeroSigmaNormalIsMeanBitExact)
{
    // The keystone of the zero-sigma Monte Carlo identity: with
    // sigma == 0 the draw *is* the mean, bit for bit, for every counter.
    const RandomStream s = RandomStream::root(31);
    for (std::uint64_t d = 0; d < 100; ++d) {
        EXPECT_EQ(s.normal(d, 1.8, 0.0), 1.8);
        EXPECT_EQ(s.normal(d, 0.3, 0.0), 0.3);
    }
    // And mean/sigma shift-scale exactly as documented.
    const double z = s.normal(4, 0.0, 1.0);
    EXPECT_EQ(s.normal(4, 2.0, 3.0), 2.0 + 3.0 * z);
}
