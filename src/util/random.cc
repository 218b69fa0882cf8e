#include "util/random.hh"

#include <bit>
#include <cmath>
#include <map>
#include <mutex>

#include "util/logging.hh"
#include "util/metrics.hh"

namespace fo4::util
{

namespace
{

std::uint64_t
splitmix64(std::uint64_t &x)
{
    x += 0x9e3779b97f4a7c15ULL;
    std::uint64_t z = x;
    z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9ULL;
    z = (z ^ (z >> 27)) * 0x94d049bb133111ebULL;
    return z ^ (z >> 31);
}

std::uint64_t
rotl(std::uint64_t x, int k)
{
    return (x << k) | (x >> (64 - k));
}

} // namespace

Rng::Rng(std::uint64_t seed)
{
    std::uint64_t x = seed;
    for (auto &word : s)
        word = splitmix64(x);
}

namespace
{

/** Stafford mix13, the SplitMix64 output finalizer: a bijective 64-bit
 *  mixer with full avalanche. */
std::uint64_t
mix64(std::uint64_t z)
{
    z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9ULL;
    z = (z ^ (z >> 27)) * 0x94d049bb133111ebULL;
    return z ^ (z >> 31);
}

// Distinct odd salts keep the three key-derivation paths (root, child,
// counter evaluation) from ever colliding structurally: child(i) of one
// stream cannot alias bits(j) of another merely because i and j are
// related.
constexpr std::uint64_t kGolden = 0x9e3779b97f4a7c15ULL;
constexpr std::uint64_t kRootSalt = 0x8e2f9d4b1c6a3e57ULL;
constexpr std::uint64_t kChildSalt = 0xc2b2ae3d27d4eb4fULL;
constexpr std::uint64_t kCounterGamma = 0xd1342543de82ef95ULL;

} // namespace

RandomStream
RandomStream::root(std::uint64_t seed)
{
    return RandomStream(mix64(seed ^ kRootSalt));
}

RandomStream
RandomStream::child(std::uint64_t index) const
{
    return RandomStream(mix64(mix64(k ^ kChildSalt) + (index + 1) * kGolden));
}

std::uint64_t
RandomStream::bits(std::uint64_t counter) const
{
    return mix64(mix64(k) + (counter + 1) * kCounterGamma);
}

double
RandomStream::uniform(std::uint64_t counter) const
{
    return static_cast<double>(bits(counter) >> 11) * 0x1.0p-53;
}

double
RandomStream::normal(std::uint64_t draw, double mean, double sigma) const
{
    FO4_ASSERT(sigma >= 0.0, "normal() needs sigma >= 0, got %f", sigma);
    // Irwin-Hall n=12 (the Rng::normal approximation): only uniform
    // draws and IEEE additions, so the value is bit-stable everywhere
    // — and sigma == 0 yields exactly `mean`, because 0.0 * z == 0.0.
    double sum = 0.0;
    const std::uint64_t base = draw * 12;
    for (std::uint64_t i = 0; i < 12; ++i)
        sum += uniform(base + i);
    return mean + sigma * (sum - 6.0);
}

std::uint64_t
Rng::next()
{
    const std::uint64_t result = rotl(s[1] * 5, 7) * 9;
    const std::uint64_t t = s[1] << 17;
    s[2] ^= s[0];
    s[3] ^= s[1];
    s[1] ^= s[2];
    s[0] ^= s[3];
    s[2] ^= t;
    s[3] = rotl(s[3], 45);
    return result;
}

double
Rng::uniform()
{
    return static_cast<double>(next() >> 11) * 0x1.0p-53;
}

std::uint64_t
Rng::below(std::uint64_t bound)
{
    FO4_ASSERT(bound > 0, "below() requires a positive bound");
    // Lemire's nearly-divisionless bounded sampling.
    std::uint64_t x = next();
    unsigned __int128 m = static_cast<unsigned __int128>(x) * bound;
    auto lo = static_cast<std::uint64_t>(m);
    if (lo < bound) {
        const std::uint64_t threshold = (0 - bound) % bound;
        while (lo < threshold) {
            x = next();
            m = static_cast<unsigned __int128>(x) * bound;
            lo = static_cast<std::uint64_t>(m);
        }
    }
    return static_cast<std::uint64_t>(m >> 64);
}

std::int64_t
Rng::range(std::int64_t lo, std::int64_t hi)
{
    FO4_ASSERT(lo <= hi, "range(%lld, %lld) is empty",
               static_cast<long long>(lo), static_cast<long long>(hi));
    const auto span = static_cast<std::uint64_t>(hi - lo) + 1;
    return lo + static_cast<std::int64_t>(below(span));
}

bool
Rng::chance(double p)
{
    if (p <= 0.0)
        return false;
    if (p >= 1.0)
        return true;
    return uniform() < p;
}

std::uint64_t
Rng::geometric(double p)
{
    FO4_ASSERT(p > 0.0 && p <= 1.0, "geometric p=%f out of (0,1]", p);
    if (p == 1.0)
        return 0;
    const double u = 1.0 - uniform(); // in (0, 1]
    return static_cast<std::uint64_t>(
        std::floor(std::log(u) / std::log1p(-p)));
}

double
Rng::normal(double mean, double stddev)
{
    double sum = 0.0;
    for (int i = 0; i < 12; ++i)
        sum += uniform();
    return mean + stddev * (sum - 6.0);
}

DiscreteSampler::DiscreteSampler(const std::vector<double> &weights)
{
    FO4_ASSERT(!weights.empty(), "empty weight vector");
    double total = 0.0;
    for (double w : weights) {
        FO4_ASSERT(w >= 0.0, "negative weight %f", w);
        total += w;
    }
    FO4_ASSERT(total > 0.0, "all weights are zero");

    const std::size_t n = weights.size();
    norm.resize(n);
    for (std::size_t i = 0; i < n; ++i)
        norm[i] = weights[i] / total;

    // Vose's alias method.
    prob.assign(n, 0.0);
    alias.assign(n, 0);
    std::vector<double> scaled(n);
    std::vector<std::uint32_t> small, large;
    for (std::size_t i = 0; i < n; ++i) {
        scaled[i] = norm[i] * static_cast<double>(n);
        if (scaled[i] < 1.0)
            small.push_back(static_cast<std::uint32_t>(i));
        else
            large.push_back(static_cast<std::uint32_t>(i));
    }
    while (!small.empty() && !large.empty()) {
        const std::uint32_t s_idx = small.back();
        small.pop_back();
        const std::uint32_t l_idx = large.back();
        large.pop_back();
        prob[s_idx] = scaled[s_idx];
        alias[s_idx] = l_idx;
        scaled[l_idx] = (scaled[l_idx] + scaled[s_idx]) - 1.0;
        if (scaled[l_idx] < 1.0)
            small.push_back(l_idx);
        else
            large.push_back(l_idx);
    }
    for (std::uint32_t i : large)
        prob[i] = 1.0;
    for (std::uint32_t i : small)
        prob[i] = 1.0;
}

std::size_t
DiscreteSampler::sample(Rng &rng) const
{
    const std::size_t column = rng.below(prob.size());
    return rng.uniform() < prob[column] ? column : alias[column];
}

double
DiscreteSampler::probability(std::size_t i) const
{
    FO4_ASSERT(i < norm.size(), "index %zu out of range", i);
    return norm[i];
}

ZipfSampler::ZipfSampler(std::size_t n, double s)
{
    FO4_ASSERT(n > 0, "ZipfSampler requires n > 0");
    // One table per (n, bit pattern of s), kept for the life of the
    // process: the keys in play are the profiles' sizes and exponents,
    // which BenchmarkProfile::validate bounds.  A build that throws
    // leaves its once_flag unset, so nothing is cached.
    struct Entry
    {
        std::once_flag once;
        std::shared_ptr<const std::vector<double>> cdf;
    };
    static std::mutex lock;
    static std::map<std::pair<std::size_t, std::uint64_t>, Entry> memo;
    std::unique_lock<std::mutex> guard(lock);
    Entry &entry = memo[{n, std::bit_cast<std::uint64_t>(s)}];
    guard.unlock();
    std::call_once(entry.once, [&] {
        static auto &built =
            MetricsRegistry::global().counter("util.zipf_table.built");
        auto table = std::make_shared<std::vector<double>>(n);
        double total = 0.0;
        for (std::size_t k = 0; k < n; ++k) {
            total += 1.0 / std::pow(static_cast<double>(k + 1), s);
            (*table)[k] = total;
        }
        for (double &v : *table)
            v /= total;
        entry.cdf = std::move(table);
        built.inc();
    });
    cdf = entry.cdf;
}

std::size_t
ZipfSampler::sample(Rng &rng) const
{
    const double u = rng.uniform();
    std::size_t lo = 0;
    std::size_t hi = cdf->size() - 1;
    while (lo < hi) {
        const std::size_t mid = (lo + hi) / 2;
        if ((*cdf)[mid] < u)
            lo = mid + 1;
        else
            hi = mid;
    }
    return lo;
}

} // namespace fo4::util
