#include "cacti/latency_cache.hh"

#include "util/frame.hh"
#include "util/metrics.hh"

namespace fo4::cacti
{

namespace
{

/** Process-global engineering counters (self-gating when disabled);
 *  references are stable, so the lookup happens once per process. */
struct CacheMetrics
{
    util::MetricCounter &hits;
    util::MetricCounter &misses;
    util::MetricCounter &inserts;

    static CacheMetrics &
    get()
    {
        static CacheMetrics m{
            util::MetricsRegistry::global().counter(
                "cacti.latency_cache.hit"),
            util::MetricsRegistry::global().counter(
                "cacti.latency_cache.miss"),
            util::MetricsRegistry::global().counter(
                "cacti.latency_cache.insert"),
        };
        return m;
    }
};

/** FNV-1a over the parameters' bytes; doubles here are set, not
 *  computed, so bitwise identity is the right equality for calibration
 *  constants. */
std::uint64_t
fingerprint(const ModelParams &p)
{
    const double fields[] = {
        p.decodePerLog4, p.decodeFixed,   p.wordlinePerBit,
        p.wordlineFixed, p.bitlinePerRow, p.senseFixed,
        p.outputPerLog4, p.outputFixed,   p.routePerSqrtKb,
        p.camMatchPerRow, p.camMatchFixed, p.comparePerLog2,
        p.portGrowth,
    };
    return util::fnv1a(fields, sizeof(fields));
}

} // namespace

std::size_t
LatencyCache::KeyHash::operator()(const Key &k) const
{
    std::uint64_t h = k.paramsFingerprint;
    h = util::fnv1a(&k.kind, sizeof(k.kind), h);
    h = util::fnv1a(&k.capacity, sizeof(k.capacity), h);
    return static_cast<std::size_t>(h);
}

LatencyCache &
LatencyCache::global()
{
    static LatencyCache instance;
    return instance;
}

double
LatencyCache::latencyFo4(const StructureModel &model, StructureKind kind,
                         std::uint64_t capacity)
{
    const Key key{fingerprint(model.params()), kind, capacity};
    {
        std::lock_guard<std::mutex> lock(mutex);
        const auto it = table.find(key);
        if (it != table.end()) {
            ++counters.hits;
            CacheMetrics::get().hits.inc();
            return it->second;
        }
        ++counters.misses;
    }
    CacheMetrics::get().misses.inc();
    // Compute outside the lock: the subarray search is the slow part,
    // and concurrent first lookups of the same key are idempotent.
    const double latency = model.latencyFo4(kind, capacity);
    std::lock_guard<std::mutex> lock(mutex);
    if (table.emplace(key, latency).second) {
        ++counters.inserts;
        CacheMetrics::get().inserts.inc();
    }
    return latency;
}

LatencyCacheStats
LatencyCache::stats() const
{
    std::lock_guard<std::mutex> lock(mutex);
    return counters;
}

void
LatencyCache::clear()
{
    std::lock_guard<std::mutex> lock(mutex);
    table.clear();
    counters = LatencyCacheStats{};
}

} // namespace fo4::cacti
