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

    static CacheMetrics &
    get()
    {
        static CacheMetrics m{
            util::MetricsRegistry::global().counter(
                "cacti.latency_cache.hit"),
            util::MetricsRegistry::global().counter(
                "cacti.latency_cache.miss"),
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
    bool built = false;
    const double latency =
        table.get({fingerprint(model.params()), kind, capacity}, [&] {
            built = true;
            ++misses;
            CacheMetrics::get().misses.inc();
            return model.latencyFo4(kind, capacity);
        });
    if (!built) {
        ++hits;
        CacheMetrics::get().hits.inc();
    }
    return latency;
}

LatencyCacheStats
LatencyCache::stats() const
{
    return {hits.load(), misses.load()};
}

void
LatencyCache::clear()
{
    table.clear();
    hits = 0;
    misses = 0;
}

} // namespace fo4::cacti
