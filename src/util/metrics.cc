#include "util/metrics.hh"

#include "util/logging.hh"

namespace fo4::util
{

namespace
{

// Off by default: the figure benches enable collection under stats= /
// verbose=, and a disabled increment costs one relaxed load + branch.
std::atomic<bool> gMetricsEnabled{false};

} // namespace

bool
metricsEnabled()
{
    return gMetricsEnabled.load(std::memory_order_relaxed);
}

bool
setMetricsEnabled(bool enabled)
{
    return gMetricsEnabled.exchange(enabled, std::memory_order_relaxed);
}

// ---------------------------------------------------------------------
// MetricHistogram
// ---------------------------------------------------------------------

MetricHistogram::MetricHistogram(std::size_t buckets)
    : counts(buckets ? buckets : 1)
{
}

void
MetricHistogram::sample(std::uint64_t v)
{
    if (!metricsEnabled())
        return;
    const std::size_t i =
        v < counts.size() ? static_cast<std::size_t>(v) : counts.size() - 1;
    counts[i].fetch_add(1, std::memory_order_relaxed);
    sampleCount.fetch_add(1, std::memory_order_relaxed);
    sampleSum.fetch_add(v, std::memory_order_relaxed);
}

std::uint64_t
MetricHistogram::bucket(std::size_t i) const
{
    FO4_ASSERT(i < counts.size(), "histogram bucket out of range");
    return counts[i].load(std::memory_order_relaxed);
}

std::uint64_t
MetricHistogram::samples() const
{
    return sampleCount.load(std::memory_order_relaxed);
}

std::uint64_t
MetricHistogram::total() const
{
    return sampleSum.load(std::memory_order_relaxed);
}

double
MetricHistogram::mean() const
{
    const std::uint64_t n = samples();
    return n ? static_cast<double>(total()) / static_cast<double>(n) : 0.0;
}

void
MetricHistogram::reset()
{
    for (auto &c : counts)
        c.store(0, std::memory_order_relaxed);
    sampleCount.store(0, std::memory_order_relaxed);
    sampleSum.store(0, std::memory_order_relaxed);
}

// ---------------------------------------------------------------------
// MetricsRegistry
// ---------------------------------------------------------------------

MetricsRegistry &
MetricsRegistry::global()
{
    static MetricsRegistry registry;
    return registry;
}

MetricCounter &
MetricsRegistry::counter(const std::string &name)
{
    std::lock_guard<std::mutex> lock(mutex);
    return counters[name];
}

MetricHistogram &
MetricsRegistry::histogram(const std::string &name, std::size_t buckets)
{
    std::lock_guard<std::mutex> lock(mutex);
    auto it = histograms.find(name);
    if (it == histograms.end()) {
        it = histograms
                 .emplace(std::piecewise_construct,
                          std::forward_as_tuple(name),
                          std::forward_as_tuple(buckets))
                 .first;
    }
    return it->second;
}

std::vector<std::pair<std::string, std::uint64_t>>
MetricsRegistry::snapshotCounters() const
{
    std::lock_guard<std::mutex> lock(mutex);
    std::vector<std::pair<std::string, std::uint64_t>> out;
    out.reserve(counters.size());
    for (const auto &[name, c] : counters)
        out.emplace_back(name, c.value());
    return out;
}

std::uint64_t
MetricsRegistry::value(const std::string &name) const
{
    std::lock_guard<std::mutex> lock(mutex);
    const auto it = counters.find(name);
    return it == counters.end() ? 0 : it->second.value();
}

std::size_t
MetricsRegistry::counterCount() const
{
    std::lock_guard<std::mutex> lock(mutex);
    return counters.size();
}

void
MetricsRegistry::resetAll()
{
    std::lock_guard<std::mutex> lock(mutex);
    for (auto &[name, c] : counters)
        c.reset();
    for (auto &[name, h] : histograms)
        h.reset();
}

void
MetricsRegistry::dump(std::ostream &os) const
{
    std::lock_guard<std::mutex> lock(mutex);
    for (const auto &[name, c] : counters)
        os << name << " " << c.value() << "\n";
    for (const auto &[name, h] : histograms) {
        os << name << ".samples " << h.samples() << "\n";
        os << name << ".mean " << h.mean() << "\n";
    }
}

// ---------------------------------------------------------------------
// TraceEventRing
// ---------------------------------------------------------------------

TraceEventRing::TraceEventRing(std::size_t capacity, std::int64_t startCycle,
                               std::int64_t windowCycles)
    : ring(capacity ? capacity : 1), windowStart(startCycle),
      windowEnd(windowCycles > 0 ? startCycle + windowCycles : startCycle)
{
}

void
TraceEventRing::emit(const TraceEvent &event)
{
    if (!wants(event.start))
        return;
    if (used == ring.size())
        ++dropped;
    else
        ++used;
    ring[next] = event;
    next = (next + 1) % ring.size();
}

std::size_t
TraceEventRing::size() const
{
    return used;
}

std::vector<TraceEvent>
TraceEventRing::events() const
{
    std::vector<TraceEvent> out;
    out.reserve(used);
    const std::size_t first = (next + ring.size() - used) % ring.size();
    for (std::size_t i = 0; i < used; ++i)
        out.push_back(ring[(first + i) % ring.size()]);
    return out;
}

const char *
TraceEventRing::trackName(int track)
{
    switch (track) {
    case 0:
        return "front end (fetch/decode/rename)";
    case 1:
        return "window (wait for issue)";
    case 2:
        return "execute";
    case 3:
        return "commit";
    default:
        return "other";
    }
}

void
TraceEventRing::writeChromeJson(std::ostream &os) const
{
    os << "{\"displayTimeUnit\":\"ms\",\"otherData\":{"
       << "\"window_start_cycle\":" << windowStart
       << ",\"window_end_cycle\":" << windowEnd
       << ",\"events_overwritten\":" << dropped << "},\"traceEvents\":[";
    bool firstEvent = true;
    for (int track = 0; track < 4; ++track) {
        if (!firstEvent)
            os << ",";
        firstEvent = false;
        os << "{\"name\":\"thread_name\",\"ph\":\"M\",\"pid\":0,\"tid\":"
           << track << ",\"args\":{\"name\":\"" << trackName(track)
           << "\"}}";
    }
    for (const auto &e : events()) {
        os << ",{\"name\":\"" << e.name << "\",\"cat\":\"" << e.category
           << "\",\"ph\":\"X\",\"pid\":0,\"tid\":" << e.track
           << ",\"ts\":" << e.start
           << ",\"dur\":" << (e.duration > 0 ? e.duration : 1)
           << ",\"args\":{\"seq\":" << e.seq << "}}";
    }
    os << "]}\n";
}

} // namespace fo4::util
