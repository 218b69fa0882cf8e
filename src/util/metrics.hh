/**
 * @file
 * Observability primitives: a process-wide counter/histogram registry
 * and a bounded event-trace ring buffer.
 *
 * Two kinds of instrumentation coexist in the simulator, with different
 * contracts:
 *
 *  - *Result statistics* (core::SimResult's stall attribution and
 *    occupancy counters) are part of a simulation's output.  They are
 *    plain integers owned by a single-threaded core, always on, and
 *    deterministic at any thread count — they ride the byte-identity
 *    contract of study::serializeSuite.
 *
 *  - *Engineering metrics* (this file) are process-global diagnostics:
 *    cache hit rates, cells executed, retries.  Increments are
 *    lock-free (relaxed atomics) and gated on one global enable flag,
 *    so a build with metrics compiled in but disabled pays one relaxed
 *    atomic load and a predictable branch per increment site — the
 *    "near-zero when off" contract benchmarked by bench_sim_throughput.
 *    Their *sums* are deterministic when the instrumented work is, but
 *    timings and the order of increments are not, so engineering
 *    metrics are never written into byte-identity artifacts.
 *
 * Thread safety: counter/histogram increments are wait-free after the
 * first lookup; name registration takes a mutex but returns stable
 * references (node-based storage), so a caller can look a counter up
 * once and increment it forever without synchronization.
 *
 * The TraceEventRing records per-instruction pipeline events for a
 * configurable cycle window and renders them as Chrome trace_event JSON
 * (load chrome://tracing or https://ui.perfetto.dev and drop the file).
 * A ring is single-writer: each simulated core owns at most one.
 */

#ifndef FO4_UTIL_METRICS_HH
#define FO4_UTIL_METRICS_HH

#include <atomic>
#include <cstdint>
#include <map>
#include <mutex>
#include <ostream>
#include <string>
#include <vector>

namespace fo4::util
{

/** Is engineering-metrics collection globally enabled? */
bool metricsEnabled();

/** Flip the global collection flag (returns the previous value). */
bool setMetricsEnabled(bool enabled);

/**
 * A registered event counter.  Increments are relaxed atomic adds and
 * are dropped (one load + one branch) while collection is disabled.
 */
class MetricCounter
{
  public:
    void
    add(std::uint64_t n)
    {
        if (metricsEnabled())
            count.fetch_add(n, std::memory_order_relaxed);
    }

    void inc() { add(1); }

    std::uint64_t
    value() const
    {
        return count.load(std::memory_order_relaxed);
    }

    void reset() { count.store(0, std::memory_order_relaxed); }

  private:
    std::atomic<std::uint64_t> count{0};
};

/**
 * A registered fixed-bucket histogram over [0, buckets); samples at or
 * above the last bucket clamp into it.  Sampling is lock-free.
 */
class MetricHistogram
{
  public:
    explicit MetricHistogram(std::size_t buckets);

    MetricHistogram(const MetricHistogram &) = delete;
    MetricHistogram &operator=(const MetricHistogram &) = delete;

    void sample(std::uint64_t v);

    std::size_t bucketCount() const { return counts.size(); }
    std::uint64_t bucket(std::size_t i) const;
    std::uint64_t samples() const;
    std::uint64_t total() const;
    double mean() const;
    void reset();

  private:
    // vector<atomic> is legal as long as it is never resized; the
    // bucket count is fixed at construction.
    std::vector<std::atomic<std::uint64_t>> counts;
    std::atomic<std::uint64_t> sampleCount{0};
    std::atomic<std::uint64_t> sampleSum{0};
};

/**
 * Name -> counter/histogram registry.  counter()/histogram() create on
 * first use and afterwards return the same object, so call sites may
 * cache the reference; the returned references stay valid for the
 * registry's lifetime (node-based map storage).
 */
class MetricsRegistry
{
  public:
    /** The shared process-wide instance. */
    static MetricsRegistry &global();

    MetricsRegistry() = default;
    MetricsRegistry(const MetricsRegistry &) = delete;
    MetricsRegistry &operator=(const MetricsRegistry &) = delete;

    /** Find-or-create the counter with this name. */
    MetricCounter &counter(const std::string &name);

    /**
     * Find-or-create the histogram with this name.  The bucket count is
     * fixed by the first caller; later callers get the existing
     * histogram regardless of the `buckets` they pass.
     */
    MetricHistogram &histogram(const std::string &name,
                               std::size_t buckets = 16);

    /** Snapshot of every counter, sorted by name (deterministic). */
    std::vector<std::pair<std::string, std::uint64_t>> snapshotCounters()
        const;

    /** Look up a counter's current value; 0 if never registered. */
    std::uint64_t value(const std::string &name) const;

    std::size_t counterCount() const;

    /** Zero every counter and histogram (registrations survive). */
    void resetAll();

    /** Render "name value" lines sorted by name (counters, then
     *  histogram summaries as name.samples / name.mean). */
    void dump(std::ostream &os) const;

  private:
    mutable std::mutex mutex;
    // std::map never relocates nodes, so references handed out by
    // counter()/histogram() survive any number of later insertions.
    std::map<std::string, MetricCounter> counters;
    std::map<std::string, MetricHistogram> histograms;
};

// ---------------------------------------------------------------------
// Event tracing
// ---------------------------------------------------------------------

/** One complete ("ph":"X") Chrome trace event, timestamps in cycles. */
struct TraceEvent
{
    const char *name = "";  ///< static string (op class, phase name)
    const char *category = ""; ///< static string ("pipeline", ...)
    int track = 0;          ///< Chrome tid: one lane per pipeline stage
    std::int64_t start = 0; ///< begin cycle
    std::int64_t duration = 0; ///< cycles (>= 1 for visibility)
    std::uint64_t seq = 0;  ///< instruction sequence number (args.seq)
};

/**
 * Bounded single-writer ring of trace events covering the cycle window
 * [startCycle, startCycle + windowCycles).  Events outside the window
 * are rejected at emit(); once the ring is full the oldest events are
 * overwritten, so the JSON always holds the *last* `capacity` events of
 * the window and reports how many were dropped.
 */
class TraceEventRing
{
  public:
    TraceEventRing(std::size_t capacity, std::int64_t startCycle,
                   std::int64_t windowCycles);

    /** Is this cycle inside the recording window?  Cores use this to
     *  skip event assembly entirely outside the window. */
    bool
    wants(std::int64_t cycle) const
    {
        return cycle >= windowStart && cycle < windowEnd;
    }

    /** Record one event; silently dropped when `start` is outside the
     *  window.  Overwrites the oldest event when full. */
    void emit(const TraceEvent &event);

    std::size_t size() const;
    std::size_t capacity() const { return ring.size(); }
    std::uint64_t overwritten() const { return dropped; }
    std::int64_t startCycle() const { return windowStart; }
    std::int64_t endCycle() const { return windowEnd; }

    /** Events in chronological (emit) order, oldest surviving first. */
    std::vector<TraceEvent> events() const;

    /**
     * Render the ring as a Chrome trace_event JSON object: one complete
     * event per entry (1 cycle = 1 "microsecond" of trace time), plus
     * thread_name metadata naming the per-stage lanes.  Suitable for
     * chrome://tracing and Perfetto.
     */
    void writeChromeJson(std::ostream &os) const;

    /** Canonical lane names (index == TraceEvent::track). */
    static const char *trackName(int track);

  private:
    std::vector<TraceEvent> ring;
    std::size_t next = 0;   ///< slot the next emit writes
    std::size_t used = 0;   ///< live entries (<= capacity)
    std::uint64_t dropped = 0;
    std::int64_t windowStart;
    std::int64_t windowEnd;
};

} // namespace fo4::util

#endif // FO4_UTIL_METRICS_HH
