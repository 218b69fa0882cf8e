/**
 * @file
 * Span recording for the benchmark's traced runs.  A span wraps one
 * call the benchmark makes into a module (category = the module's
 * directory under src/) or groups such calls ("group": a sweep, a
 * phase, a pass).  Spans carry a name, start, end, parent span and the
 * sweep they belong to; they stay in memory and are written once, at
 * exit, as Chrome trace_event JSON.
 *
 * A disabled tracer records nothing and costs one branch per span, so
 * timed and traced runs share one code path.
 */

#ifndef FO4_PERFBENCH_SPANS_HH
#define FO4_PERFBENCH_SPANS_HH

#include <cstdint>
#include <mutex>
#include <string>
#include <vector>

namespace fo4::perfbench
{

/** One recorded span; times are seconds since the tracer started. */
struct SpanRecord
{
    std::uint64_t id = 0;
    std::uint64_t parent = 0; ///< 0 = a root span
    std::uint64_t sweep = 0;  ///< 0 = not part of a sweep
    std::string name;
    std::string category;
    std::string detail; ///< free text (profile name, tier, ...)
    int thread = 0;     ///< small per-thread index
    double start = 0.0;
    double end = -1.0; ///< < start while open
};

/** Thread-safe, in-memory span store. */
class Tracer
{
  public:
    explicit Tracer(bool enabled);

    Tracer(const Tracer &) = delete;
    Tracer &operator=(const Tracer &) = delete;

    bool enabled() const { return on; }

    /** Open a span; returns its id (0 when disabled). */
    std::uint64_t open(const char *name, const char *category,
                       std::uint64_t parent, std::uint64_t sweep,
                       std::string detail = {});

    /** Close span `id` (no-op for 0). */
    void close(std::uint64_t id);

    /** Snapshot of every span opened so far, in id order. */
    std::vector<SpanRecord> spans() const;

    /** Durations in seconds of the closed spans named `name`. */
    std::vector<double> durations(const std::string &name) const;

    /**
     * Seconds of [from, to] covered by at least one closed span that
     * is not a "group" span — the traced wall the module calls (and the
     * benchmark's own checks) account for.
     */
    double coveredSeconds(double from, double to) const;

    /** Seconds since the tracer started (the span clock). */
    double now() const;

    /** Write every span as Chrome trace_event JSON. */
    void writeChromeJson(const std::string &path) const;

  private:
    bool on;
    double epoch;
    mutable std::mutex mutex;
    std::vector<SpanRecord> records; ///< guarded by mutex; id = index+1
};

/** RAII span: opens on construction, closes on destruction. */
class Span
{
  public:
    Span(Tracer &tracer, const char *name, const char *category,
         std::uint64_t parent = 0, std::uint64_t sweep = 0,
         std::string detail = {})
        : tracer(tracer),
          spanId(tracer.open(name, category, parent, sweep,
                             std::move(detail)))
    {
    }
    ~Span() { tracer.close(spanId); }

    Span(const Span &) = delete;
    Span &operator=(const Span &) = delete;

    std::uint64_t id() const { return spanId; }

  private:
    Tracer &tracer;
    std::uint64_t spanId;
};

} // namespace fo4::perfbench

#endif // FO4_PERFBENCH_SPANS_HH
