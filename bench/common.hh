/**
 * @file
 * Shared plumbing for the experiment harnesses: a uniform banner,
 * SIGINT-driven cooperative cancellation, the observability knobs, and
 * paper-vs-model table helpers.  The run-length and sweep keys are
 * parsed by study::RunArgs (study/run_keys.hh).
 */

#ifndef FO4_BENCH_COMMON_HH
#define FO4_BENCH_COMMON_HH

#include <csignal>
#include <cstdint>
#include <cstdio>
#include <iostream>
#include <sstream>
#include <string>
#include <vector>

#include "cacti/latency_cache.hh"
#include "study/checkpoint.hh"
#include "study/run_keys.hh"
#include "study/runner.hh"
#include "util/cancel.hh"
#include "util/config.hh"
#include "util/csv.hh"
#include "util/frame.hh"
#include "util/logging.hh"
#include "util/metrics.hh"
#include "util/table.hh"

namespace fo4::bench
{

/** Ctrl-C → cooperative cancellation (see util::installSigintCancel). */
inline void
installSigintCancel(util::CancelToken &token)
{
    util::installSigintCancel(token);
}

/** Print the experiment banner: id, claim being reproduced. */
inline void
banner(const std::string &id, const std::string &claim)
{
    std::printf("=== %s ===\n", id.c_str());
    std::printf("paper claim: %s\n\n", claim.c_str());
}

/** KeyDocs for the observability knobs observabilityFromArgs reads. */
inline std::vector<util::KeyDoc>
observabilityKeys()
{
    return {
        {"verbose", "print cache and metrics diagnostics"},
        {"stats", "write per-point stall-attribution CSV here"},
        {"trace", "write a Chrome pipeline trace of one benchmark here"},
        {"trace_start", "first cycle the trace records"},
        {"trace_cycles", "length of the traced cycle window"},
    };
}

/** Concatenate key lists (shared keys, the bench's own, observability). */
inline std::vector<util::KeyDoc>
keyUnion(std::initializer_list<std::vector<util::KeyDoc>> lists)
{
    std::vector<util::KeyDoc> keys;
    for (const auto &list : lists)
        keys.insert(keys.end(), list.begin(), list.end());
    return keys;
}

/**
 * Under verbose=, print the structure-latency cache counters — the
 * sweep memoization working shows up as a high hit count and exactly
 * one miss per distinct (calibration, structure, capacity) point.
 */
inline void
printLatencyCacheStats(bool verbose)
{
    if (!verbose)
        return;
    const auto s = cacti::LatencyCache::global().stats();
    std::printf("\nlatency cache: %llu lookups (%llu hits, %llu misses)\n",
                static_cast<unsigned long long>(s.lookups()),
                static_cast<unsigned long long>(s.hits),
                static_cast<unsigned long long>(s.misses));
}

/**
 * Harmonic-mean IPC of `profiles` on `params`, the window studies'
 * metric, through study::runSuite: under sim_impl=batched the cells
 * replay the decoded-trace registry and share warm start, and a failed
 * benchmark is reported and left out of the mean instead of aborting
 * the bench.  IPC does not depend on the clock, so any valid one will
 * do.
 */
inline double
harmonicIpc(const core::CoreParams &params, const study::RunSpec &spec,
            const std::vector<trace::BenchmarkProfile> &profiles)
{
    const study::SuiteResult suite =
        study::runSuite(params, tech::ClockModel{}, profiles, spec);
    for (const study::BenchResult *failed : suite.failures())
        util::warn("%s failed and is left out of the mean: %s",
                   failed->name.c_str(), failed->error.toString().c_str());
    return suite.harmonicIpcAll();
}

/** The t_useful sweep the paper uses (2..16 FO4). */
inline std::vector<double>
usefulSweep()
{
    return {2, 3, 4, 5, 6, 7, 8, 9, 10, 11, 12, 13, 14, 15, 16};
}

/** Locate the argmax of a (t, value) series. */
inline double
argmax(const std::vector<double> &ts, const std::vector<double> &values)
{
    double bestT = ts.empty() ? 0.0 : ts[0];
    double best = values.empty() ? 0.0 : values[0];
    for (std::size_t i = 1; i < values.size(); ++i) {
        if (values[i] > best) {
            best = values[i];
            bestT = ts[i];
        }
    }
    return bestT;
}

/** All sweep points whose value is within `tol` of the maximum: the
 *  optimum plateau (quantization stairs make near-ties common). */
inline std::vector<double>
plateau(const std::vector<double> &ts, const std::vector<double> &values,
        double tol = 0.005)
{
    double best = 0;
    for (const double v : values)
        best = std::max(best, v);
    std::vector<double> out;
    for (std::size_t i = 0; i < values.size(); ++i) {
        if (values[i] >= best * (1.0 - tol))
            out.push_back(ts[i]);
    }
    return out;
}

/** Render a plateau as "a-b" or a list. */
inline std::string
plateauStr(const std::vector<double> &p)
{
    std::string s;
    for (std::size_t i = 0; i < p.size(); ++i) {
        if (i)
            s += ",";
        char buf[16];
        std::snprintf(buf, sizeof(buf), "%g", p[i]);
        s += buf;
    }
    return s;
}

/** True if t is on the plateau. */
inline bool
onPlateau(const std::vector<double> &p, double t)
{
    for (const double v : p) {
        if (v == t)
            return true;
    }
    return false;
}

/** Print the shape verdict line benches end with. */
inline void
verdict(const std::string &text)
{
    std::printf("\nshape check: %s\n", text.c_str());
}

/** One clause of a shape verdict, and whether this run's numbers bear
 *  it out. */
struct Clause
{
    bool holds;
    const char *text;
};

/** The verdict built from the numbers a bench printed: the clauses that
 *  hold, then a WARNING naming each one that does not. */
inline void
verdict(const std::vector<Clause> &clauses)
{
    std::string held, failed;
    for (const Clause &c : clauses) {
        std::string &into = c.holds ? held : failed;
        into.append(into.empty() ? "" : "; ").append(c.text);
    }
    if (!failed.empty())
        held.append(held.empty() ? "" : "; ")
            .append("WARNING: not reproduced: ")
            .append(failed);
    verdict(held);
}

// ---------------------------------------------------------------------
// Observability plumbing: stats= / trace= / trace_start= / trace_cycles=
// ---------------------------------------------------------------------

/**
 * The observability knobs shared by the figure benches and examples:
 *  - stats=PATH       per-benchmark stall/occupancy CSV (atomic write;
 *                     deterministic at any jobs= value);
 *  - trace=PATH       Chrome trace_event JSON of one serially-rerun
 *                     cell (load in chrome://tracing / ui.perfetto.dev);
 *  - trace_start=N    first recorded cycle (default 0), at most
 *                     INT64_MAX - trace_cycles so the window's end is
 *                     representable;
 *  - trace_cycles=N   recording-window length in cycles.
 * Parsing either path (or verbose=) also enables the global
 * engineering-metrics registry for the process.
 */
struct ObservabilityOptions
{
    std::string statsPath;
    std::string tracePath;
    std::int64_t traceStart = 0;
    std::int64_t traceCycles = 20000;

    bool wantsStats() const { return !statsPath.empty(); }
    bool wantsTrace() const { return !tracePath.empty(); }
};

inline ObservabilityOptions
observabilityFromArgs(const util::Config &cfg)
{
    ObservabilityOptions o;
    o.statsPath = cfg.getString("stats", "");
    o.tracePath = cfg.getString("trace", "");
    o.traceCycles = cfg.getPositiveInt("trace_cycles", o.traceCycles);
    o.traceStart =
        cfg.getIntIn("trace_start", 0, 0, INT64_MAX - o.traceCycles);
    if (o.wantsStats() || o.wantsTrace() ||
        cfg.getBool("verbose", false))
        util::setMetricsEnabled(true);
    return o;
}

/**
 * The stats CSV's one column table: calls `f(name, value)` for each
 * column after the point label, in CSV order, with `b`'s rendered
 * value.  Counters print as integers and occupancies as per-cycle
 * means with a fixed format, so two byte-identical suites produce
 * byte-identical rows — the determinism contract extends to this CSV.
 */
template <class F>
void
forEachStatsColumn(const study::BenchResult &b, F &&f)
{
    const auto count = [](std::uint64_t v) {
        return util::strprintf("%llu", static_cast<unsigned long long>(v));
    };
    const auto &sim = b.sim;
    f("benchmark", b.name);
    f("class", trace::benchClassName(b.cls));
    f("status", b.failed() ? util::errorCodeName(b.error.code()) : "ok");
    f("instructions", count(sim.instructions));
    f("cycles", count(sim.cycles));
    f("stall_cycles", count(sim.stallCycles));
    for (int i = 0; i < core::numStallCauses; ++i) {
        f(std::string("stall_") +
              core::stallCauseName(static_cast<core::StallCause>(i)),
          count(sim.stalls.byCause[i]));
    }
    f("dispatch_window_full", count(sim.dispatchWindowFull));
    f("dispatch_rob_full", count(sim.dispatchRobFull));
    f("dispatch_lsq_full", count(sim.dispatchLsqFull));
    const auto &occ = sim.occupancy;
    const auto mean = [&occ](std::uint64_t sum) {
        return util::strprintf("%.6f", occ.mean(sum));
    };
    f("occ_front", mean(occ.frontSum));
    f("occ_window", mean(occ.windowSum));
    f("occ_rob", mean(occ.robSum));
    f("occ_lsq", mean(occ.lsqSum));
}

/** Header row of the stats CSV (shared by benches and identity tests). */
inline std::vector<std::string>
statsHeader(const std::string &pointColumn = "t_useful")
{
    std::vector<std::string> h{pointColumn};
    forEachStatsColumn(study::BenchResult{},
                       [&h](std::string name, const std::string &) {
                           h.push_back(std::move(name));
                       });
    return h;
}

/** One stats row per benchmark of `suite`, labelled `point` (e.g. the
 *  t_useful value). */
inline std::vector<std::vector<std::string>>
statsRows(const std::string &point, const study::SuiteResult &suite)
{
    std::vector<std::vector<std::string>> rows;
    rows.reserve(suite.benchmarks.size());
    for (const auto &b : suite.benchmarks) {
        std::vector<std::string> row{point};
        forEachStatsColumn(b, [&row](const std::string &, std::string v) {
            row.push_back(std::move(v));
        });
        rows.push_back(std::move(row));
    }
    return rows;
}

/** statsRows over a whole sweep, keyed by each point's t_useful. */
inline std::vector<std::vector<std::string>>
sweepStatsRows(const std::vector<study::SweepPointResult> &points)
{
    std::vector<std::vector<std::string>> rows;
    rows.push_back(statsHeader());
    for (const auto &point : points) {
        for (auto &row :
             statsRows(util::strprintf("%g", point.tUseful), point.suite))
            rows.push_back(std::move(row));
    }
    return rows;
}

/** Rows as the CSV bytes writeStats publishes (what the byte-identity
 *  tests compare). */
inline std::string
statsRowsToString(const std::vector<std::vector<std::string>> &rows)
{
    std::string out;
    for (const auto &row : rows)
        out += util::csvRow(row);
    return out;
}

/** Publish stats rows atomically (tmp + fsync + rename, like csv=). */
inline void
writeStats(const std::string &path,
           const std::vector<std::vector<std::string>> &rows)
{
    util::AtomicCsvFile csv(path);
    for (const auto &row : rows)
        csv.writeRow(row);
    csv.commit();
}

/**
 * Under trace=, rerun ONE cell serially with a TraceEventRing attached
 * and write its Chrome trace_event JSON.  The rerun is deliberate: a
 * ring is single-writer, so tracing never touches the parallel sweep —
 * and because results are deterministic, the rerun's pipeline schedule
 * is exactly the one the sweep measured.
 */
inline void
maybeWriteTrace(const ObservabilityOptions &obs,
                const core::CoreParams &params,
                const tech::ClockModel &clock, const study::BenchJob &job,
                study::RunSpec spec)
{
    if (!obs.wantsTrace())
        return;
    util::TraceEventRing ring(1 << 16, obs.traceStart, obs.traceCycles);
    spec.tracer = &ring;
    const auto result = study::runJobIsolated(params, clock, job, spec);
    if (result.failed()) {
        std::printf("trace: benchmark '%s' failed (%s); no trace "
                    "written\n",
                    job.name.c_str(),
                    util::errorCodeName(result.error.code()));
        return;
    }
    std::ostringstream json;
    ring.writeChromeJson(json);
    if (const auto st = util::writeWholeFile(obs.tracePath, json.str());
        !st.isOk())
        throw util::JournalError(st.code(), st.message());
    std::printf("trace: %zu events from cycles [%lld, %lld) of '%s' -> "
                "%s (open in chrome://tracing or ui.perfetto.dev)\n",
                ring.size(), static_cast<long long>(ring.startCycle()),
                static_cast<long long>(ring.endCycle()),
                job.name.c_str(), obs.tracePath.c_str());
}

/** Under verbose=, dump the engineering-metrics registry. */
inline void
printMetricsRegistry(bool verbose)
{
    if (!verbose || !util::metricsEnabled())
        return;
    std::printf("\nengineering metrics:\n");
    for (const auto &[name, value] :
         util::MetricsRegistry::global().snapshotCounters())
        std::printf("  %-28s %llu\n", name.c_str(),
                    static_cast<unsigned long long>(value));
}

} // namespace fo4::bench

#endif // FO4_BENCH_COMMON_HH
