/**
 * @file
 * fig5_local: the paper's Fig 5 grid (18 Table 2 profiles x t_useful
 * 2..16, out-of-order cores, bench_fig5_ooo's default run length) run
 * in process through study::CheckpointedRunner on the batched engine,
 * 2 threads, no journal.  The three process-wide caches are cleared
 * before every sweep, because every CLI invocation pays to fill them.
 * The workload never touches svc, the journal, the result store, the
 * fleet or Monte Carlo, so a change to those must read as no change
 * here.  It takes no seed.
 */

#include <cstdio>

#include "cacti/latency_cache.hh"
#include "catalogue.hh"
#include "core/warm_start.hh"
#include "layers.hh"
#include "perfbench.hh"
#include "study/scaling.hh"
#include "trace/decoded_trace.hh"
#include "trace/spec2000.hh"
#include "util/logging.hh"
#include "util/metrics.hh"

namespace fo4::perfbench
{

namespace
{

constexpr int kThreads = 2;
/** The column core.* times: the paper's integer optimum, 6 FO4. */
constexpr std::size_t kCoreColumn = 4;

void
clearProcessCaches()
{
    trace::DecodedTraceRegistry::global().clear();
    core::WarmStartCache::global().clear();
    cacti::LatencyCache::global().clear();
}

/** Everything a sweep needs, built in set-up. */
struct Fig5
{
    std::vector<trace::BenchmarkProfile> profiles;
    std::vector<double> axis;
    study::RunSpec spec;
};

Fig5
setUp()
{
    Fig5 f;
    f.profiles = trace::spec2000Profiles();
    f.axis = fig5Axis();
    f.spec = fig5Spec(study::SimImpl::Batched);
    return f;
}

study::CheckpointedRunner
makeRunner()
{
    study::CheckpointOptions options;
    options.threads = kThreads;
    return study::CheckpointedRunner(std::move(options));
}

/** One sweep as the CLI runs it, then its per-point digests against
 *  `expected`. */
bool
sweep(const Fig5 &f, const std::vector<std::uint64_t> &expected,
      study::CheckpointedRunner &runner,
      std::vector<study::SweepPointResult> &points, Tracer &tracer,
      std::uint64_t parent)
{
    try {
        {
            Span s(tracer, "study.sweepScaling", "study", parent, 1);
            points = runner.sweepScaling(f.axis, study::SweepOptions{},
                                         f.profiles, f.spec);
        }
        Span s(tracer, "check.digest", "check", parent, 1);
        bool ok = points.size() == expected.size();
        for (std::size_t p = 0; ok && p < points.size(); ++p)
            ok = fnv1a(study::serializeSuite(points[p].suite)) ==
                 expected[p];
        if (!ok)
            util::warn("fig5 sweep bytes differ from the catalogue digests");
        return ok;
    } catch (const std::exception &e) {
        util::warn("fig5 sweep failed: %s", e.what());
        return false;
    }
}

std::vector<study::SuiteResult>
suitesOf(const std::vector<study::SweepPointResult> &points)
{
    std::vector<study::SuiteResult> suites;
    for (const auto &p : points)
        suites.push_back(p.suite);
    return suites;
}

void
traced(const RunOptions &options, const Fig5 &f,
       const std::vector<std::uint64_t> &expected,
       study::CheckpointedRunner &runner, RunResult &result)
{
    Tracer off(false);
    std::vector<study::SweepPointResult> points;
    // An untraced sweep of the same work, timed for trace_overhead_frac.
    const auto untracedSweep = [&] {
        clearProcessCaches();
        util::setMetricsEnabled(false);
        std::vector<study::SweepPointResult> scratch;
        const double start = nowSeconds();
        result.ops.record(sweep(f, expected, runner, scratch, off, 0));
        return nowSeconds() - start;
    };

    // A warm-up sweep, so no compared sweep is the process's first; then
    // untraced, traced, untraced, so a steady drift in host speed cancels
    // out of trace_overhead_frac.  The first untraced sweep also shows
    // how deep each profile's stream is read.
    untracedSweep();
    double untraced = untracedSweep();

    std::vector<study::BenchJob> jobs;
    std::vector<std::uint64_t> depth;
    for (const auto &profile : f.profiles) {
        jobs.push_back(study::BenchJob::fromProfile(profile));
        depth.push_back(trace::DecodedTraceRegistry::global()
                            .viewForProfile(profile)
                            ->trace()
                            .materializedRecords());
    }
    std::vector<study::GridPoint> grid;
    const study::SweepOptions sweepOptions;
    for (const double t : f.axis)
        grid.push_back({study::scaledCoreParams(t, sweepOptions.scaling),
                        study::scaledClock(t, sweepOptions.overhead)});

    // The traced sweep, one phase at a time, so the phases add up to
    // the traced wall: decode, prewarm, then the grid on warm caches.
    clearProcessCaches();
    util::setMetricsEnabled(true);
    auto &registry = util::MetricsRegistry::global();
    Tracer tracer(true);
    const auto cacheBefore = cacti::LatencyCache::global().stats();
    double decodeS = 0, prewarmS = 0;
    std::uint64_t pass = 0, lateRecords = 0, lateStates = 0;
    {
        Span root(tracer, "fig5.sweep", "group", 0, 1);
        pass = root.id();
        {
            Span s(tracer, "phase.decode", "group", pass, 1);
            decodeS = decodeTraces(jobs, depth, kThreads, tracer, s.id(), 1);
        }
        {
            Span s(tracer, "phase.prewarm", "group", pass, 1);
            prewarmS = prewarmStates(grid, jobs, f.spec, kThreads, tracer,
                                     s.id(), 1);
        }
        const std::uint64_t records =
            registry.value("trace.decoded.records");
        const std::uint64_t states = registry.value("core.warm_state.built");
        Span s(tracer, "phase.grid", "group", pass, 1);
        result.ops.record(sweep(f, expected, runner, points, tracer, s.id()));
        lateRecords = registry.value("trace.decoded.records") - records;
        lateStates = registry.value("core.warm_state.built") - states;
    }
    const auto cacheAfter = cacti::LatencyCache::global().stats();
    const study::CheckpointReport report = runner.report();
    std::printf("traced grid: %llu records decoded and %llu warm states "
                "built after the decode and prewarm phases (0 expected)\n",
                static_cast<unsigned long long>(lateRecords),
                static_cast<unsigned long long>(lateStates));

    double records = 0;
    for (const std::uint64_t d : depth)
        records += static_cast<double>(d);
    const JobTimings core = timeRunJob(
        {grid[kCoreColumn]}, jobs, f.spec, tracer, 0);
    untraced = (untraced + untracedSweep()) / 2;

    auto &v = result.values;
    v["trace.decode_s"] = decodeS;
    v["trace.decoded_mb"] =
        records * sizeof(trace::TraceRecord) / (1024.0 * 1024.0);
    v["core.prewarm_s"] = prewarmS;
    v["core.ooo_mcycles_per_s"] = core.mcyclesPerSecond;
    v["core.cell_p50_ms"] = median(core.cellMs);
    v["cacti.hit_ratio"] = hitRatio(cacheBefore, cacheAfter);
    reportStudyCells({report}, kThreads, result);
    v["study.mc_duplicate_share"] = duplicateShare(grid, jobs, f.spec);
    v["workload.cells_per_sweep"] =
        static_cast<double>(grid.size() * jobs.size());
    v["workload.instructions_per_cell"] =
        instructionsPerCell(suitesOf(points));
    v["workload.fresh_cells"] = static_cast<double>(report.executedCells);
    reportAccounting(tracer, {pass}, untraced, result);
    std::printf("phases cover the traced wall to within %.4f "
                "(unaccounted_frac; bound 0.02)\n",
                v["unaccounted_frac"]);
    if (!options.traceOut.empty())
        tracer.writeChromeJson(options.traceOut);
}

} // namespace

void
setUpFig5Local(const std::string &, const std::function<void()> &ready)
{
    const Fig5 f = setUp();
    study::CheckpointedRunner runner = makeRunner();
    ready();
}

RunResult
runFig5Local(const RunOptions &options, const DigestTable &table)
{
    RunResult result;
    std::vector<std::uint64_t> expected;
    for (std::size_t p = 0; p < fig5Axis().size(); ++p)
        expected.push_back(table.expect("fig5_local", p));
    const Fig5 f = setUp();
    study::CheckpointedRunner runner = makeRunner();
    std::printf("fig5_local: %zu profiles x %zu points, %llu instructions "
                "per cell, %d threads, batched engine\n",
                f.profiles.size(), f.axis.size(),
                static_cast<unsigned long long>(f.spec.instructions),
                kThreads);

    if (options.traced) {
        traced(options, f, expected, runner, result);
        return result;
    }

    Tracer off(false);
    std::vector<double> sweeps;
    double timed = 0.0, cells = 0.0;
    const double begin = nowSeconds();
    while (nowSeconds() - begin < options.seconds) {
        clearProcessCaches();
        std::vector<study::SweepPointResult> points;
        const double start = nowSeconds();
        const bool ok = sweep(f, expected, runner, points, off, 0);
        const double took = nowSeconds() - start;
        if (result.ops.record(ok)) {
            sweeps.push_back(took);
            timed += took;
            cells += static_cast<double>(f.axis.size() * f.profiles.size());
        }
        std::printf("sweep %llu: %.3f s%s\n",
                    static_cast<unsigned long long>(result.ops.attempted()),
                    took, ok ? "" : " (failed)");
    }
    auto &v = result.values;
    v["sweep_p50_s"] = median(sweeps);
    v["fresh_p90_s"] = quantile(sweeps, 0.9);
    v["cells_per_s"] = timed > 0 ? cells / timed : 0.0;
    v["peak_rss_mb"] = peakRssMiB();
    std::printf("fig5_local: %zu sweeps of %zu cells\n", sweeps.size(),
                f.axis.size() * f.profiles.size());
    return result;
}

} // namespace fo4::perfbench
