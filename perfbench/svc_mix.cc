/**
 * @file
 * svc_mix: an in-process fo4d (svc::Server, threads=2, checkpoint and
 * result-store directories under the run's scratch directory) and one
 * svc::Client submitting small sweeps closed-loop: both core models,
 * three integer profiles x t_useful 4..8, a few thousand instructions
 * per cell.  Exactly 60% of submissions repeat an earlier request.  At a
 * fixed submission the daemon is restarted over the same directories, so
 * repeats are answered both by the in-memory JobTable (a request seen
 * since the daemon started) and by the persistent ResultStore (one seen
 * only before the restart).  The restart's start-up is a setup sample.
 *
 * Fixed per-sweep and per-cell costs dominate here: round trips,
 * fsync'd journal appends, store reads and writes, and the reference
 * cores the service runs.  Reads (repeats) sit beside writes (fresh
 * sweeps), so a change that speeds one at the other's cost shows.
 */

#include <cmath>
#include <cstdio>
#include <filesystem>
#include <limits>
#include <memory>
#include <optional>
#include <set>

#include "cacti/latency_cache.hh"
#include "catalogue.hh"
#include "layers.hh"
#include "perfbench.hh"
#include "svc/server.hh"
#include "util/logging.hh"
#include "util/metrics.hh"

namespace fo4::perfbench
{

namespace
{

constexpr int kThreads = 2;
constexpr double kSweepTimeoutSeconds = 60.0;
constexpr double kWarmupSeconds = 2.0;
/** waitUntilDone cadence: a repeat completes in about 1.5 ms, so
 *  coarser polling would round it away. */
constexpr int kPollMs = 1;
/** The timed pass restarts the daemon before this submission, about
 *  10 s into a run at this head.  A fixed index keeps the tier mix a
 *  function of the seed alone, and a program three times slower still
 *  reaches it within 30 s. */
constexpr std::size_t kRestartAt = 400;
/** Submissions per traced pass; the restart falls halfway. */
constexpr std::size_t kTracedSubmissions = 200;
/** Requests whose plans the traced run's layer timings reuse. */
constexpr std::size_t kLayerRequests = 20;
constexpr std::size_t kTwinRequests = 5;
constexpr std::size_t kNever = std::numeric_limits<std::size_t>::max();
constexpr double kForever = std::numeric_limits<double>::infinity();

/** Which part of the daemon answered a submission. */
enum class Tier
{
    Fresh, ///< computed: the daemon had not seen the request
    Dedup, ///< JobTable: seen since this daemon started
    Store, ///< ResultStore: seen only before the restart
};

const char *
tierName(Tier tier)
{
    switch (tier) {
      case Tier::Fresh:
        return "fresh";
      case Tier::Dedup:
        return "dedup";
      case Tier::Store:
        return "store";
    }
    return "?";
}

/** The daemon under test and the benchmark's one connection to it. */
class Daemon
{
  public:
    Daemon() = default;
    ~Daemon() { stop(); }
    Daemon(const Daemon &) = delete;
    Daemon &operator=(const Daemon &) = delete;

    /** Bind a daemon over `stateDir` and connect; returns once the
     *  daemon has answered a Stats round trip. */
    void
    start(const std::string &stateDir)
    {
        svc::ServerOptions o;
        o.threads = kThreads;
        o.checkpointDir = stateDir + "/checkpoints";
        o.cacheDir = stateDir + "/cache";
        std::filesystem::create_directories(o.checkpointDir);
        server = std::make_unique<svc::Server>(o);
        client = std::make_unique<svc::Client>("127.0.0.1", server->port());
        client->stats();
    }

    void
    stop()
    {
        client.reset();
        if (server) {
            server->stop();
            server->join();
            server.reset();
        }
    }

    svc::Client &connection() { return *client; }

  private:
    std::unique_ptr<svc::Server> server;
    std::unique_ptr<svc::Client> client;
};

struct Sample
{
    std::size_t entry = 0;
    Tier tier = Tier::Fresh;
    bool ok = false;
    double seconds = 0.0;
    std::uint64_t cells = 0;
};

struct Pass
{
    std::vector<Sample> samples;
    /** The new daemon's start-up, if the pass got as far as the
     *  restart. */
    std::optional<double> restartSeconds;
    double wallSeconds = 0.0;
    /** The first kLayerRequests result bodies fetched. */
    std::vector<std::string> bodies;
};

/**
 * Submit `seq` closed-loop until `seconds` have passed or `count`
 * submissions are done, restarting the daemon before submission
 * `restartAt`.  Running out of sequence before either limit is a failed
 * operation: the catalogue is then too small for the program's speed.
 */
Pass
runPass(const std::vector<MixSubmission> &seq, const DigestTable &table,
        const std::string &stateDir, Daemon &daemon, double seconds,
        std::size_t count, std::size_t restartAt, Tracer &tracer,
        std::uint64_t passSpan, OpLedger &ops)
{
    Pass pass;
    std::set<std::size_t> sinceStart;
    const double begin = nowSeconds();
    for (std::size_t i = 0; i < count && nowSeconds() - begin < seconds;
         ++i) {
        if (i == seq.size()) {
            util::warn("svc_mix used up its %zu-submission sequence after "
                       "%.1f s; counted failed",
                       seq.size(), nowSeconds() - begin);
            ops.record(false);
            break;
        }
        if (i == restartAt) {
            Span s(tracer, "svc.restart", "svc", passSpan, 0);
            daemon.stop();
            const double start = nowSeconds();
            daemon.start(stateDir);
            pass.restartSeconds = nowSeconds() - start;
            sinceStart.clear();
        }
        const MixSubmission &sub = seq[i];
        Sample sample;
        sample.entry = sub.entry;
        sample.tier = sub.fresh                      ? Tier::Fresh
                      : sinceStart.count(sub.entry) ? Tier::Dedup
                                                     : Tier::Store;
        const svc::SweepRequest request = mixRequest(sub.entry);
        const std::uint64_t expected = table.expect("svc_mix", sub.entry);
        Span s(tracer, "svc.sweep", "group", passSpan, i + 1,
               tierName(sample.tier));
        RemoteSweep r =
            runRemoteSweep(daemon.connection(), request, expected, kPollMs,
                           kSweepTimeoutSeconds, tracer, s.id(), i + 1);
        sample.ok = ops.record(r.ok);
        sample.seconds = r.seconds;
        sample.cells = r.cells;
        pass.samples.push_back(sample);
        sinceStart.insert(sub.entry);
        if (r.ok && pass.bodies.size() < kLayerRequests)
            pass.bodies.push_back(std::move(r.bytes));
    }
    pass.wallSeconds = nowSeconds() - begin;
    return pass;
}

std::vector<double>
secondsOf(const Pass &pass, Tier tier)
{
    std::vector<double> out;
    for (const auto &s : pass.samples) {
        if (s.ok && s.tier == tier)
            out.push_back(s.seconds);
    }
    return out;
}

double
share(const Pass &pass, Tier tier)
{
    std::size_t n = 0;
    for (const auto &s : pass.samples)
        n += s.tier == tier;
    return pass.samples.empty()
               ? 0.0
               : static_cast<double>(n) / pass.samples.size();
}

/** Print the workload's measured properties. */
void
describe(const Pass &pass)
{
    double cells = 0, instructions = 0;
    for (const auto &s : pass.samples) {
        const svc::SweepRequest r = mixRequest(s.entry);
        cells += static_cast<double>(r.tUseful.size() * r.jobs.size());
        instructions += static_cast<double>(r.instructions);
    }
    const double n = pass.samples.empty() ? 1.0 : pass.samples.size();
    std::printf("svc_mix: %zu submissions (restart %s): fresh "
                "%.3f, repeat answered by JobTable %.3f, by ResultStore "
                "%.3f; %.1f cells per sweep, %.0f instructions per cell\n",
                pass.samples.size(),
                pass.restartSeconds ? "done" : "not reached",
                share(pass, Tier::Fresh), share(pass, Tier::Dedup),
                share(pass, Tier::Store), cells / n, instructions / n);
}

void
traced(const RunOptions &options, const DigestTable &table,
       const std::vector<MixSubmission> &seq, const std::string &stateDir,
       Daemon &daemon, RunResult &result)
{
    // Untraced, traced, traced, untraced passes of the same submissions,
    // each on a fresh daemon over fresh directories.
    Tracer off(false);
    const auto restartClean = [&] {
        daemon.stop();
        removeTree(stateDir);
        daemon.start(stateDir);
    };
    const auto replay = [&](Tracer &t, std::uint64_t passSpan) {
        return runPass(seq, table, stateDir, daemon, kForever,
                       kTracedSubmissions, kTracedSubmissions / 2, t,
                       passSpan, result.ops);
    };
    const Pass first = replay(off, 0);
    describe(first);

    restartClean();
    util::setMetricsEnabled(true);
    Tracer tracer(true);
    auto before = countersOf(daemon.connection().stats());
    const auto cacheBefore = cacti::LatencyCache::global().stats();
    Pass pass; // both traced passes' samples
    std::vector<std::uint64_t> passSpans;
    for (int k = 0; k < 2; ++k) {
        if (k > 0)
            restartClean();
        Span root(tracer, "svc_mix.pass", "group");
        passSpans.push_back(root.id());
        Pass p = replay(tracer, root.id());
        pass.samples.insert(pass.samples.end(), p.samples.begin(),
                            p.samples.end());
        if (k == 0)
            pass.bodies = std::move(p.bodies);
    }
    auto after = countersOf(daemon.connection().stats());
    const auto cacheAfter = cacti::LatencyCache::global().stats();
    util::setMetricsEnabled(false);
    restartClean();
    const Pass last = replay(off, 0);
    daemon.stop();
    util::setMetricsEnabled(true);

    auto &v = result.values;
    reportAccounting(tracer, passSpans, first.wallSeconds + last.wallSeconds,
                     result);
    const auto ms = [&](const char *name) {
        return median(tracer.durations(name)) * 1e3;
    };
    v["svc.submit_ms"] = ms("svc.submit");
    v["svc.poll_ms"] = ms("svc.poll");
    v["svc.fetch_ms"] = ms("svc.fetch");
    v["svc.dedup_hit_ms"] = median(secondsOf(pass, Tier::Dedup)) * 1e3;
    v["svc.store_hit_ms"] = median(secondsOf(pass, Tier::Store)) * 1e3;
    v["svc.cells_executed"] = static_cast<double>(
        after["study.cells.executed"] - before["study.cells.executed"]);
    v["cacti.hit_ratio"] = hitRatio(cacheBefore, cacheAfter);

    double freshCells = 0, cells = 0;
    std::size_t dedups = 0, stores = 0;
    std::vector<std::size_t> freshEntries;
    for (const auto &s : pass.samples) {
        cells += static_cast<double>(s.cells);
        if (s.tier == Tier::Fresh) {
            freshCells += static_cast<double>(s.cells);
            freshEntries.push_back(s.entry);
        }
        dedups += s.tier == Tier::Dedup;
        stores += s.tier == Tier::Store;
    }
    std::printf("tiers by the daemon's own counters: %llu JobTable and "
                "%llu ResultStore answers (benchmark's split: %zu, %zu)\n",
                static_cast<unsigned long long>(after["svc.cache.dedup"] -
                                                before["svc.cache.dedup"]),
                static_cast<unsigned long long>(after["svc.cache.hit"] -
                                                before["svc.cache.hit"]),
                dedups, stores);
    v["workload.fresh_cells"] = freshCells;
    v["workload.cells_per_sweep"] =
        pass.samples.empty() ? 0.0 : cells / pass.samples.size();
    v["workload.repeat_share_dedup"] = share(pass, Tier::Dedup);
    v["workload.repeat_share_store"] = share(pass, Tier::Store);

    // Layer timings on the pass's own requests, outside the pass.
    std::vector<svc::SweepRequest> requests;
    for (std::size_t i = 0;
         i < pass.samples.size() && requests.size() < kLayerRequests; ++i)
        requests.push_back(mixRequest(pass.samples[i].entry));
    v["svc.plan_ms"] = planMillis(requests);
    v["svc.frame_us_per_kib"] = frameMicrosPerKiB(pass.bodies);
    measureBlobStore(pass.bodies, options.workDir + "/blobs", result);
    reportDecodeAndPrewarm(requests, tracer, result);

    std::vector<double> twin;
    std::vector<study::CheckpointReport> reports;
    std::vector<study::SuiteResult> suites;
    std::vector<std::string> payloads;
    bool oooTimed = false, inorderTimed = false;
    for (std::size_t k = 0; k < freshEntries.size() && k < kTwinRequests;
         ++k) {
        const std::size_t entry = freshEntries[k];
        const svc::SweepPlan plan = svc::planSweep(mixRequest(entry));
        double start = nowSeconds();
        {
            Span s(tracer, "svc.runSweep", "svc");
            const std::string bytes =
                svc::runSweep(plan, kThreads, "", nullptr, {});
            twin.push_back(nowSeconds() - start);
            result.ops.verify(table.expect("svc_mix", entry), bytes);
        }
        study::CheckpointOptions copts;
        copts.threads = kThreads;
        study::CheckpointedRunner runner(std::move(copts));
        {
            Span s(tracer, "study.runGrid", "study");
            const auto grid =
                runner.runGrid(plan.points, plan.jobs, plan.spec);
            for (const auto &cell : cellRecords(grid))
                payloads.push_back(study::encodeCellRecord(cell));
            suites.insert(suites.end(), grid.begin(), grid.end());
        }
        reports.push_back(runner.report());
        const bool ooo = plan.spec.model == study::CoreModel::OutOfOrder;
        if (ooo ? !oooTimed : !inorderTimed) {
            const JobTimings core =
                timeRunJob(plan.points, plan.jobs, plan.spec, tracer, 0);
            v[ooo ? "core.ooo_mcycles_per_s" : "core.inorder_mcycles_per_s"] =
                core.mcyclesPerSecond;
            if (ooo)
                v["core.cell_p50_ms"] = median(core.cellMs);
            (ooo ? oooTimed : inorderTimed) = true;
        }
        v["study.mc_duplicate_share"] =
            duplicateShare(plan.points, plan.jobs, plan.spec);
    }
    v["svc.twin_s"] = median(twin);
    reportStudyCells(reports, kThreads, result);
    v["study.cell_codec_us"] = cellCodecMicros(cellRecords(suites));
    v["workload.instructions_per_cell"] = instructionsPerCell(suites);
    measureJournal(payloads, options.workDir + "/journal", result);

    if (!options.traceOut.empty())
        tracer.writeChromeJson(options.traceOut);
    util::setMetricsEnabled(false);
}

} // namespace

void
setUpSvcMix(const std::string &workDir, const std::function<void()> &ready)
{
    Daemon daemon;
    daemon.start(workDir + "/svc_mix");
    ready();
}

RunResult
runSvcMix(const RunOptions &options, const DigestTable &table)
{
    RunResult result;
    const std::string stateDir = options.workDir + "/svc_mix";
    const std::vector<MixSubmission> seq = mixSequence(options.seed);
    Daemon daemon;
    {
        // A daemon is long-lived: warm the process (allocator, page
        // cache, planning caches) on a throwaway daemon first, so the
        // timed sweeps are not the process's first.
        Tracer off(false);
        daemon.start(stateDir);
        runPass(seq, table, stateDir, daemon, kWarmupSeconds, kNever,
                kNever, off, 0, result.ops);
        daemon.stop();
        removeTree(stateDir);
    }
    daemon.start(stateDir);
    std::printf("svc_mix: seed %llu, poll cadence %d ms, %d sweep threads, "
                "one client connection\n",
                static_cast<unsigned long long>(options.seed), kPollMs,
                kThreads);

    if (options.traced) {
        traced(options, table, seq, stateDir, daemon, result);
        return result;
    }

    Tracer off(false);
    const Pass pass = runPass(seq, table, stateDir, daemon, options.seconds,
                              kNever, kRestartAt, off, 0, result.ops);
    daemon.stop();
    if (pass.restartSeconds)
        result.setupSamples.push_back(*pass.restartSeconds);
    describe(pass);

    const std::vector<double> fresh = secondsOf(pass, Tier::Fresh);
    double cells = 0, seconds = 0;
    for (const auto &s : pass.samples) {
        if (s.ok) {
            cells += static_cast<double>(s.cells);
            seconds += s.seconds;
        }
    }
    auto &v = result.values;
    v["sweep_p50_s"] = median(fresh);
    v["fresh_p90_s"] = quantile(fresh, 0.9);
    v["cells_per_s"] = seconds > 0 ? cells / seconds : 0.0;
    v["peak_rss_mb"] = peakRssMiB();
    std::printf("svc_mix: %zu fresh sweeps, %.0f beyond p90\n",
                fresh.size(), std::floor(fresh.size() * 0.1));
    return result;
}

} // namespace fo4::perfbench
