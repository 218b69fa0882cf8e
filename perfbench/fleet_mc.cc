/**
 * @file
 * fleet_mc: an in-process fo4coord (svc::Coordinator with a checkpoint
 * directory and no result store) and two in-process svc::Workers, the
 * fixture test_svc_fabric.cc builds, with one client submitting
 * protocol-v4 Monte Carlo sweeps closed-loop: 8 dice of tiny cells over
 * the nine integer profiles x 2..16 FO4, 1080 cells per sweep.  Every
 * submission is distinct, so every cell is leased.
 *
 * The cost sits in the lease round trip, the coordinator's per-cell
 * fsync and building a core for every cell.  The workload also carries
 * the duplicate-dice property the others lack: a die keeps its point's
 * core parameters and resamples only the clock, so 7 of every 8
 * simulations repeat another die's.
 *
 * Health guard: before timing, both workers must be Live; after each
 * sweep their cellsCompleted must have grown by at least the sweep's
 * cells and both must still be Live.  A sweep the coordinator finished
 * by local fallback measures a different program, so it counts failed.
 */

#include <cstdio>
#include <filesystem>
#include <limits>
#include <memory>
#include <thread>

#include "cacti/latency_cache.hh"
#include "catalogue.hh"
#include "layers.hh"
#include "perfbench.hh"
#include "svc/coordinator.hh"
#include "svc/worker.hh"
#include "util/logging.hh"
#include "util/metrics.hh"

namespace fo4::perfbench
{

namespace
{

constexpr int kWorkers = 2;
constexpr int kTwinThreads = 2;
constexpr double kSweepTimeoutSeconds = 60.0;
constexpr double kLiveTimeoutSeconds = 10.0;
/** waitUntilDone cadence: under 1% of a ~3 s sweep, while sparing the
 *  coordinator a thousand status round trips a second. */
constexpr int kPollMs = 10;
/** Sweeps per traced pass. */
constexpr std::size_t kTracedSweeps = 2;
constexpr std::size_t kNever = std::numeric_limits<std::size_t>::max();
constexpr double kForever = std::numeric_limits<double>::infinity();

/** The coordinator, its workers, and the benchmark's connection. */
class Fleet
{
  public:
    Fleet() = default;
    ~Fleet() { stop(); }
    Fleet(const Fleet &) = delete;
    Fleet &operator=(const Fleet &) = delete;

    /** Bind a coordinator over `stateDir`, start the workers, connect,
     *  and return once the roster shows every worker Live. */
    void
    start(const std::string &stateDir)
    {
        svc::CoordinatorOptions o;
        o.checkpointDir = stateDir + "/checkpoints";
        // Idle workers re-ask for leases every heartbeat, so a short
        // heartbeat keeps a sweep's first grant prompt; the suspect and
        // dead thresholds stay loose enough that a busy host never
        // loses a worker.
        o.detector.heartbeatMs = 20;
        o.detector.suspectAfterMs = 1000;
        o.detector.deadAfterMs = 3000;
        o.tickMs = 20;
        o.localThreads = kWorkers;
        std::filesystem::create_directories(o.checkpointDir);
        coordinator = std::make_unique<svc::Coordinator>(o);
        for (int i = 0; i < kWorkers; ++i) {
            svc::WorkerOptions w;
            w.port = coordinator->port();
            w.name = util::strprintf("w%d", i + 1);
            workers.push_back(std::make_unique<svc::Worker>(w));
        }
        client = std::make_unique<svc::Client>("127.0.0.1",
                                               coordinator->port());
        // Poll the roster finely: the workers register within about a
        // millisecond, and a coarse poll would quantise setup_s.
        const double deadline = nowSeconds() + kLiveTimeoutSeconds;
        while (!allLive(client->workers())) {
            if (nowSeconds() > deadline)
                throw util::SvcError(util::ErrorCode::NetIo,
                                     "workers did not register as Live");
            std::this_thread::sleep_for(std::chrono::microseconds(100));
        }
    }

    void
    stop()
    {
        client.reset();
        for (auto &w : workers)
            w->stop();
        for (auto &w : workers)
            w->join();
        workers.clear();
        if (coordinator) {
            coordinator->stop();
            coordinator->join();
            coordinator.reset();
        }
    }

    svc::Client &connection() { return *client; }

    static bool
    allLive(const std::vector<svc::WorkerSnapshot> &roster)
    {
        std::size_t live = 0;
        for (const auto &w : roster)
            live += w.state == svc::WorkerState::Live;
        return live == kWorkers;
    }

    static std::uint64_t
    cellsCompleted(const std::vector<svc::WorkerSnapshot> &roster)
    {
        std::uint64_t n = 0;
        for (const auto &w : roster)
            n += w.cellsCompleted;
        return n;
    }

    /** The smallest worker's share of the cells the roster completed. */
    static double
    minShare(const std::vector<svc::WorkerSnapshot> &roster)
    {
        const double total = static_cast<double>(cellsCompleted(roster));
        double least = total;
        for (const auto &w : roster)
            least = std::min(least, static_cast<double>(w.cellsCompleted));
        return total > 0 ? least / total : 0.0;
    }

  private:
    std::unique_ptr<svc::Coordinator> coordinator;
    std::vector<std::unique_ptr<svc::Worker>> workers;
    std::unique_ptr<svc::Client> client;
};

struct Pass
{
    std::vector<double> seconds; ///< verified sweeps only
    std::uint64_t cells = 0;     ///< verified cells
    std::size_t sweeps = 0;      ///< submitted
    double wallSeconds = 0.0;
    std::vector<std::string> bodies;
};

/**
 * Submit sweeps of `seq` closed-loop until `seconds` have passed or
 * `count` sweeps are done.  Running out of sequence before either limit
 * is a failed operation: the catalogue is then too small for the
 * program's speed.
 */
Pass
runPass(const std::vector<std::size_t> &seq, const DigestTable &table,
        Fleet &fleet, double seconds, std::size_t count, Tracer &tracer,
        std::uint64_t passSpan, OpLedger &ops)
{
    Pass pass;
    const double begin = nowSeconds();
    for (std::size_t i = 0; i < count && nowSeconds() - begin < seconds;
         ++i) {
        if (i == seq.size()) {
            util::warn("fleet_mc used up its %zu-sweep sequence after "
                       "%.1f s; counted failed",
                       seq.size(), nowSeconds() - begin);
            ops.record(false);
            break;
        }
        const svc::SweepRequest request = mcRequest(seq[i]);
        const std::uint64_t expected = table.expect("fleet_mc", seq[i]);
        Span s(tracer, "fleet.sweep", "group", passSpan, i + 1);
        std::vector<svc::WorkerSnapshot> before, after;
        {
            Span w(tracer, "svc.workers", "svc", s.id(), i + 1);
            before = fleet.connection().workers();
        }
        RemoteSweep r =
            runRemoteSweep(fleet.connection(), request, expected, kPollMs,
                           kSweepTimeoutSeconds, tracer, s.id(), i + 1);
        {
            Span w(tracer, "svc.workers", "svc", s.id(), i + 1);
            after = fleet.connection().workers();
        }
        const bool healthy =
            Fleet::allLive(after) &&
            Fleet::cellsCompleted(after) >=
                Fleet::cellsCompleted(before) + r.cells;
        if (r.ok && !healthy)
            util::warn("fleet sweep %zu was not computed by two live "
                       "workers; counted failed",
                       i + 1);
        ++pass.sweeps;
        std::printf("sweep %zu (entry %zu): %.3f s%s\n", i + 1, seq[i],
                    r.seconds, r.ok && healthy ? "" : " (failed)");
        if (ops.record(r.ok && healthy)) {
            pass.seconds.push_back(r.seconds);
            pass.cells += r.cells;
            if (pass.bodies.size() < 4)
                pass.bodies.push_back(std::move(r.bytes));
        }
    }
    pass.wallSeconds = nowSeconds() - begin;
    return pass;
}

void
traced(const RunOptions &options, const DigestTable &table,
       const std::vector<std::size_t> &seq, const std::string &stateDir,
       Fleet &fleet, RunResult &result)
{
    // Untraced, traced, traced, untraced passes of the same sweeps, each
    // on a fresh fleet over a fresh directory.
    Tracer off(false);
    const auto restartClean = [&] {
        fleet.stop();
        removeTree(stateDir);
        fleet.start(stateDir);
    };
    const auto replay = [&](Tracer &t, std::uint64_t passSpan) {
        return runPass(seq, table, fleet, kForever, kTracedSweeps, t,
                       passSpan, result.ops);
    };
    const Pass first = replay(off, 0);

    restartClean();
    util::setMetricsEnabled(true);
    Tracer tracer(true);
    auto before = countersOf(fleet.connection().stats());
    const auto cacheBefore = cacti::LatencyCache::global().stats();
    std::vector<std::uint64_t> passSpans;
    std::uint64_t tracedCells = 0;
    std::vector<std::string> bodies;
    double minShare = 1.0;
    for (int k = 0; k < 2; ++k) {
        if (k > 0)
            restartClean();
        {
            Span root(tracer, "fleet_mc.pass", "group");
            passSpans.push_back(root.id());
            Pass p = replay(tracer, root.id());
            tracedCells += p.cells;
            if (k == 0)
                bodies = std::move(p.bodies);
        }
        minShare = std::min(minShare,
                            Fleet::minShare(fleet.connection().workers()));
    }
    auto after = countersOf(fleet.connection().stats());
    const auto cacheAfter = cacti::LatencyCache::global().stats();
    util::setMetricsEnabled(false);
    restartClean();
    const Pass last = replay(off, 0);
    fleet.stop();
    util::setMetricsEnabled(true);

    auto &v = result.values;
    reportAccounting(tracer, passSpans, first.wallSeconds + last.wallSeconds,
                     result);
    v["svc.submit_ms"] = median(tracer.durations("svc.submit")) * 1e3;
    v["svc.poll_ms"] = median(tracer.durations("svc.poll")) * 1e3;
    v["svc.fetch_ms"] = median(tracer.durations("svc.fetch")) * 1e3;
    v["svc.cells_executed"] = static_cast<double>(
        after["study.cells.executed"] - before["study.cells.executed"]);
    v["fleet.redispatched_cells"] =
        static_cast<double>(after["svc.fabric.cells_redispatched"] -
                            before["svc.fabric.cells_redispatched"]);
    v["fleet.local_fallbacks"] =
        static_cast<double>(after["svc.fabric.local_fallbacks"] -
                            before["svc.fabric.local_fallbacks"]);
    v["fleet.min_worker_share"] = minShare;
    v["cacti.hit_ratio"] = hitRatio(cacheBefore, cacheAfter);
    v["workload.fresh_cells"] = static_cast<double>(tracedCells);

    // Layer timings on the passes' own requests, outside the passes.
    std::vector<svc::SweepRequest> requests;
    for (std::size_t i = 0; i < first.sweeps; ++i)
        requests.push_back(mcRequest(seq[i]));
    v["svc.plan_ms"] = planMillis(requests);
    v["svc.frame_us_per_kib"] = frameMicrosPerKiB(bodies);
    measureBlobStore(bodies, options.workDir + "/blobs", result);

    const svc::SweepPlan plan = svc::planSweep(requests.front());
    svc::CellLeaseInfo lease;
    lease.sweep = svc::planFingerprint(plan);
    lease.requestBody = requests.front().encode();
    v["fleet.lease_bytes"] = static_cast<double>(lease.encode().size());
    v["study.mc_duplicate_share"] =
        duplicateShare(plan.points, plan.jobs, plan.spec);
    v["workload.cells_per_sweep"] = static_cast<double>(plan.cells());
    reportDecodeAndPrewarm(requests, tracer, result);

    // The fleet's twin: the same plan through in-process svc::runSweep.
    {
        Span s(tracer, "svc.runSweep", "svc");
        const double start = nowSeconds();
        const std::string bytes =
            svc::runSweep(plan, kTwinThreads, "", nullptr, {});
        v["fleet.twin_s"] = nowSeconds() - start;
        result.ops.verify(table.expect("fleet_mc", seq.front()), bytes);
    }

    // Cell-level layers on the first die's grid (every die repeats it).
    const std::vector<study::GridPoint> firstDie(
        plan.points.begin(),
        plan.points.begin() +
            static_cast<std::ptrdiff_t>(plan.points.size() / kMcSamples));
    study::CheckpointOptions copts;
    copts.threads = kTwinThreads;
    study::CheckpointedRunner runner(std::move(copts));
    std::vector<study::SuiteResult> grid;
    {
        Span s(tracer, "study.runGrid", "study");
        grid = runner.runGrid(firstDie, plan.jobs, plan.spec);
    }
    reportStudyCells({runner.report()}, kTwinThreads, result);
    const auto cells = cellRecords(grid);
    v["study.cell_codec_us"] = cellCodecMicros(cells);
    v["workload.instructions_per_cell"] = instructionsPerCell(grid);
    std::vector<std::string> payloads;
    for (const auto &cell : cells)
        payloads.push_back(study::encodeCellRecord(cell));
    measureJournal(payloads, options.workDir + "/journal", result);
    const JobTimings core = timeRunJob(
        std::vector<study::GridPoint>(firstDie.begin(), firstDie.begin() + 5),
        plan.jobs, plan.spec, tracer, 0);
    v["core.ooo_mcycles_per_s"] = core.mcyclesPerSecond;
    v["core.cell_p50_ms"] = median(core.cellMs);

    std::printf("fleet_mc: 2 traced passes of %zu sweeps; "
                "duplicate-simulation share %.3f; min worker share %.3f\n",
                first.sweeps, v["study.mc_duplicate_share"],
                v["fleet.min_worker_share"]);
    if (!options.traceOut.empty())
        tracer.writeChromeJson(options.traceOut);
    util::setMetricsEnabled(false);
}

} // namespace

void
setUpFleetMc(const std::string &workDir, const std::function<void()> &ready)
{
    Fleet fleet;
    fleet.start(workDir + "/fleet_mc");
    ready();
}

RunResult
runFleetMc(const RunOptions &options, const DigestTable &table)
{
    RunResult result;
    const std::string stateDir = options.workDir + "/fleet_mc";
    // The sequence's last entry warms the process; the run submits the
    // rest, so every sweep it times is new to the program.
    std::vector<std::size_t> seq = mcSequence(options.seed);
    const std::size_t warmup = seq.back();
    seq.pop_back();
    Fleet fleet;
    {
        // A fleet is long-lived: warm the process on a throwaway fleet
        // first, so the timed sweeps are not the process's first.
        Tracer off(false);
        fleet.start(stateDir);
        runPass({warmup}, table, fleet, kForever, 1, off, 0, result.ops);
        fleet.stop();
        removeTree(stateDir);
    }
    fleet.start(stateDir);
    std::printf("fleet_mc: seed %llu, poll cadence %d ms, %d workers, one "
                "client connection, %llu dice per sweep\n",
                static_cast<unsigned long long>(options.seed), kPollMs,
                kWorkers,
                static_cast<unsigned long long>(kMcSamples));

    if (options.traced) {
        traced(options, table, seq, stateDir, fleet, result);
        return result;
    }

    Tracer off(false);
    const Pass pass = runPass(seq, table, fleet, options.seconds, kNever, off,
                              0, result.ops);
    fleet.stop();

    double seconds = 0;
    for (const double s : pass.seconds)
        seconds += s;
    auto &v = result.values;
    v["sweep_p50_s"] = median(pass.seconds);
    v["fresh_p90_s"] = quantile(pass.seconds, 0.9);
    v["cells_per_s"] =
        seconds > 0 ? static_cast<double>(pass.cells) / seconds : 0.0;
    v["peak_rss_mb"] = peakRssMiB();
    const svc::SweepPlan plan = svc::planSweep(mcRequest(seq.front()));
    std::printf("fleet_mc: %zu sweeps of %llu cells, %llu instructions "
                "per cell; duplicate-simulation share %.3f\n",
                pass.sweeps, static_cast<unsigned long long>(plan.cells()),
                static_cast<unsigned long long>(plan.spec.instructions),
                duplicateShare(plan.points, plan.jobs, plan.spec));
    return result;
}

} // namespace fo4::perfbench
