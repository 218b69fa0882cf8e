#include "layers.hh"

#include <cstring>
#include <filesystem>
#include <set>

#include "bp/predictors.hh"
#include "core/warm_start.hh"
#include "trace/decoded_trace.hh"
#include "util/blob_store.hh"
#include "util/journal.hh"
#include "util/logging.hh"
#include "util/thread_pool.hh"

namespace fo4::perfbench
{

namespace
{

/** Keeps timed loops' results observable so none is optimised away. */
volatile std::size_t gSink = 0;

/** Raised from waitUntilDone's status callback past the deadline. */
struct SweepTimeout
{
};

/** Run `task(i)` for i in [0, n) on `threads` threads. */
template <typename Task>
void
forEach(std::size_t n, int threads, const Task &task)
{
    util::ThreadPool pool(threads);
    util::TaskGroup group(pool);
    for (std::size_t i = 0; i < n; ++i)
        group.submit([&task, i] { task(i); });
    group.wait();
}

/** Repeat `body` until it has run at least `minSeconds` (and once);
 *  returns seconds per repetition. */
template <typename Body>
double
perRepetition(double minSeconds, const Body &body)
{
    const double start = nowSeconds();
    std::uint64_t reps = 0;
    double elapsed = 0.0;
    do {
        body();
        ++reps;
        elapsed = nowSeconds() - start;
    } while (elapsed < minSeconds);
    return elapsed / static_cast<double>(reps);
}

} // namespace

RemoteSweep
runRemoteSweep(svc::Client &client, const svc::SweepRequest &request,
               std::uint64_t expected, int pollMs, double timeoutSeconds,
               Tracer &tracer, std::uint64_t parent, std::uint64_t sweep)
{
    RemoteSweep out;
    const double start = nowSeconds();
    std::uint64_t id = 0;
    try {
        {
            Span s(tracer, "svc.submit", "svc", parent, sweep);
            const auto [jobId, cells] = client.submit(request);
            id = jobId;
            out.cells = cells;
        }
        svc::JobStatusInfo status;
        {
            Span s(tracer, "svc.wait", "svc", parent, sweep);
            const double deadline = start + timeoutSeconds;
            status = client.waitUntilDone(
                id, pollMs, [deadline](const svc::JobStatusInfo &) {
                    if (nowSeconds() > deadline)
                        throw SweepTimeout{};
                });
        }
        if (status.state != svc::JobState::Done) {
            util::warn("sweep %llu ended %s: %s",
                       static_cast<unsigned long long>(id),
                       svc::jobStateName(status.state),
                       status.errorMessage.c_str());
            return out;
        }
        {
            Span s(tracer, "svc.fetch", "svc", parent, sweep);
            out.bytes = client.fetchResults(id);
        }
        {
            Span s(tracer, "check.digest", "check", parent, sweep);
            out.ok = fnv1a(out.bytes) == expected;
        }
        out.seconds = nowSeconds() - start;
        if (!out.ok)
            util::warn("sweep %llu: result bytes differ from the catalogue "
                       "digest",
                       static_cast<unsigned long long>(id));
        if (tracer.enabled()) {
            Span s(tracer, "svc.poll", "svc", parent, sweep);
            client.poll(id);
        }
    } catch (const SweepTimeout &) {
        util::warn("sweep %llu timed out after %.0f s; cancelling",
                   static_cast<unsigned long long>(id), timeoutSeconds);
        try {
            client.cancel(id);
        } catch (const std::exception &) {
        }
    } catch (const std::exception &e) {
        util::warn("sweep failed: %s", e.what());
    }
    return out;
}

double
decodeTraces(const std::vector<study::BenchJob> &jobs,
             const std::vector<std::uint64_t> &depth, int threads,
             Tracer &tracer, std::uint64_t parent, std::uint64_t sweep)
{
    std::vector<double> seconds(jobs.size());
    forEach(jobs.size(), threads, [&](std::size_t j) {
        Span s(tracer, "trace.decode", "trace", parent, sweep,
               jobs[j].name);
        const double start = nowSeconds();
        auto view =
            trace::DecodedTraceRegistry::global().viewForProfile(
                *jobs[j].profile);
        if (depth[j] > 0)
            view->trace().record(depth[j] - 1);
        seconds[j] = nowSeconds() - start;
    });
    double total = 0.0;
    for (const double s : seconds)
        total += s;
    return total;
}

double
prewarmStates(const std::vector<study::GridPoint> &points,
              const std::vector<study::BenchJob> &jobs,
              const study::RunSpec &spec, int threads, Tracer &tracer,
              std::uint64_t parent, std::uint64_t sweep)
{
    std::vector<double> seconds(jobs.size());
    forEach(jobs.size(), threads, [&](std::size_t j) {
        auto view =
            trace::DecodedTraceRegistry::global().viewForProfile(
                *jobs[j].profile);
        const auto prototype = bp::makePredictor(spec.predictor);
        for (const auto &point : points) {
            Span s(tracer, "core.prewarm", "core", parent, sweep,
                   jobs[j].name);
            const double start = nowSeconds();
            core::WarmStartCache::global().acquire(
                view->trace(), spec.prewarm, point.params, *prototype,
                spec.predictor);
            seconds[j] += nowSeconds() - start;
        }
    });
    double total = 0.0;
    for (const double s : seconds)
        total += s;
    return total;
}

void
reportDecodeAndPrewarm(const std::vector<svc::SweepRequest> &requests,
                       Tracer &tracer, RunResult &result)
{
    double decodeS = 0, prewarmS = 0;
    std::map<std::string, trace::BenchmarkProfile> profiles;
    for (const auto &request : requests) {
        const svc::SweepPlan plan = svc::planSweep(request);
        const std::uint64_t depth =
            plan.spec.prewarm + plan.spec.warmup + plan.spec.instructions;
        decodeS += decodeTraces(
            plan.jobs, std::vector<std::uint64_t>(plan.jobs.size(), depth),
            1, tracer, 0, 0);
        prewarmS +=
            prewarmStates(plan.points, plan.jobs, plan.spec, 1, tracer, 0, 0);
        for (const auto &job : plan.jobs)
            profiles.emplace(job.name, *job.profile);
    }
    double records = 0;
    for (const auto &[name, profile] : profiles)
        records += static_cast<double>(trace::DecodedTraceRegistry::global()
                                           .viewForProfile(profile)
                                           ->trace()
                                           .materializedRecords());
    const double sweeps = requests.empty() ? 1.0 : requests.size();
    result.values["trace.decode_s"] = decodeS / sweeps;
    result.values["core.prewarm_s"] = prewarmS / sweeps;
    result.values["trace.decoded_mb"] =
        records * sizeof(trace::TraceRecord) / (1024.0 * 1024.0);
}

JobTimings
timeRunJob(const std::vector<study::GridPoint> &points,
           const std::vector<study::BenchJob> &jobs,
           const study::RunSpec &spec, Tracer &tracer,
           std::uint64_t parent)
{
    JobTimings out;
    double cycles = 0.0, seconds = 0.0;
    for (const auto &point : points) {
        for (const auto &job : jobs) {
            Span s(tracer, "core.runJob", "core", parent, 0, job.name);
            const double start = nowSeconds();
            const study::BenchResult r =
                study::runJob(point.params, point.clock, job, spec);
            const double took = nowSeconds() - start;
            cycles += static_cast<double>(r.sim.cycles);
            seconds += took;
            out.cellMs.push_back(took * 1e3);
        }
    }
    out.mcyclesPerSecond = seconds > 0 ? cycles / seconds / 1e6 : 0.0;
    return out;
}

void
reportStudyCells(const std::vector<study::CheckpointReport> &reports,
                 int threads, RunResult &result)
{
    std::vector<double> cellMs;
    double busyMs = 0.0, wallMs = 0.0;
    for (const auto &report : reports) {
        for (const auto &cell : report.cellTimings) {
            cellMs.push_back(cell.wallMs);
            busyMs += cell.wallMs;
        }
        wallMs += report.wallMs;
    }
    result.values["study.cell_p50_ms"] = quantile(cellMs, 0.5);
    result.values["study.cell_p90_ms"] = quantile(cellMs, 0.9);
    result.values["study.thread_busy_frac"] =
        wallMs > 0 ? busyMs / (threads * wallMs) : 0.0;
}

std::vector<study::CellRecord>
cellRecords(const std::vector<study::SuiteResult> &suites)
{
    std::vector<study::CellRecord> cells;
    for (std::size_t p = 0; p < suites.size(); ++p) {
        for (std::size_t j = 0; j < suites[p].benchmarks.size(); ++j)
            cells.push_back({p, j, suites[p].benchmarks[j]});
    }
    return cells;
}

double
cellCodecMicros(const std::vector<study::CellRecord> &cells)
{
    if (cells.empty())
        return 0.0;
    std::size_t sink = 0;
    const double perPass = perRepetition(0.05, [&] {
        for (const auto &cell : cells) {
            const std::string payload = study::encodeCellRecord(cell);
            sink += study::decodeCellRecord(payload, "perfbench").job;
        }
    });
    gSink = sink;
    return perPass / static_cast<double>(cells.size()) * 1e6;
}

void
measureJournal(const std::vector<std::string> &payloads,
               const std::string &dir, RunResult &result)
{
    std::filesystem::create_directories(dir);
    std::vector<double> syncedMs;
    {
        auto writer = util::JournalWriter::create(dir + "/synced.journal",
                                                  1, true);
        for (const auto &payload : payloads) {
            const double start = nowSeconds();
            writer.append(payload);
            syncedMs.push_back((nowSeconds() - start) * 1e3);
        }
        writer.close();
    }
    double nosync = 0.0;
    {
        auto writer = util::JournalWriter::create(
            dir + "/unsynced.journal", 2, false);
        const double start = nowSeconds();
        for (const auto &payload : payloads)
            writer.append(payload);
        nosync = nowSeconds() - start;
        writer.close();
    }
    result.values["util.journal_append_ms_p50"] = quantile(syncedMs, 0.5);
    result.values["util.journal_append_ms_p90"] = quantile(syncedMs, 0.9);
    result.values["util.journal_append_nosync_us"] =
        payloads.empty() ? 0.0
                         : nosync / static_cast<double>(payloads.size()) *
                               1e6;
}

void
measureBlobStore(const std::vector<std::string> &payloads,
                 const std::string &dir, RunResult &result)
{
    util::BlobStore store(dir, 0, "perfbench.blob");
    std::vector<double> putMs, getMs;
    for (std::size_t i = 0; i < payloads.size(); ++i) {
        const std::string key = util::strprintf("payload-%zu", i);
        double start = nowSeconds();
        store.put(key, payloads[i]);
        putMs.push_back((nowSeconds() - start) * 1e3);
        start = nowSeconds();
        const auto back = store.get(key);
        getMs.push_back((nowSeconds() - start) * 1e3);
        if (!back || *back != payloads[i])
            util::warn("blob store returned different bytes for %s",
                       key.c_str());
    }
    result.values["util.blob_put_ms"] = median(putMs);
    result.values["util.blob_get_ms"] = median(getMs);
}

double
frameMicrosPerKiB(const std::vector<std::string> &bodies)
{
    double bytes = 0.0;
    for (const auto &body : bodies)
        bytes += static_cast<double>(body.size());
    if (bytes == 0.0)
        return 0.0;
    std::size_t sink = 0;
    const double perPass = perRepetition(0.05, [&] {
        for (const auto &body : bodies) {
            const std::string frame =
                svc::encodeFrame(svc::MsgType::Results, body);
            unsigned char header[svc::kFrameHeaderBytes];
            std::memcpy(header, frame.data(), sizeof(header));
            const svc::FrameHeader h = svc::decodeFrameHeader(header);
            sink += svc::decodePayload(
                        h, std::string_view(frame).substr(sizeof(header)))
                        .body.size();
        }
    });
    gSink = sink;
    return perPass * 1e6 / (bytes / 1024.0);
}

double
planMillis(const std::vector<svc::SweepRequest> &requests)
{
    std::vector<double> ms;
    for (const auto &request : requests) {
        const double start = nowSeconds();
        const svc::SweepPlan plan = svc::planSweep(request);
        svc::planFingerprint(plan);
        ms.push_back((nowSeconds() - start) * 1e3);
    }
    return median(ms);
}

double
duplicateShare(const std::vector<study::GridPoint> &points,
               const std::vector<study::BenchJob> &jobs,
               const study::RunSpec &spec)
{
    // One fixed clock for every cell: the fingerprint then depends on
    // (params, job, spec) alone, which is all a simulation reads.
    const tech::ClockModel clock = points.front().clock;
    std::set<std::uint64_t> seen;
    std::size_t cells = 0, repeats = 0;
    for (const auto &point : points) {
        for (const auto &job : jobs) {
            ++cells;
            if (!seen.insert(study::gridFingerprint(
                                 {study::GridPoint{point.params, clock}},
                                 {job}, spec))
                     .second)
                ++repeats;
        }
    }
    return cells ? static_cast<double>(repeats) / cells : 0.0;
}

double
instructionsPerCell(const std::vector<study::SuiteResult> &suites)
{
    double instructions = 0.0, cells = 0.0;
    for (const auto &suite : suites) {
        for (const auto &bench : suite.benchmarks) {
            instructions += static_cast<double>(bench.sim.instructions);
            cells += 1.0;
        }
    }
    return cells > 0 ? instructions / cells : 0.0;
}

void
reportAccounting(const Tracer &tracer,
                 const std::vector<std::uint64_t> &passSpans,
                 double untracedSeconds, RunResult &result)
{
    const std::vector<SpanRecord> spans = tracer.spans();
    double wall = 0.0, covered = 0.0;
    for (const std::uint64_t id : passSpans) {
        const SpanRecord &pass = spans.at(id - 1);
        wall += pass.end - pass.start;
        covered += tracer.coveredSeconds(pass.start, pass.end);
    }
    result.values["unaccounted_frac"] = 1.0 - covered / wall;
    result.values["trace_overhead_frac"] = wall / untracedSeconds - 1.0;
}

std::map<std::string, std::uint64_t>
countersOf(const svc::StatsSnapshot &stats)
{
    return {stats.counters.begin(), stats.counters.end()};
}

double
hitRatio(const cacti::LatencyCacheStats &before,
         const cacti::LatencyCacheStats &after)
{
    const std::uint64_t lookups = after.lookups() - before.lookups();
    return lookups ? static_cast<double>(after.hits - before.hits) /
                         static_cast<double>(lookups)
                   : 0.0;
}

} // namespace fo4::perfbench
