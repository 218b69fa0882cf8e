#include "svc/session_server.hh"

#include <chrono>
#include <cmath>

#include "util/logging.hh"
#include "util/metrics.hh"

namespace fo4::svc
{

namespace
{

using util::ErrorCode;
using util::SvcError;

/**
 * Sweep wall times span four orders of magnitude (a dedup hit to an
 * hour-long grid), so the latency histogram is log2-bucketed: bucket i
 * holds sweeps with wall time in [2^i - 1, 2^(i+1) - 1) ms.
 */
constexpr std::size_t kLatencyBuckets = 24;

std::uint64_t
latencyBucketOf(double wallMs)
{
    if (wallMs < 1.0)
        return 0;
    return static_cast<std::uint64_t>(std::log2(wallMs + 1.0));
}

util::MetricHistogram &
latencyHistogram()
{
    return util::MetricsRegistry::global().histogram("svc.sweep_wall_ms",
                                                     kLatencyBuckets);
}

} // namespace

SessionServer::SessionServer(const DaemonOptions &options)
    : table(options.maxQueue, options.tenantQuota),
      checkpointDir(options.checkpointDir),
      store(options.cacheDir.empty()
                ? nullptr
                : std::make_unique<ResultStore>(options.cacheDir,
                                                options.cacheMaxBytes)),
      listener(options.port)
{
}

SessionServer::~SessionServer()
{
    // The derived destructor has already stopped and joined (it must:
    // the dispatcher and session threads call its virtuals); this is
    // the safety net for the base-only paths.
    stop();
    join();
}

void
SessionServer::stop()
{
    if (stopping.exchange(true))
        return;
    listener.close();
    table.shutdown();
}

void
SessionServer::join()
{
    if (acceptThread.joinable())
        acceptThread.join();
    std::vector<std::thread> drained;
    {
        std::lock_guard<std::mutex> lock(sessionMutex);
        drained.swap(sessions);
    }
    for (auto &session : drained) {
        if (session.joinable())
            session.join();
    }
    if (dispatchThread.joinable())
        dispatchThread.join();
}

void
SessionServer::startAccepting()
{
    dispatchThread = std::thread([this] { dispatchLoop(); });
    acceptThread = std::thread([this] { acceptLoop(); });
}

// ---------------------------------------------------------------------
// The job lifecycle
// ---------------------------------------------------------------------

void
SessionServer::dispatchLoop()
{
    while (!stopRequested()) {
        if (const std::shared_ptr<JobRecord> job = table.takeNext(kTickMs))
            runJob(job);
        else
            idleTick();
    }
}

void
SessionServer::runJob(const std::shared_ptr<JobRecord> &job)
{
    const auto started = std::chrono::steady_clock::now();
    try {
        // Re-derive the plan from the request: planSweep is a pure
        // function, and it already passed at submit time.
        SweepPlan plan = planSweep(job->request);
        const std::uint64_t fingerprint = planFingerprint(plan);

        // Zero-compute paths first.  Single-flight dedup: the
        // dispatcher is the only executor, so an identical sweep that
        // already finished in this process is answered from its
        // in-memory record — before the store, which it seeded anyway.
        // Then the persistent store: a verified hit is the same bytes
        // the sweep would compute (the fingerprint pins every input,
        // the CRC frame pins the bytes); any fault was already degraded
        // to nullopt inside the store.
        std::optional<std::string> answered =
            table.reuseDoneResult(fingerprint);
        if (answered)
            util::MetricsRegistry::global().counter("svc.cache.dedup").inc();
        else if (store)
            answered = store->fetchSweep(fingerprint);

        if (!answered) {
            const std::string journalPath =
                checkpointDir.empty()
                    ? std::string()
                    : util::strprintf(
                          "%s/sweep-%016llx.journal", checkpointDir.c_str(),
                          static_cast<unsigned long long>(fingerprint));
            bool anyFailed = false;
            answered = computeSweep(job, std::move(plan), fingerprint,
                                    journalPath, anyFailed);
            // Only clean sweeps enter the cache: a row's transient
            // failure must not be replayed to later submissions.
            if (store && !anyFailed)
                store->storeSweep(fingerprint, *answered);
        }
        table.markDone(job->id, std::move(*answered));
    } catch (const util::CancelledError &) {
        // Drained cooperatively with the journal flushed: the job is
        // cancelled, not failed, and resumable on resubmit.
        table.markCancelled(job->id);
    } catch (const util::SimError &e) {
        table.markFailed(job->id, e.code(), e.what());
    } catch (const std::exception &e) {
        table.markFailed(job->id, ErrorCode::Internal, e.what());
    }
    // Every job the dispatcher takes is sampled once, whatever answered
    // it and whatever its verdict (DESIGN.md §9).
    const double wallMs = std::chrono::duration<double, std::milli>(
                              std::chrono::steady_clock::now() - started)
                              .count();
    latencyHistogram().sample(latencyBucketOf(wallMs));
}

StatsSnapshot
SessionServer::buildStats() const
{
    StatsSnapshot s;
    s.queueDepth = table.queueDepth();
    s.maxQueue = table.maxQueue();
    if (const std::shared_ptr<JobRecord> job = table.runningJob()) {
        s.runningJobs = 1;
        s.runningCellsStarted = job->cellsStarted.load();
        s.runningCellsTotal = job->cellsTotal;
    }
    s.submitted = table.submitted();
    s.rejected = table.rejected();
    s.completed = table.completed();
    s.failed = table.failed();
    s.cancelled = table.cancelled();
    if (store) {
        s.cacheBytes = store->blobs().sizeBytes();
        s.cacheEntries = store->blobs().entries();
    }

    const util::MetricHistogram &histogram = latencyHistogram();
    for (std::size_t i = 0; i < histogram.bucketCount(); ++i)
        s.latencyBuckets.push_back(histogram.bucket(i));
    s.latencySamples = histogram.samples();
    s.latencyMeanMs = histogram.mean();

    s.counters = util::MetricsRegistry::global().snapshotCounters();
    return s;
}

// ---------------------------------------------------------------------
// Sessions
// ---------------------------------------------------------------------

void
SessionServer::acceptLoop()
{
    auto &connections =
        util::MetricsRegistry::global().counter("svc.connections");
    while (!stopping.load()) {
        std::optional<util::TcpStream> stream;
        try {
            stream = listener.accept(kTickMs);
        } catch (const SvcError &) {
            // A listener error after close() is part of shutdown; any
            // other is transient — either way the loop just ticks on.
            continue;
        }
        if (!stream)
            continue;
        connections.inc();
        std::lock_guard<std::mutex> lock(sessionMutex);
        sessions.emplace_back(
            [this, s = std::move(*stream)]() mutable {
                sessionLoop(std::move(s));
            });
    }
}

void
SessionServer::sessionLoop(util::TcpStream stream)
{
    auto &protocolErrors =
        util::MetricsRegistry::global().counter("svc.protocol_errors");
    while (!stopping.load()) {
        try {
            if (!stream.waitReadable(kTickMs))
                continue;
            const std::optional<Frame> frame =
                readFrame(stream, kFrameTimeoutMs);
            if (!frame)
                return; // peer hung up between frames
            handleFrame(stream, *frame);
        } catch (const SvcError &e) {
            // A frame that cannot be trusted costs the session, never
            // the daemon: report the typed verdict while the transport
            // may still work, then hang up.
            if (e.code() == ErrorCode::Protocol)
                protocolErrors.inc();
            try {
                writeFrame(stream, MsgType::Error,
                           encodeError(e.code(), e.what()),
                           kFrameTimeoutMs);
            } catch (const SvcError &) {
                // the transport is gone too; nothing left to report
            }
            return;
        }
    }
}

void
SessionServer::handleFrame(util::TcpStream &stream, const Frame &frame)
{
    if (handleClientFrame(stream, frame))
        return;
    throw SvcError(ErrorCode::Protocol,
                   util::strprintf("record type %u is not a request "
                                   "this daemon serves",
                                   static_cast<unsigned>(frame.type)));
}

bool
SessionServer::handleClientFrame(util::TcpStream &stream,
                                 const Frame &frame)
{
    MsgType replyType = MsgType::Error;
    std::string reply;
    try {
        switch (frame.type) {
          case MsgType::SubmitSweep: {
            SweepRequest request = SweepRequest::decode(frame.body);
            // Validate eagerly: a nonsense request is refused here,
            // synchronously, not failed minutes later in the queue.
            const SweepPlan plan = planSweep(request);
            const std::uint64_t cells = plan.cells();
            const std::uint64_t id = table.submit(
                std::move(request), cells, planFingerprint(plan));
            replyType = MsgType::SubmitOk;
            reply = encodeSubmitOk(id, cells);
            break;
          }
          case MsgType::Poll:
            replyType = MsgType::JobStatus;
            reply = table.status(decodeId(frame.body)).encode();
            break;
          case MsgType::FetchResults:
            replyType = MsgType::Results;
            reply = table.fetchResults(decodeId(frame.body));
            break;
          case MsgType::Cancel:
            replyType = MsgType::CancelOk;
            reply = table.cancelJob(decodeId(frame.body)).encode();
            break;
          case MsgType::Stats:
            replyType = MsgType::StatsReport;
            reply = buildStats().encode();
            break;
          default:
            return false;
        }
    } catch (const util::SimError &e) {
        if (e.code() == ErrorCode::Protocol)
            throw; // malformed body: the session-fatal path
        replyType = MsgType::Error;
        reply = encodeError(e.code(), e.what());
    }
    writeFrame(stream, replyType, reply, kFrameTimeoutMs);
    return true;
}

} // namespace fo4::svc
