#include "svc/coordinator.hh"

#include <chrono>

#include "util/logging.hh"
#include "util/metrics.hh"

namespace fo4::svc
{

namespace
{

using util::ErrorCode;
using util::SvcError;

util::MetricCounter &
fabricCounter(const char *name)
{
    return util::MetricsRegistry::global().counter(name);
}

std::chrono::milliseconds
ms(std::uint64_t v)
{
    return std::chrono::milliseconds(v);
}

} // namespace

Coordinator::Coordinator(CoordinatorOptions options)
    : SessionServer(options), opts(std::move(options)), fleet(opts.detector)
{
    startAccepting();
}

Coordinator::~Coordinator()
{
    stop();
    join();
}

void
Coordinator::stop()
{
    SessionServer::stop();
    // Wake the tick loop so a running sweep notices the drain now, not
    // a tick later.
    std::lock_guard<std::mutex> lock(fabricMutex);
    fabricCv.notify_all();
}

// ---------------------------------------------------------------------
// Sweep execution
// ---------------------------------------------------------------------

void
Coordinator::idleTick()
{
    // The failure detector must keep judging the fleet between sweeps,
    // or a worker that died after the last sweep would stay Live in the
    // roster forever (and a sweep submitted later would wait a full
    // dead interval to find out).  No active sweep means no leases to
    // reclaim.
    std::lock_guard<std::mutex> lock(fabricMutex);
    fabricCounter("svc.fabric.workers_dead")
        .add(fleet.newlyDead(FabricClock::now()).size());
}

std::string
Coordinator::assembleResults(ActiveSweep &sweep, bool executeRemainder,
                             bool &anyFailed)
{
    // One code path for assembly: the same CheckpointedRunner a local
    // run uses, seeded with every fabric-merged cell.  With nothing
    // left to execute this reduces to slotting seeds and rendering;
    // with a remainder (local fallback) it simulates exactly the
    // missing cells — journaling them, so even the fallback is
    // crash-resumable.
    study::CheckpointOptions copts;
    copts.journalPath =
        executeRemainder ? sweep.journalPath : std::string();
    copts.threads = executeRemainder ? opts.localThreads : 1;
    copts.cancel = executeRemainder ? &sweep.job->cancel : nullptr;
    copts.seedCells.reserve(sweep.cells.size());
    for (const auto &[i, cell] : sweep.cells)
        copts.seedCells.push_back(cell);
    const std::shared_ptr<JobRecord> job = sweep.job;
    copts.onAttempt = [job](std::size_t, std::size_t, int attempt) {
        if (attempt == 1)
            job->cellsStarted.fetch_add(1, std::memory_order_relaxed);
    };
    return runSweep(sweep.plan, std::move(copts), &anyFailed);
}

std::string
Coordinator::computeSweep(const std::shared_ptr<JobRecord> &job,
                          SweepPlan plan, std::uint64_t fingerprint,
                          const std::string &journalPath, bool &anyFailed)
{
    auto &redispatched = fabricCounter("svc.fabric.cells_redispatched");
    auto &workersDead = fabricCounter("svc.fabric.workers_dead");
    auto &fallbacks = fabricCounter("svc.fabric.local_fallbacks");

    // Every exit — assembled bytes, a drain or an exception — closes
    // the journal writer and drops the active sweep before the base
    // records the job's verdict.
    const auto teardown = [this] {
        std::lock_guard<std::mutex> lock(fabricMutex);
        if (active && active->writer)
            active->writer->close();
        active.reset();
    };

    try {
        auto sweep = std::make_unique<ActiveSweep>(
            job, std::move(plan), fingerprint, FabricClock::now());
        sweep->journalPath = journalPath;
        if (!journalPath.empty()) {
            const std::size_t nJobs = sweep->plan.jobs.size();
            study::GridJournal journal = study::openGridJournal(
                journalPath, fingerprint, sweep->plan.points.size(), nJobs);
            for (auto &cell : journal.cells) {
                sweep->scheduler.markDone(cell.point, cell.job);
                sweep->cells[cell.point * nJobs + cell.job] =
                    std::move(cell);
            }
            sweep->writer = std::move(journal.writer);
        }
        job->cellsDone.store(sweep->scheduler.doneCount());

        std::unique_lock<std::mutex> lock(fabricMutex);
        active = std::move(sweep);
        ActiveSweep &s = *active;
        // The fabric tick: failure detection, lease expiry, completion
        // and fallback checks.  Session threads notify the cv on
        // completions, so a finished sweep finalises immediately rather
        // than a tick later.
        for (;;) {
            if (job->cancel.cancelled() || stopRequested())
                throw util::CancelledError("sweep cancelled");
            const FabricTime now = FabricClock::now();
            for (const std::uint64_t id : fleet.newlyDead(now)) {
                workersDead.inc();
                redispatched.add(s.scheduler.reclaimWorker(id));
            }
            redispatched.add(s.scheduler.reclaimExpired(now));

            // Graceful degradation: no live worker left (or none ever
            // arrived within the grace window) — finish the remainder
            // locally, seeded with every merged cell.
            const bool finished = s.scheduler.finished();
            const bool fallback =
                !finished && opts.localFallback &&
                fleet.liveCount() == 0 &&
                (fleet.registeredCount() > 0 ||
                 now - s.startedAt >= ms(opts.fallbackGraceMs));
            if (finished || fallback) {
                if (fallback)
                    fallbacks.inc();
                s.fallback = true; // no further grants or merges
                if (s.writer)
                    s.writer->close();
                s.writer.reset();
                lock.unlock();
                std::string results = assembleResults(s, fallback, anyFailed);
                teardown();
                return results;
            }
            fabricCv.wait_for(
                lock, ms(static_cast<std::uint64_t>(opts.tickMs)));
        }
    } catch (...) {
        teardown();
        throw;
    }
}

// ---------------------------------------------------------------------
// Frame handling
// ---------------------------------------------------------------------

Frame
Coordinator::handleFrame(const Frame &frame)
{
    switch (frame.type) {
      case MsgType::Workers:
        return handleWorkers();
      case MsgType::WorkerHello:
        return handleWorkerHello(frame);
      case MsgType::LeaseRequest:
        return handleLeaseRequest(frame);
      case MsgType::CellDone:
        return handleCellDone(frame);
      case MsgType::Heartbeat:
        return handleHeartbeat(frame);
      default:
        return SessionServer::handleFrame(frame);
    }
}

void
Coordinator::touchOrThrow(std::uint64_t workerId)
{
    if (!fleet.touch(workerId, FabricClock::now())) {
        throw SvcError(ErrorCode::NotFound,
                       util::strprintf("unknown or dead worker id %llu — "
                                       "re-register with WorkerHello",
                                       static_cast<unsigned long long>(
                                           workerId)));
    }
}

Frame
Coordinator::handleWorkerHello(const Frame &frame)
{
    const WorkerHelloInfo hello = WorkerHelloInfo::decode(frame.body);
    HelloOkInfo ok;
    {
        std::lock_guard<std::mutex> lock(fabricMutex);
        ok.workerId = fleet.registerWorker(hello.name, hello.threads,
                                           FabricClock::now());
        fabricCv.notify_all();
    }
    fabricCounter("svc.fabric.workers_registered").inc();
    ok.heartbeatMs = opts.detector.heartbeatMs;
    ok.leaseTimeoutMs = opts.leaseTimeoutMs;
    return {MsgType::HelloOk, ok.encode()};
}

Frame
Coordinator::handleLeaseRequest(const Frame &frame)
{
    const std::uint64_t workerId = decodeWorkerId(frame.body);
    // Build the response under the lock; the session loop writes it
    // after: a slow or black-holed worker must never hold the fabric
    // hostage for the write deadline.  If the write then fails, the
    // lease was granted but never delivered — harmless: it expires and
    // re-dispatches.
    std::optional<CellLeaseInfo> lease;
    {
        std::lock_guard<std::mutex> lock(fabricMutex);
        touchOrThrow(workerId);
        if (active && !active->fallback &&
            !active->job->cancel.cancelled()) {
            const auto key = active->scheduler.grant(
                workerId, FabricClock::now() + ms(opts.leaseTimeoutMs));
            if (key) {
                lease.emplace();
                lease->sweep = active->fingerprint;
                lease->point = key->point;
                lease->job = key->job;
                lease->requestBody = active->requestBody;
                active->job->cellsStarted.fetch_add(
                    1, std::memory_order_relaxed);
            }
        }
    }
    if (!lease)
        return {MsgType::NoWork, encodeRetryMs(opts.detector.heartbeatMs)};
    fabricCounter("svc.fabric.cells_leased").inc();
    return {MsgType::CellLease, lease->encode()};
}

Frame
Coordinator::handleCellDone(const Frame &frame)
{
    const CellDoneInfo msg = CellDoneInfo::decode(frame.body);

    // Decode (and bounds-check) before touching fabric state: a
    // corrupt cell payload is a protocol violation by the trust model
    // — refuse the frame, keep the fabric.
    study::CellRecord cell;
    try {
        cell = study::decodeCellRecord(
            msg.cellPayload,
            util::strprintf("worker %llu",
                            static_cast<unsigned long long>(
                                msg.workerId)));
    } catch (const util::JournalError &e) {
        throw SvcError(ErrorCode::Protocol, e.what());
    }
    if (cell.point != msg.point || cell.job != msg.job) {
        throw SvcError(
            ErrorCode::Protocol,
            util::strprintf("cell payload is keyed (%zu, %zu) but the "
                            "frame says (%llu, %llu)",
                            cell.point, cell.job,
                            static_cast<unsigned long long>(msg.point),
                            static_cast<unsigned long long>(msg.job)));
    }

    bool accepted = false;
    {
        std::lock_guard<std::mutex> lock(fabricMutex);
        touchOrThrow(msg.workerId);
        if (active && !active->fallback &&
            msg.sweep == active->fingerprint) {
            const std::size_t nJobs = active->plan.jobs.size();
            if (cell.point >= active->plan.points.size() ||
                cell.job >= nJobs) {
                throw SvcError(
                    ErrorCode::Protocol,
                    util::strprintf(
                        "cell (%zu, %zu) outside the %zux%zu grid",
                        cell.point, cell.job,
                        active->plan.points.size(), nJobs));
            }
            // First completion wins; duplicates carry byte-identical
            // results (cells are pure), so dropping them is free.
            if (active->scheduler.complete(cell.point, cell.job)) {
                study::appendOrDisableJournal(active->writer,
                                              msg.cellPayload);
                const std::size_t i = cell.point * nJobs + cell.job;
                active->cells[i] = std::move(cell);
                active->job->cellsDone.fetch_add(
                    1, std::memory_order_relaxed);
                fleet.recordCompletion(msg.workerId);
                accepted = true;
                fabricCv.notify_all();
            }
        }
    }
    if (accepted)
        fabricCounter("svc.fabric.cells_merged").inc();
    else
        fabricCounter("svc.fabric.cells_duplicate").inc();
    return {MsgType::DoneOk, encodeAccepted(accepted)};
}

Frame
Coordinator::handleHeartbeat(const Frame &frame)
{
    const std::uint64_t workerId = decodeWorkerId(frame.body);
    bool known = false;
    {
        std::lock_guard<std::mutex> lock(fabricMutex);
        known = fleet.touch(workerId, FabricClock::now());
    }
    return {MsgType::HeartbeatOk, encodeKnown(known)};
}

Frame
Coordinator::handleWorkers()
{
    std::lock_guard<std::mutex> lock(fabricMutex);
    return {MsgType::WorkerReport,
            WorkerSnapshot::encodeList(fleet.snapshot(
                FabricClock::now(), [this](std::uint64_t id) {
                    return active ? active->scheduler.activeLeases(id) : 0;
                }))};
}

} // namespace fo4::svc
