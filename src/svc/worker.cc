#include "svc/worker.hh"

#include <algorithm>
#include <chrono>

#include "study/runner.hh"
#include "util/logging.hh"
#include "util/metrics.hh"

namespace fo4::svc
{

namespace
{

using util::ErrorCode;
using util::SvcError;

/** Write one request, read its response.  A peer that hangs up between
 *  frames is a transport failure here (mid-conversation), not orderly
 *  EOF — the reconnect path owns it. */
Frame
roundTrip(util::TcpStream &stream, MsgType type, const std::string &body,
          int ioTimeoutMs)
{
    writeFrame(stream, type, body, ioTimeoutMs);
    std::optional<Frame> frame = readFrame(stream, ioTimeoutMs);
    if (!frame) {
        throw SvcError(ErrorCode::NetIo,
                       "coordinator hung up mid-conversation");
    }
    return std::move(*frame);
}

/** Throws the remote verdict when `frame` is an Error record. */
void
throwIfError(const Frame &frame)
{
    if (frame.type == MsgType::Error) {
        const auto [code, message] = decodeError(frame.body);
        throw SvcError(code, message);
    }
}

} // namespace

Worker::Worker(WorkerOptions options) : opts(std::move(options))
{
    if (const auto st = opts.reconnect.validate(); !st.isOk())
        throw util::ConfigError("reconnect policy: " + st.message());
    if (const auto st = opts.retry.validate(); !st.isOk())
        throw util::ConfigError("retry policy: " + st.message());
    if (!opts.cacheDir.empty())
        store = std::make_unique<ResultStore>(opts.cacheDir,
                                              opts.cacheMaxBytes);
    workThread = std::thread([this] { workLoop(); });
    heartbeatThread = std::thread([this] { heartbeatLoop(); });
}

Worker::~Worker()
{
    stop();
    join();
}

void
Worker::stop()
{
    if (stopping.exchange(true))
        return;
    cellCancel.requestCancel();
    std::lock_guard<std::mutex> lock(sleepMutex);
    sleepCv.notify_all();
}

void
Worker::kill()
{
    // Same mechanics as stop(); the *contract* differs: the work loop
    // checks the flag between finishing a cell and reporting it, so
    // after kill() returns-and-joins, no CellDone reached the wire for
    // the aborted cell — the in-process SIGKILL.
    stop();
}

void
Worker::join()
{
    if (workThread.joinable())
        workThread.join();
    if (heartbeatThread.joinable())
        heartbeatThread.join();
}

bool
Worker::sleepFor(double delayMs)
{
    if (delayMs <= 0.0)
        return !stopping.load();
    std::unique_lock<std::mutex> lock(sleepMutex);
    return !sleepCv.wait_for(
        lock, std::chrono::duration<double, std::milli>(delayMs),
        [this] { return stopping.load(); });
}

void
Worker::workLoop()
{
    auto &cellsExecuted = util::MetricsRegistry::global().counter(
        "svc.worker.cells_executed");
    auto &cellsFromCache = util::MetricsRegistry::global().counter(
        "svc.worker.cells_from_cache");
    auto &cellsShared = util::MetricsRegistry::global().counter(
        "svc.worker.cells_shared");
    auto &reconnects = util::MetricsRegistry::global().counter(
        "svc.worker.reconnects");

    util::TcpStream stream;
    int backoffAttempt = 1;
    while (!stopping.load()) {
        try {
            if (!stream.connected()) {
                stream = util::TcpStream::connect(
                    opts.host, opts.port, opts.connectTimeoutMs);
            }

            // Register (or re-register after being declared dead).
            WorkerHelloInfo hello;
            hello.name = opts.name;
            hello.threads = 1;
            Frame reply = roundTrip(stream, MsgType::WorkerHello,
                                    hello.encode(), opts.ioTimeoutMs);
            throwIfError(reply);
            if (reply.type != MsgType::HelloOk) {
                throw SvcError(
                    ErrorCode::Protocol,
                    util::strprintf("expected HelloOk, got record "
                                    "type %u",
                                    static_cast<unsigned>(reply.type)));
            }
            const HelloOkInfo ok = HelloOkInfo::decode(reply.body);
            id.store(ok.workerId);
            if (ok.heartbeatMs > 0)
                heartbeatMs.store(ok.heartbeatMs);
            backoffAttempt = 1; // registered: the transport works

            // Pull leases until stopped, declared dead, or the
            // transport fails.
            while (!stopping.load()) {
                Frame r = roundTrip(stream, MsgType::LeaseRequest,
                                    encodeWorkerId(id.load()),
                                    opts.ioTimeoutMs);
                if (r.type == MsgType::Error) {
                    const auto [code, message] = decodeError(r.body);
                    if (code == ErrorCode::NotFound)
                        break; // declared dead: re-hello, fresh id
                    throw SvcError(code, message);
                }
                if (r.type == MsgType::NoWork) {
                    if (!sleepFor(static_cast<double>(
                            decodeRetryMs(r.body))))
                        return;
                    continue;
                }
                if (r.type != MsgType::CellLease) {
                    throw SvcError(
                        ErrorCode::Protocol,
                        util::strprintf("expected a lease, got record "
                                        "type %u",
                                        static_cast<unsigned>(r.type)));
                }
                const CellLeaseInfo lease = CellLeaseInfo::decode(r.body);

                // Derive the plan this lease's cell lives in, unless it
                // is the sweep already being served; the fingerprint
                // check catches a coordinator and worker that disagree
                // about what the request means.
                if (!served || served->fingerprint != lease.sweep) {
                    served.reset(); // the old sweep's plan and memo go
                    SweepPlan plan = planSweep(
                        SweepRequest::decode(lease.requestBody));
                    if (planFingerprint(plan) != lease.sweep) {
                        throw SvcError(
                            ErrorCode::Protocol,
                            util::strprintf(
                                "lease names sweep %016llx but its "
                                "request plans to %016llx",
                                static_cast<unsigned long long>(
                                    lease.sweep),
                                static_cast<unsigned long long>(
                                    planFingerprint(plan))));
                    }
                    served.emplace();
                    served->fingerprint = lease.sweep;
                    served->owners =
                        study::simulationOwners(plan.points, plan.spec);
                    served->plan = std::move(plan);
                }
                const SweepPlan &plan = served->plan;
                if (lease.point >= plan.points.size() ||
                    lease.job >= plan.jobs.size()) {
                    throw SvcError(
                        ErrorCode::Protocol,
                        util::strprintf(
                            "lease cell (%llu, %llu) outside the "
                            "%zux%zu grid",
                            static_cast<unsigned long long>(lease.point),
                            static_cast<unsigned long long>(lease.job),
                            plan.points.size(), plan.jobs.size()));
                }
                const auto &gp = plan.points[lease.point];
                const std::size_t ownerCell =
                    served->owners[lease.point] * plan.jobs.size() +
                    lease.job;

                // Warm-cache read path first: a stored cell for this
                // (fingerprint, point, job) is the same bytes execution
                // would produce — cells are pure and the fingerprint
                // pins every input — so a verified hit skips the
                // simulator entirely.  Every cache fault already
                // degraded to nullopt inside the store.  Then the memo:
                // a success of the same simulation, priced at this
                // die's clock.  Only then the simulator.
                study::CellRecord cell;
                cell.point = lease.point;
                cell.job = lease.job;
                bool fromCache = false;
                bool fromMemo = false;
                if (store) {
                    if (std::optional<study::CellRecord> cached =
                            store->fetchCell(lease.sweep, lease.point,
                                             lease.job)) {
                        cell = std::move(*cached);
                        fromCache = true;
                    }
                }
                if (!fromCache) {
                    const auto memo = served->memo.find(ownerCell);
                    if (memo != served->memo.end()) {
                        cell.result = memo->second;
                        study::priceAtClock(cell.result, gp.clock);
                        fromMemo = true;
                    }
                }
                if (!fromCache && !fromMemo) {
                    // Execute with the same transient-retry discipline
                    // as the local runner (same jitter key, same
                    // verdicts).
                    const std::uint64_t cellKey =
                        lease.point * plan.jobs.size() + lease.job;
                    study::BenchResult result;
                    for (int attempt = 1;; ++attempt) {
                        result = study::runJobIsolated(
                            gp.params, gp.clock, plan.jobs[lease.job],
                            plan.spec, &cellCancel);
                        if (!result.failed() ||
                            attempt >= opts.retry.maxAttempts ||
                            !study::RetryPolicy::transientCode(
                                result.error.code()))
                            break;
                        const double delay =
                            opts.retry.delayMs(attempt + 1, cellKey);
                        if (!sleepFor(delay))
                            return;
                    }
                    cell.result = std::move(result);
                }
                // Successes only: a failure must keep its own attempts
                // on every die, as it would in the local runner.
                if (!cell.result.failed())
                    served->memo.emplace(ownerCell, cell.result);
                if (stopping.load())
                    return; // killed: the result never reaches the wire
                CellDoneInfo done;
                done.workerId = id.load();
                done.sweep = lease.sweep;
                done.point = lease.point;
                done.job = lease.job;
                done.cellPayload = study::encodeCellRecord(cell);
                Frame d = roundTrip(stream, MsgType::CellDone,
                                    done.encode(), opts.ioTimeoutMs);
                if (d.type == MsgType::Error) {
                    const auto [code, message] = decodeError(d.body);
                    if (code == ErrorCode::NotFound)
                        break; // declared dead mid-cell: re-register
                    throw SvcError(code, message);
                }
                if (d.type != MsgType::DoneOk) {
                    throw SvcError(
                        ErrorCode::Protocol,
                        util::strprintf("expected DoneOk, got record "
                                        "type %u",
                                        static_cast<unsigned>(d.type)));
                }
                decodeAccepted(d.body); // accepted or duplicate: done
                if (fromCache) {
                    nFromCache.fetch_add(1, std::memory_order_relaxed);
                    cellsFromCache.inc();
                } else {
                    // Publish the computed or priced cell for future
                    // warm-cache runs — clean results only: a transient
                    // failure must not be replayed from disk later.
                    if (store && !cell.result.failed())
                        store->storeCell(lease.sweep, cell);
                    nExecuted.fetch_add(1, std::memory_order_relaxed);
                    cellsExecuted.inc();
                    if (fromMemo) {
                        nShared.fetch_add(1, std::memory_order_relaxed);
                        cellsShared.inc();
                    }
                }
            }
        } catch (const util::CancelledError &) {
            return; // stop()/kill() aborted the in-flight cell
        } catch (const util::SimError &e) {
            // Transport or protocol trouble: drop the connection and
            // come back with capped backoff.  The lease we may have
            // been holding simply expires and re-dispatches.
            stream.close();
            if (stopping.load())
                return;
            util::warn("worker: %s; reconnecting", e.what());
            reconnects.inc();
            const double delay = opts.reconnect.delayMs(
                std::min(backoffAttempt + 1, 16), /*cellKey=*/0);
            ++backoffAttempt;
            if (!sleepFor(delay))
                return;
        }
    }
}

void
Worker::heartbeatLoop()
{
    util::TcpStream stream;
    while (!stopping.load()) {
        if (!sleepFor(static_cast<double>(heartbeatMs.load())))
            return;
        const std::uint64_t workerId = id.load();
        if (workerId == 0)
            continue; // not registered yet
        try {
            if (!stream.connected()) {
                stream = util::TcpStream::connect(
                    opts.host, opts.port, opts.connectTimeoutMs);
            }
            writeFrame(stream, MsgType::Heartbeat,
                       encodeWorkerId(workerId), opts.ioTimeoutMs);
            const std::optional<Frame> reply =
                readFrame(stream, opts.ioTimeoutMs);
            if (!reply || reply->type != MsgType::HeartbeatOk) {
                stream.close();
                continue;
            }
            // known=0 means this id was declared dead; the work loop
            // discovers the same verdict on its next request and
            // re-registers — nothing to do here.
            decodeKnown(reply->body);
        } catch (const util::SimError &) {
            // The heartbeat connection reconnects on its own cadence;
            // missing beats while the coordinator is away is exactly
            // what the failure detector is for.
            stream.close();
        }
    }
}

} // namespace fo4::svc
