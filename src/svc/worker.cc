#include "svc/worker.hh"

#include <algorithm>
#include <chrono>

#include "study/runner.hh"
#include "svc/client.hh"
#include "util/logging.hh"
#include "util/metrics.hh"

namespace fo4::svc
{

namespace
{

using util::ErrorCode;
using util::SvcError;

/** Backoff between reconnect cycles: 50 ms, doubling to a 2 s cap. */
const study::RetryPolicy kReconnect{
    .baseDelayMs = 50.0,
    .backoffFactor = 2.0,
    .maxDelayMs = 2000.0,
};

/** Both loops' connections: the worker's deadlines, and no retry
 *  inside a call — each loop owns its reconnect cadence. */
Client::Options
clientOptions(const WorkerOptions &opts)
{
    return {.connectTimeoutMs = opts.connectTimeoutMs,
            .ioTimeoutMs = opts.ioTimeoutMs,
            .reconnect = false};
}

} // namespace

Worker::Worker(WorkerOptions options) : opts(std::move(options))
{
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

    std::optional<Client> client;
    int backoffAttempt = 1;
    while (!stopping.load()) {
        try {
            if (!client)
                client.emplace(opts.host, opts.port, clientOptions(opts));

            // Register (or re-register after being declared dead).
            WorkerHelloInfo hello;
            hello.name = opts.name;
            hello.threads = 1;
            const HelloOkInfo ok = client->workerHello(hello);
            id.store(ok.workerId);
            if (ok.heartbeatMs > 0)
                heartbeatMs.store(ok.heartbeatMs);
            backoffAttempt = 1; // registered: the transport works

            // Pull leases until stopped, declared dead, or the
            // transport fails.
            while (!stopping.load()) {
                std::uint64_t retryMs = 0;
                const std::optional<CellLeaseInfo> next =
                    client->requestLease(id.load(), retryMs);
                if (!next) {
                    if (!sleepFor(static_cast<double>(retryMs)))
                        return;
                    continue;
                }
                const CellLeaseInfo &lease = *next;

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
                    cell.result = study::runJobIsolated(
                        gp.params, gp.clock, plan.jobs[lease.job],
                        plan.spec, &cellCancel);
                }
                // Successes only: a failure is never shared, so the
                // next die simulates afresh, as in the local runner.
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
                client->cellDone(done); // accepted or duplicate: done
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
            // NotFound: this id was declared dead while the connection
            // kept working — register again under a fresh id.
            if (e.code() == ErrorCode::NotFound)
                continue;
            // Transport or protocol trouble: drop the connection and
            // come back with capped backoff.  The lease we may have
            // been holding simply expires and re-dispatches.
            client.reset();
            if (stopping.load())
                return;
            util::warn("worker: %s; reconnecting", e.what());
            reconnects.inc();
            const double delay = kReconnect.delayMs(
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
    std::optional<Client> client;
    while (!stopping.load()) {
        if (!sleepFor(static_cast<double>(heartbeatMs.load())))
            return;
        const std::uint64_t workerId = id.load();
        if (workerId == 0)
            continue; // not registered yet
        try {
            if (!client)
                client.emplace(opts.host, opts.port, clientOptions(opts));
            // known = false means this id was declared dead; the work
            // loop discovers the same verdict on its next request and
            // re-registers — nothing to do here.
            client->heartbeat(workerId);
        } catch (const util::SimError &) {
            // The heartbeat connection reconnects on its own cadence;
            // missing beats while the coordinator is away is exactly
            // what the failure detector is for.
            client.reset();
        }
    }
}

} // namespace fo4::svc
