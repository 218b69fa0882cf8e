/**
 * @file
 * The fleet coordinator: a SessionServer that shards each sweep's grid
 * cells across registered fo4d workers, survives their deaths, and
 * still answers the same client protocol as a single daemon — fo4ctl
 * cannot tell a coordinator from a fo4d.
 *
 * Work moves by *pull*: workers dial in, register (WorkerHello), then
 * loop LeaseRequest -> run cell -> CellDone.  The coordinator never
 * initiates a connection, so worker NAT/death/restart needs no
 * coordinator-side bookkeeping beyond the failure detector.
 *
 * Robustness story (DESIGN.md §13):
 *
 *  - every socket operation carries a deadline (util/net timeouts), so
 *    a black-holed peer costs a typed error, never a wedged thread;
 *  - workers heartbeat; the failure detector degrades silent workers
 *    Live -> Suspect -> Dead and reclaims a dead worker's leases for
 *    re-dispatch;
 *  - leases themselves expire (leaseTimeoutMs), catching a *hung* cell
 *    on a worker that still heartbeats;
 *  - duplicate completions (a revoked lease racing its re-dispatch)
 *    are resolved first-wins by cell id — deterministic over bytes,
 *    because cells are pure (the §13 identity argument);
 *  - merged cells are journaled (util::Journal, the checkpoint format
 *    keyed by gridFingerprint), so a coordinator restart resumes a
 *    sweep instead of recomputing it — and the journal is the same one
 *    a local run would write;
 *  - when the last worker dies (or none ever registers within the
 *    grace window), the coordinator finishes the remaining cells
 *    *locally* through the same CheckpointedRunner, seeded with every
 *    worker-computed cell — a fleet of zero healthy workers still
 *    completes every sweep, byte-identical.
 */

#ifndef FO4_SVC_COORDINATOR_HH
#define FO4_SVC_COORDINATOR_HH

#include <condition_variable>
#include <cstdint>
#include <map>
#include <memory>
#include <optional>
#include <string>
#include <thread>

#include "study/checkpoint.hh"
#include "svc/lease.hh"
#include "svc/session_server.hh"
#include "svc/store.hh"
#include "svc/sweep.hh"
#include "util/journal.hh"

namespace fo4::svc
{

/** Knobs of the coordinator. */
struct CoordinatorOptions
{
    /** Listen port; 0 picks an ephemeral port (see port()). */
    std::uint16_t port = 0;
    /** Admission bound: queued (not yet running) jobs. */
    std::size_t maxQueue = 8;
    /** Directory for per-sweep journals keyed by grid fingerprint;
     *  empty disables durability (and restart-resume). */
    std::string checkpointDir;
    /** Directory for the persistent result store; empty disables
     *  caching (see svc/store.hh for the degradation contract). */
    std::string cacheDir;
    /** Result-store size cap in bytes (0 = unlimited). */
    std::uint64_t cacheMaxBytes = 0;
    /** Max queued sweeps per tenant (0 = unlimited). */
    std::size_t tenantQuota = 0;

    /** Failure-detector timing (heartbeat cadence told to workers,
     *  suspect and dead thresholds). */
    WorkerTable::Timing detector;
    /** How long a granted cell may run before its lease expires and
     *  the cell is re-dispatched. */
    std::uint64_t leaseTimeoutMs = 60000;
    /** Fabric bookkeeping cadence: failure detection, lease expiry and
     *  completion checks run every tick. */
    int tickMs = 50;

    /** Finish remaining cells locally when no live worker remains. */
    bool localFallback = true;
    /** With *zero workers ever registered*, how long a sweep waits for
     *  a first registration before local fallback.  Once a worker has
     *  registered, the last death triggers fallback immediately. */
    std::uint64_t fallbackGraceMs = 5000;
    /** Threads for local-fallback execution; 1 = serial, <= 0 = all. */
    int localThreads = 1;
    /** Retry policy of local-fallback execution (workers retry their
     *  own cells; the network layer retries in svc::Worker/Client). */
    study::RetryPolicy retry;
};

/** The coordinator daemon.  Construction binds and starts serving. */
class Coordinator : public SessionServer
{
  public:
    explicit Coordinator(CoordinatorOptions options);
    ~Coordinator() override;

    /** Drain: stop accepting, cancel queued and running sweeps. */
    void stop() override;

    /** Wait for every thread; call after stop(). */
    void join();

  private:
    /** Everything the fabric knows about the sweep being executed.
     *  Guarded by fabricMutex. */
    struct ActiveSweep
    {
        std::shared_ptr<JobRecord> job;
        SweepPlan plan;
        std::uint64_t fingerprint = 0;
        /** The request as shipped inside every CellLease. */
        std::string requestBody;
        CellScheduler scheduler;
        /** Merged results keyed by cell index (point * jobs + job). */
        std::map<std::size_t, study::CellRecord> cells;
        std::optional<util::JournalWriter> writer;
        std::string journalPath;
        /** Local takeover in progress: no more grants or merges. */
        bool fallback = false;
        FabricTime startedAt;

        ActiveSweep(std::shared_ptr<JobRecord> jobIn, SweepPlan planIn,
                    std::uint64_t fp, FabricTime now)
            : job(std::move(jobIn)), plan(std::move(planIn)),
              fingerprint(fp), requestBody(job->request.encode()),
              scheduler(study::simulationOwners(plan.points, plan.spec),
                        plan.jobs.size()),
              startedAt(now)
        {
        }
    };

    void dispatchLoop();
    void runOneSweep(const std::shared_ptr<JobRecord> &job);
    /** Recover a prior journal into `sweep`; throws JournalError. */
    void replayJournal(ActiveSweep &sweep);
    /** Assemble final bytes from merged cells (plus local execution of
     *  whatever remains, when `executeRemainder`).  Called without the
     *  fabric lock; `sweep.fallback` is already set.  `anyFailed`
     *  reports whether any cell carries a per-row failure (such a
     *  result must not enter the persistent store). */
    std::string assembleResults(ActiveSweep &sweep, bool executeRemainder,
                                bool *anyFailed);

    void handleFrame(util::TcpStream &stream, const Frame &frame) override;
    StatsSnapshot buildStats() const override;

    void handleWorkerHello(util::TcpStream &stream, const Frame &frame);
    void handleLeaseRequest(util::TcpStream &stream, const Frame &frame);
    void handleCellDone(util::TcpStream &stream, const Frame &frame);
    void handleHeartbeat(util::TcpStream &stream, const Frame &frame);
    void handleWorkers(util::TcpStream &stream);

    CoordinatorOptions opts;
    /** Persistent result cache; null when cacheDir is empty. */
    std::unique_ptr<ResultStore> store;
    std::thread dispatchThread;

    mutable std::mutex fabricMutex;
    std::condition_variable fabricCv;
    WorkerTable fleet;                   ///< guarded by fabricMutex
    std::unique_ptr<ActiveSweep> active; ///< guarded by fabricMutex
};

} // namespace fo4::svc

#endif // FO4_SVC_COORDINATOR_HH
