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

#include "study/checkpoint.hh"
#include "svc/lease.hh"
#include "svc/session_server.hh"
#include "util/journal.hh"

namespace fo4::svc
{

/** Knobs of the coordinator: the shared DaemonOptions plus the fleet's. */
struct CoordinatorOptions : DaemonOptions
{
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

    /** The compute step: the fabric tick loop (see the file comment).
     *  Throws CancelledError on a cancel or drain. */
    std::string computeSweep(const std::shared_ptr<JobRecord> &job,
                             SweepPlan plan, std::uint64_t fingerprint,
                             const std::string &journalPath,
                             bool &anyFailed) override;
    /** Between sweeps, the failure detector keeps judging the fleet. */
    void idleTick() override;
    /** Recover a prior journal into `sweep`; throws JournalError. */
    void replayJournal(ActiveSweep &sweep);
    /** Assemble final bytes from merged cells (plus local execution of
     *  whatever remains, when `executeRemainder`).  Called without the
     *  fabric lock; `sweep.fallback` is already set.  `anyFailed`
     *  reports whether any cell carries a per-row failure (such a
     *  result must not enter the persistent store). */
    std::string assembleResults(ActiveSweep &sweep, bool executeRemainder,
                                bool &anyFailed);

    void handleFrame(util::TcpStream &stream, const Frame &frame) override;

    void handleWorkerHello(util::TcpStream &stream, const Frame &frame);
    void handleLeaseRequest(util::TcpStream &stream, const Frame &frame);
    void handleCellDone(util::TcpStream &stream, const Frame &frame);
    void handleHeartbeat(util::TcpStream &stream, const Frame &frame);
    void handleWorkers(util::TcpStream &stream);

    CoordinatorOptions opts;

    mutable std::mutex fabricMutex;
    std::condition_variable fabricCv;
    WorkerTable fleet;                   ///< guarded by fabricMutex
    std::unique_ptr<ActiveSweep> active; ///< guarded by fabricMutex
};

} // namespace fo4::svc

#endif // FO4_SVC_COORDINATOR_HH
