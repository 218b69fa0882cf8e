/**
 * @file
 * The coordinator's bookkeeping, pure and time-injected: which grid
 * cells are pending/leased/done (CellScheduler) and which workers are
 * live/suspect/dead (WorkerTable).
 *
 * Lease semantics: a cell is *leased*, never *assigned*.  A lease is a
 * timed, revocable grant — it expires (leaseTimeoutMs), it dies with
 * its worker, and the cell silently returns to the pending queue for
 * re-dispatch.  The safety argument is purity: a cell is a pure
 * function of (request, point, job), so two executions of the same
 * cell — a re-dispatched lease racing its not-actually-dead original
 * owner — produce byte-identical results, and first-completion-wins
 * resolution by cell id is deterministic over *bytes* even though it
 * is racy over *which worker* wins.  Re-dispatch can waste compute;
 * it cannot change a result.
 *
 * Failure detector: heartbeat-driven Live -> Suspect -> Dead.  Any
 * frame from a worker refreshes its clock (a busy worker that skips a
 * heartbeat but delivers a cell is demonstrably alive).  Suspect is
 * reversible — a late heartbeat revives the worker; Dead is final —
 * the id is retired, its leases reclaimed, and the worker must
 * re-register under a fresh id (which keeps "a completion from a dead
 * id" trivially refusable).
 *
 * Both classes take every timestamp as a parameter (std::chrono
 * steady_clock time_points) and do no locking: the coordinator guards
 * them with its fabric mutex, and unit tests drive the failure
 * detector with fabricated clocks instead of sleeps.
 */

#ifndef FO4_SVC_LEASE_HH
#define FO4_SVC_LEASE_HH

#include <chrono>
#include <cstdint>
#include <deque>
#include <map>
#include <optional>
#include <string>
#include <vector>

#include "svc/protocol.hh"

namespace fo4::svc
{

using FabricClock = std::chrono::steady_clock;
using FabricTime = FabricClock::time_point;

/**
 * One sweep's cell states: pending -> leased -> done, with leases
 * revocable back to pending.  Cells are indexed (point, job).
 *
 * Grants are class-affine when cells share simulations: the cells of
 * one (study::simulationOwners owner, job) class are granted to the
 * worker that claimed the class, so its per-sweep memo prices every die
 * after the first.  A worker with no cells left in its class claims the
 * next unclaimed one; only when none remains does it fall back to the
 * FIFO of every pending cell, taking cells at the tail of other
 * workers' classes.  Reclaimed leases re-enter both their class and the
 * FIFO, and a dead worker's class is released to the survivors, so no
 * pending cell is ever out of reach of grant().  When every point owns
 * itself every class is one cell, so first grants walk the FIFO order.
 */
class CellScheduler
{
  public:
    struct CellKey
    {
        std::size_t point = 0;
        std::size_t job = 0;
    };

    /** Class-affine grants over study::simulationOwners(points, spec)
     *  (one entry per point). */
    CellScheduler(const std::vector<std::size_t> &owners, std::size_t jobs);

    /** Every point its own simulation: one class per cell. */
    CellScheduler(std::size_t points, std::size_t jobs);

    /** Land a cell completed before scheduling began (journal replay).
     *  Idempotent. */
    void markDone(std::size_t point, std::size_t job);

    /**
     * Lease the next pending cell to `workerId` until `expiry`.
     * Returns nullopt when nothing is pending (all cells leased or
     * done — the worker should back off and re-ask).
     */
    std::optional<CellKey> grant(std::uint64_t workerId,
                                 FabricTime expiry);

    /**
     * Record a completion.  True: first completion, the result should
     * be merged.  False: duplicate of an already-done cell (a lease
     * raced its re-dispatch) — drop the bytes, they are identical by
     * purity.  Accepts completions from revoked leases: the result is
     * just as good no matter whose lease it ran under.
     */
    bool complete(std::size_t point, std::size_t job);

    /** Return every lease past `now` to the pending queue.  Returns
     *  the number reclaimed (the re-dispatch counter's feed). */
    std::size_t reclaimExpired(FabricTime now);

    /** Return every lease held by `workerId` (a dead worker) to the
     *  pending queue.  Returns the number reclaimed. */
    std::size_t reclaimWorker(std::uint64_t workerId);

    std::size_t totalCells() const { return states.size(); }
    std::size_t doneCount() const { return nDone; }
    std::size_t pendingCount() const
    {
        return states.size() - nDone - leases.size();
    }
    std::size_t leasedCount() const { return leases.size(); }
    bool finished() const { return nDone == states.size(); }

    /** Leases currently held by one worker (WorkerReport gauge). */
    std::uint64_t activeLeases(std::uint64_t workerId) const;

  private:
    enum class State : unsigned char
    {
        Pending,
        Leased,
        Done,
    };

    struct Lease
    {
        std::uint64_t workerId = 0;
        FabricTime expiry;
    };

    /** The cells sharing one simulation, in grant order.  Reclaimed
     *  cells are appended; `next` skips what was already taken. */
    struct CellClass
    {
        std::vector<std::size_t> cells;
        std::size_t next = 0;
        std::uint64_t claimant = 0; ///< 0 = unclaimed (ids start at 1)
    };

    std::size_t index(std::size_t point, std::size_t job) const;
    CellKey lease(std::size_t i, std::uint64_t workerId, FabricTime expiry);
    /** Next pending cell of class `c`, if any. */
    std::optional<std::size_t> takeFrom(CellClass &c);
    /** A lease on cell `i` was revoked: back to pending, FIFO and
     *  class. */
    void requeue(std::size_t i);

    std::size_t nJobs;
    std::vector<State> states;
    std::deque<std::size_t> pending; ///< indices, FIFO
    std::map<std::size_t, Lease> leases;
    std::size_t nDone = 0;

    std::vector<std::size_t> classOf; ///< cell index -> class
    std::vector<CellClass> classes;
    std::deque<std::size_t> unclaimed; ///< classes, lazily pruned
    std::map<std::uint64_t, std::size_t> claims; ///< worker -> class
};

/** The failure detector's view of the registered fleet. */
class WorkerTable
{
  public:
    struct Timing
    {
        /** How often workers are told to heartbeat. */
        std::uint64_t heartbeatMs = 1000;
        /** Silence before Live degrades to Suspect. */
        std::uint64_t suspectAfterMs = 3000;
        /** Silence before a worker is declared Dead (final). */
        std::uint64_t deadAfterMs = 10000;
    };

    explicit WorkerTable(Timing timing);

    /** Admit a worker; returns its fresh id (ids are never reused, so
     *  a dead worker's late frames stay refusable). */
    std::uint64_t registerWorker(std::string name, std::uint64_t threads,
                                 FabricTime now);

    /**
     * Refresh a worker's liveness clock (any frame counts, not just
     * heartbeats).  Revives Suspect to Live.  Returns false for
     * unknown or Dead ids — the caller tells the worker to
     * re-register.
     */
    bool touch(std::uint64_t id, FabricTime now);

    /** Run the failure detector: degrade silent workers, declare the
     *  over-silent dead.  Returns the ids that died *this* sweep, so
     *  the caller reclaims their leases exactly once. */
    std::vector<std::uint64_t> newlyDead(FabricTime now);

    /** Workers not declared Dead (Live + Suspect — a suspect still
     *  holds its leases and may yet deliver). */
    std::size_t liveCount() const;

    /** Total workers ever registered. */
    std::size_t registeredCount() const { return workers.size(); }

    void recordCompletion(std::uint64_t id);

    const Timing &timing() const { return times; }

    /** The WorkerReport rows; `leasesOf` supplies the per-worker
     *  active-lease gauge (the scheduler knows, this table does not). */
    template <typename LeasesOf>
    std::vector<WorkerSnapshot>
    snapshot(FabricTime now, LeasesOf &&leasesOf) const
    {
        std::vector<WorkerSnapshot> rows;
        rows.reserve(workers.size());
        for (const auto &[id, w] : workers) {
            WorkerSnapshot row;
            row.id = id;
            row.name = w.name;
            row.state = w.state;
            row.activeLeases = leasesOf(id);
            row.cellsCompleted = w.cellsCompleted;
            row.heartbeatAgeMs = static_cast<std::uint64_t>(
                std::chrono::duration_cast<std::chrono::milliseconds>(
                    now - w.lastSeen)
                    .count());
            rows.push_back(std::move(row));
        }
        return rows;
    }

  private:
    struct Worker
    {
        std::string name;
        std::uint64_t threads = 1;
        WorkerState state = WorkerState::Live;
        FabricTime lastSeen;
        std::uint64_t cellsCompleted = 0;
    };

    Timing times;
    std::uint64_t nextId = 1;
    std::map<std::uint64_t, Worker> workers;
};

} // namespace fo4::svc

#endif // FO4_SVC_LEASE_HH
