/**
 * @file
 * A fleet worker: dials the coordinator, registers, and pulls cell
 * leases in a loop — run cell, report CellDone, repeat — with a
 * separate heartbeat thread keeping the failure detector fed over its
 * own connection (a worker grinding through a long cell must still
 * look alive).
 *
 * Both loops talk through svc::Client with its reconnect off.  Every
 * socket operation carries a deadline, and any transport failure
 * (coordinator restart, dropped connection, timeout) costs one
 * capped-backoff reconnect cycle, not the worker.  A coordinator that
 * answers NotFound (this worker was declared dead) triggers
 * re-registration under a fresh id.
 *
 * Each cell is simulated once, through the same study::runJobIsolated
 * the local runner uses — a cell computed here is byte-identical to one
 * computed anywhere else, which is what makes the coordinator's
 * first-wins duplicate resolution sound.  A leased cell is answered
 * from the first source that has it: the warm cell cache, then the
 * per-sweep memo of successful results (a Monte Carlo die priced from
 * another die's simulation of the same CoreParams,
 * study::priceAtClock), then simulation.  The worker keeps
 * the plan and memo of the one sweep it is serving; a lease for any
 * other sweep re-plans and starts a fresh memo.
 *
 * kill() exists for the chaos harness: it aborts the in-flight cell
 * (cancel token) and guarantees nothing more is sent — the in-process
 * equivalent of SIGKILL, letting tests exercise the failure detector
 * and re-dispatch without spawning processes.
 */

#ifndef FO4_SVC_WORKER_HH
#define FO4_SVC_WORKER_HH

#include <atomic>
#include <condition_variable>
#include <cstdint>
#include <memory>
#include <mutex>
#include <optional>
#include <string>
#include <thread>
#include <unordered_map>
#include <vector>

#include "study/checkpoint.hh"
#include "svc/store.hh"
#include "svc/sweep.hh"
#include "util/cancel.hh"

namespace fo4::svc
{

/** Knobs of a worker. */
struct WorkerOptions
{
    std::string host = "127.0.0.1";
    std::uint16_t port = 0;
    /** Advertised in WorkerHello (shows up in `fo4ctl workers`). */
    std::string name = "fo4d-worker";
    int connectTimeoutMs = 5000;
    /** Per-RPC read/write deadline. */
    int ioTimeoutMs = 10000;
    /** Directory of a persistent cell cache; empty disables it.  With a
     *  warm cache a leased cell is answered from disk instead of
     *  executed — byte-identical, because the cache key is the grid
     *  fingerprint plus the (point, job) slot (svc/store.hh). */
    std::string cacheDir;
    /** Cell-cache size cap in bytes (0 = unlimited). */
    std::uint64_t cacheMaxBytes = 0;
};

/** One worker; construction starts its threads. */
class Worker
{
  public:
    explicit Worker(WorkerOptions options);
    ~Worker();

    Worker(const Worker &) = delete;
    Worker &operator=(const Worker &) = delete;

    /** Graceful: abort the in-flight cell, stop both loops. */
    void stop();

    /** Chaos: like stop(), but asserts nothing more reaches the wire
     *  — the in-process SIGKILL for fault-injection tests. */
    void kill();

    /** Wait for both threads; call after stop()/kill(). */
    void join();

    /** Cells this worker has *computed* and reported, simulated or
     *  priced from its memo (cache hits are counted separately in
     *  cellsFromCache()). */
    std::uint64_t cellsExecuted() const { return nExecuted.load(); }

    /** Of cellsExecuted(), the cells priced from the memo instead of
     *  simulated. */
    std::uint64_t cellsShared() const { return nShared.load(); }

    /** Sweep plans held (at most one: the sweep being served).  Call
     *  after join(): only the work thread touches the plan. */
    std::size_t plansHeld() const { return served ? 1 : 0; }

    /** Cells answered from the persistent cell cache, skipping
     *  execution entirely. */
    std::uint64_t cellsFromCache() const { return nFromCache.load(); }

    /** The id the coordinator last assigned (0 before registration). */
    std::uint64_t workerId() const { return id.load(); }

  private:
    void workLoop();
    void heartbeatLoop();
    /** Interruptible sleep; false when stopping woke it early. */
    bool sleepFor(double delayMs);

    WorkerOptions opts;
    std::atomic<bool> stopping{false};
    std::atomic<std::uint64_t> id{0};
    std::atomic<std::uint64_t> heartbeatMs{1000};
    std::atomic<std::uint64_t> nExecuted{0};
    std::atomic<std::uint64_t> nFromCache{0};
    std::atomic<std::uint64_t> nShared{0};
    util::CancelToken cellCancel;
    /** Persistent cell cache; null when cacheDir is empty. */
    std::unique_ptr<ResultStore> store;

    std::mutex sleepMutex;
    std::condition_variable sleepCv;

    /** The sweep being served: its cells share one plan (not one
     *  planSweep call per cell) and one memo of successful results,
     *  keyed by owner cell (simulationOwners[point] * jobs + job). */
    struct ServedSweep
    {
        std::uint64_t fingerprint = 0;
        SweepPlan plan;
        std::vector<std::size_t> owners;
        std::unordered_map<std::size_t, study::BenchResult> memo;
    };
    /** Only the work thread touches it. */
    std::optional<ServedSweep> served;

    std::thread workThread;
    std::thread heartbeatThread;
};

} // namespace fo4::svc

#endif // FO4_SVC_WORKER_HH
