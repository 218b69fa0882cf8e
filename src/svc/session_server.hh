/**
 * @file
 * The one job lifecycle every daemon in the sweep service shares: a
 * TCP listener, one session thread per connection, the client-facing
 * record handlers (submit, poll, fetch, cancel, stats) over a JobTable,
 * and a single dispatcher thread that takes each queued sweep through
 *
 *     plan -> in-memory dedup -> result store -> compute -> store put
 *          -> Done | Cancelled | Failed
 *
 * Both the single-machine daemon (svc::Server) and the fleet
 * coordinator (svc::Coordinator) are SessionServers: a coordinator
 * speaks the *same* client protocol as a daemon — fo4ctl cannot tell
 * them apart — and adds the fleet records on top.  A derived daemon
 * supplies its compute step (computeSweep) and, optionally, the replies
 * to records the base does not serve (handleFrame) and an idle tick for
 * the dispatcher's empty-queue wakeups.  The session loop writes every
 * reply, so no derived daemon touches a socket.
 *
 * Fault containment (inherited by every derived daemon): a malformed
 * or corrupt frame costs its *session* — the peer gets a typed Error
 * frame while the transport still works, then the connection closes —
 * never the process.  A failed sweep is a Failed job other clients can
 * inspect; the dispatcher survives.
 *
 * Construction order contract: the base constructor binds the listener
 * and opens the result store but starts no thread; the derived
 * constructor must call startAccepting() as its last statement, after
 * every member the dispatcher and session threads may touch is
 * initialised (virtual dispatch from a thread racing a half-built
 * object is the bug this avoids).  For the same reason the derived
 * destructor must stop() and join() before its members go.
 */

#ifndef FO4_SVC_SESSION_SERVER_HH
#define FO4_SVC_SESSION_SERVER_HH

#include <atomic>
#include <cstdint>
#include <memory>
#include <mutex>
#include <string>
#include <thread>
#include <vector>

#include "svc/queue.hh"
#include "svc/store.hh"
#include "svc/sweep.hh"
#include "util/net.hh"

namespace fo4::svc
{

/** Knobs every daemon shares (ServerOptions, CoordinatorOptions). */
struct DaemonOptions
{
    /** Listen port; 0 picks an ephemeral port (see port()). */
    std::uint16_t port = 0;
    /** Admission bound: queued (not yet running) jobs. */
    std::size_t maxQueue = 8;
    /** Directory for per-sweep checkpoint journals, keyed by grid
     *  fingerprint; empty disables durability (and restart-resume). */
    std::string checkpointDir;
    /** Directory for the persistent result store; empty disables
     *  caching.  A repeat sweep is then served at zero compute, with
     *  every store fault degrading to recompute (svc/store.hh). */
    std::string cacheDir;
    /** Result-store size cap in bytes (0 = unlimited). */
    std::uint64_t cacheMaxBytes = 0;
    /** Max queued sweeps per tenant (0 = unlimited). */
    std::size_t tenantQuota = 0;
};

/** Base of Server and Coordinator; see the file comment. */
class SessionServer
{
  public:
    virtual ~SessionServer();

    SessionServer(const SessionServer &) = delete;
    SessionServer &operator=(const SessionServer &) = delete;

    /** The bound port (resolves an ephemeral request). */
    std::uint16_t port() const { return listener.port(); }

    /** Stop accepting, cancel every queued job and flip the running
     *  job's CancelToken, so its compute step drains with its journal
     *  flushed.  Idempotent.  Derived classes extend this to wake
     *  their own loops. */
    virtual void stop();

    /** Wait for the dispatcher, accept and session threads; call
     *  after stop(). */
    void join();

  protected:
    /** Binds (but does not serve) 127.0.0.1:options.port and opens the
     *  result store; a bad cache dir throws ConfigError here, at
     *  startup — only runtime store faults degrade to misses. */
    explicit SessionServer(const DaemonOptions &options);

    /** Launch the dispatcher and the accept loop.  MUST be the last
     *  statement of the derived constructor. */
    void startAccepting();

    bool stopRequested() const { return stopping.load(); }

    /** How often blocked loops wake to check the stop flag, ms. */
    static constexpr int kTickMs = 100;

    /** Per-read/write timeout once a frame is in flight, ms — the
     *  per-RPC deadline that keeps a black-holed peer from wedging a
     *  session thread. */
    static constexpr int kFrameTimeoutMs = 10000;

    /**
     * The reply to one request frame.  The base answers the client
     * records: SubmitSweep (validated eagerly via planSweep), Poll,
     * FetchResults, Cancel and Stats; any other frame is a peer
     * speaking the protocol backwards — SvcError(Protocol).  A daemon
     * that serves more records overrides this and hands the rest to
     * the base.  The session loop writes every reply: a thrown SimError
     * is the request's Error-frame verdict (NotFound, NotReady,
     * Overloaded, a refused request), except Protocol, which costs the
     * session (see the file comment).
     */
    virtual Frame handleFrame(const Frame &frame);

    /**
     * The compute step: the canonical result bytes of `plan`, which
     * neither dedup nor the result store could answer.  `journalPath`
     * is the sweep's checkpoint journal under checkpointDir (empty:
     * durability off).  Sets `anyFailed` when a row carries a typed
     * failure — such bytes are served but never stored.  Throws
     * CancelledError when the job's token or stop() drains it, any
     * other SimError as the job's verdict.  Runs on the dispatcher.
     */
    virtual std::string computeSweep(const std::shared_ptr<JobRecord> &job,
                                     SweepPlan plan,
                                     std::uint64_t fingerprint,
                                     const std::string &journalPath,
                                     bool &anyFailed) = 0;

    /** Runs on the dispatcher after each tick with no job queued. */
    virtual void idleTick() {}

    /** The job table every daemon serves clients from. */
    JobTable table;

  private:
    void acceptLoop();
    void sessionLoop(util::TcpStream stream);
    void dispatchLoop();
    /** One job, plan to verdict; samples the sweep-latency histogram. */
    void runJob(const std::shared_ptr<JobRecord> &job);
    StatsSnapshot buildStats() const;

    const std::string checkpointDir;
    /** Persistent result cache; null when cacheDir is empty. */
    std::unique_ptr<ResultStore> store;
    util::TcpListener listener;
    std::atomic<bool> stopping{false};
    std::thread dispatchThread;
    std::thread acceptThread;
    std::mutex sessionMutex;
    std::vector<std::thread> sessions;
};

} // namespace fo4::svc

#endif // FO4_SVC_SESSION_SERVER_HH
