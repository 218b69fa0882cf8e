/**
 * @file
 * Blocking client of the sweep service: one TCP connection, one
 * request/response round trip per call.
 *
 * Error model: a server-reported Error frame is rethrown locally as
 * SvcError carrying the *remote* code — a queue-full refusal surfaces
 * as SvcError(Overloaded), a job's DeadlockError as SvcError(Deadlock),
 * and so on, so callers handle remote failures with the same typed
 * dispatch they use for local ones.  Transport trouble is
 * SvcError(NetIo); a frame that cannot be trusted, SvcError(Protocol).
 *
 * Resilience: with Options::reconnect (the default), transport
 * failures cost a capped-backoff reconnect cycle instead of the call —
 * a `fo4ctl poll` loop rides out a daemon restart.  The retry guard is
 * idempotency-aware: poll/fetch/cancel/stats/workers re-send freely,
 * but a submit whose request already reached the wire is *never*
 * retried (the daemon may have accepted it; resubmitting would enqueue
 * the sweep twice).  Error frames are verdicts, not transport trouble,
 * and are never retried.
 */

#ifndef FO4_SVC_CLIENT_HH
#define FO4_SVC_CLIENT_HH

#include <cstdint>
#include <functional>
#include <optional>
#include <string>
#include <vector>

#include "study/checkpoint.hh"
#include "svc/protocol.hh"
#include "util/net.hh"

namespace fo4::svc
{

/** A connected client.  Not thread-safe: one conversation at a time. */
class Client
{
  public:
    /** Knobs of a client connection. */
    struct Options
    {
        /** Deadline for establishing (or re-establishing) the TCP
         *  connection; must be > 0. */
        int connectTimeoutMs = 5000;
        /** Per-round-trip read/write deadline; must be > 0. */
        int ioTimeoutMs = 30000;
        /** Reconnect-and-retry on transport failure (idempotent
         *  requests only once bytes have hit the wire). */
        bool reconnect = true;
        /** Backoff between reconnect attempts; maxAttempts bounds the
         *  total tries of one call (including the first). */
        study::RetryPolicy retry{
            .maxAttempts = 5,
            .baseDelayMs = 100.0,
            .backoffFactor = 2.0,
            .maxDelayMs = 2000.0,
        };
    };

    /** Connect to a daemon; throws SvcError(NetIo) on failure and
     *  ConfigError on out-of-range options. */
    Client(const std::string &host, std::uint16_t port, Options options);

    /** Default options. */
    Client(const std::string &host, std::uint16_t port);

    /** Submit a sweep.  Returns (job id, total grid cells); rethrows
     *  the server's refusal (Overloaded, InvalidConfig, ...). */
    std::pair<std::uint64_t, std::uint64_t>
    submit(const SweepRequest &request);

    /** One status snapshot. */
    JobStatusInfo poll(std::uint64_t id);

    /** The canonical result bytes of a Done job; rethrows NotReady
     *  while the job is in flight and the job's own typed failure
     *  (or Cancelled) once terminal. */
    std::string fetchResults(std::uint64_t id);

    /** Request cancellation; returns the post-cancel status. */
    JobStatusInfo cancel(std::uint64_t id);

    /** The service's live gauges and metrics snapshot. */
    StatsSnapshot stats();

    /** The coordinator's fleet roster; a plain fo4d answers with a
     *  Protocol error (it serves no fleet). */
    std::vector<WorkerSnapshot> workers();

    // The fleet records a worker sends a coordinator.  A request naming
    // an id the coordinator does not know, or has declared dead, is
    // answered NotFound (Heartbeat: known = false); the worker then
    // registers again.

    /** Register; returns the fresh id and the coordinator's cadences. */
    HelloOkInfo workerHello(const WorkerHelloInfo &hello);

    /** Ask for a cell: its lease, or nullopt with `retryMs` set to the
     *  coordinator's NoWork back-off hint. */
    std::optional<CellLeaseInfo> requestLease(std::uint64_t workerId,
                                              std::uint64_t &retryMs);

    /** Report a computed cell; false when it was a duplicate (another
     *  completion of the cell already won). */
    bool cellDone(const CellDoneInfo &done);

    /** One liveness beat; false when the id is unknown or dead. */
    bool heartbeat(std::uint64_t workerId);

    /**
     * Poll until the job is terminal, sleeping `pollMs` between polls
     * and reporting each status to `onStatus` (may be empty).  Returns
     * the terminal status; fetch the bytes with fetchResults().
     */
    JobStatusInfo
    waitUntilDone(std::uint64_t id, int pollMs = 200,
                  const std::function<void(const JobStatusInfo &)>
                      &onStatus = {});

  private:
    /** Send `type`+`body`, read one response, rethrow Error frames.
     *  `idempotent` requests survive transport failure via reconnect
     *  even after their bytes hit the wire. */
    Frame roundTrip(MsgType type, std::string_view body, bool idempotent);
    Frame expect(MsgType type, std::string_view body, MsgType want,
                 bool idempotent = true);

    std::string host;
    std::uint16_t port;
    Options opts;
    util::TcpStream stream;
};

} // namespace fo4::svc

#endif // FO4_SVC_CLIENT_HH
