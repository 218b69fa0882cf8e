/**
 * @file
 * The sweep daemon: a SessionServer whose compute step runs a sweep
 * through the crash-safe checkpointed runner on this machine.
 *
 * Why one dispatcher: a sweep already fans its grid across
 * ServerOptions::threads workers, so running two sweeps concurrently
 * would just have them fight over the same cores; FIFO dispatch keeps
 * the latency story simple (queue position is an honest progress
 * indicator) and the checkpoint journals per-job.
 *
 * Shutdown (SIGINT in fo4d): stop() closes the listener, marks every
 * queued job Cancelled, and flips the running job's CancelToken; the
 * in-flight sweep drains cooperatively with its journal flushed, so a
 * resubmission after restart resumes instead of recomputing.  join()
 * then reaps every thread.  A drained daemon exits 0.
 */

#ifndef FO4_SVC_SERVER_HH
#define FO4_SVC_SERVER_HH

#include "svc/session_server.hh"

namespace fo4::svc
{

/** Knobs of the daemon: the shared DaemonOptions plus its threads. */
struct ServerOptions : DaemonOptions
{
    /** Worker threads per sweep; 1 = serial, <= 0 = hardware count. */
    int threads = 1;
};

/** The daemon.  Construction binds and starts serving; see stop(). */
class Server : public SessionServer
{
  public:
    explicit Server(ServerOptions options);
    ~Server() override;

  private:
    std::string computeSweep(const std::shared_ptr<JobRecord> &job,
                             SweepPlan plan, std::uint64_t fingerprint,
                             const std::string &journalPath,
                             bool &anyFailed) override;

    const int threads;
};

} // namespace fo4::svc

#endif // FO4_SVC_SERVER_HH
