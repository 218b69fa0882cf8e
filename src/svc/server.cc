#include "svc/server.hh"

namespace fo4::svc
{

Server::Server(ServerOptions options)
    : SessionServer(options), threads(options.threads)
{
    startAccepting();
}

Server::~Server()
{
    stop();
    join();
}

std::string
Server::computeSweep(const std::shared_ptr<JobRecord> &job, SweepPlan plan,
                     std::uint64_t, const std::string &journalPath,
                     bool &anyFailed)
{
    return runSweep(
        plan, threads, journalPath, &job->cancel,
        [job](std::size_t, std::size_t, int attempt) {
            if (attempt == 1)
                job->cellsStarted.fetch_add(1, std::memory_order_relaxed);
        },
        &anyFailed);
}

} // namespace fo4::svc
