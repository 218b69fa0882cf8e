/**
 * @file
 * fo4d — the sweep daemon.  Listens on 127.0.0.1, accepts framed sweep
 * requests (see svc/protocol.hh), executes them FIFO through the
 * crash-safe checkpointed runner, and serves results, progress, cancel
 * and stats to fo4ctl (or any client of svc::Client).
 *
 *   ./fo4d [port=0] [jobs=1] [max_queue=8] [checkpoint_dir=]
 *          [cache_dir=] [cache_max_bytes=0] [tenant_quota=0] [verbose=1]
 *   ./fo4d worker coordinator_port=<n> [coordinator_host=] [name=]
 *                 [timeout_ms=] [cache_dir=] [cache_max_bytes=0]
 *
 * port=0 binds an ephemeral port; the bound port is printed on stdout
 * ("fo4d listening on 127.0.0.1:<port>") so scripts can scrape it.
 * SIGINT drains: the listener closes, queued jobs are cancelled, the
 * in-flight sweep stops cooperatively with its journal flushed (so a
 * resubmission after restart resumes), and the process exits 0.
 *
 * `worker` mode joins a fo4coord fleet instead of serving clients: the
 * process dials the coordinator, registers, and pulls cell leases until
 * SIGINT.  A worker that loses its coordinator reconnects with capped
 * backoff forever — start workers and coordinator in any order.
 */

#include <sys/stat.h>

#include <chrono>
#include <climits>
#include <cstdint>
#include <cstdio>
#include <iostream>
#include <thread>

#include "study/run_keys.hh"
#include "svc/server.hh"
#include "svc/worker.hh"
#include "util/cancel.hh"
#include "util/config.hh"
#include "util/metrics.hh"

namespace
{

const std::vector<fo4::util::KeyDoc> kKeys = fo4::study::runKeys(
    {"jobs"},
    {{"port", "TCP port to listen on; 0 picks an ephemeral port"},
     {"max_queue", "queued sweeps admitted before Overloaded refusals; "
                   "also the finished sweeps whose results are kept"},
     {"checkpoint_dir", "directory for per-sweep journals (empty = none)"},
     {"cache_dir", "persistent result store directory (empty = no cache)"},
     {"cache_max_bytes", "result store size cap in bytes (0 = unlimited)"},
     {"tenant_quota", "max queued sweeps per tenant (0 = unlimited)"},
     {"verbose", "print the metrics registry on exit"},
     {"coordinator_host", "worker mode: coordinator host (127.0.0.1)"},
     {"coordinator_port", "worker mode: coordinator port (required)"},
     {"name", "worker mode: name shown in `fo4ctl workers`"},
     {"timeout_ms", "worker mode: per-RPC deadline, milliseconds (> 0)"}});

int
workerMain(const fo4::util::Config &cfg)
{
    using namespace fo4;
    svc::WorkerOptions options;
    options.host = cfg.getString("coordinator_host", "127.0.0.1");
    if (!cfg.has("coordinator_port")) {
        throw util::ConfigError(
            "worker mode needs coordinator_port=<port> (fo4coord "
            "prints it on startup)");
    }
    options.port = static_cast<std::uint16_t>(
        cfg.getIntIn("coordinator_port", 0, 1, UINT16_MAX));
    options.name = cfg.getString("name", "fo4d-worker");
    if (cfg.has("timeout_ms")) {
        const auto t =
            static_cast<int>(cfg.getIntIn("timeout_ms", 0, 1, INT_MAX));
        options.ioTimeoutMs = t;
        options.connectTimeoutMs = t;
    }
    options.cacheDir = cfg.getString("cache_dir", "");
    options.cacheMaxBytes = static_cast<std::uint64_t>(
        cfg.getIntIn("cache_max_bytes", 0, 0, INT64_MAX));

    util::setMetricsEnabled(true);
    util::CancelToken cancel;
    util::installSigintCancel(cancel);

    svc::Worker worker(std::move(options));
    std::printf("fo4d worker dialing %s:%u as '%s'\n",
                cfg.getString("coordinator_host", "127.0.0.1").c_str(),
                static_cast<unsigned>(
                    cfg.getPositiveInt("coordinator_port", 0)),
                cfg.getString("name", "fo4d-worker").c_str());
    std::fflush(stdout);

    while (!cancel.cancelled())
        std::this_thread::sleep_for(std::chrono::milliseconds(100));

    std::printf("fo4d worker draining: aborting the in-flight cell\n");
    worker.stop();
    worker.join();
    if (cfg.getBool("verbose", false))
        util::MetricsRegistry::global().dump(std::cout);
    std::printf("fo4d worker drained (%llu cells executed, %llu of them "
                "priced from a shared simulation, %llu from cache)\n",
                static_cast<unsigned long long>(worker.cellsExecuted()),
                static_cast<unsigned long long>(worker.cellsShared()),
                static_cast<unsigned long long>(worker.cellsFromCache()));
    return 0;
}

int
daemonMain(int argc, char **argv)
{
    using namespace fo4;
    const study::RunArgs args(argc, argv, kKeys);
    const util::Config &cfg = args.config();

    if (!cfg.positional().empty()) {
        const std::string &mode = cfg.positional().front();
        if (mode != "worker") {
            throw util::ConfigError("unknown mode '" + mode +
                                    "' (only `worker` is a mode; the "
                                    "default is to serve)");
        }
        return workerMain(cfg);
    }

    svc::ServerOptions options;
    options.port =
        static_cast<std::uint16_t>(cfg.getIntIn("port", 0, 0, UINT16_MAX));
    options.threads = args.jobs();
    options.maxQueue =
        static_cast<std::size_t>(cfg.getPositiveInt("max_queue", 8));
    options.checkpointDir = cfg.getString("checkpoint_dir", "");
    // A missing checkpoint directory would otherwise fail every job at
    // journal creation; one level of mkdir covers the common case.
    if (!options.checkpointDir.empty())
        ::mkdir(options.checkpointDir.c_str(), 0777);
    options.cacheDir = cfg.getString("cache_dir", "");
    options.cacheMaxBytes = static_cast<std::uint64_t>(
        cfg.getIntIn("cache_max_bytes", 0, 0, INT64_MAX));
    options.tenantQuota = static_cast<std::size_t>(
        cfg.getIntIn("tenant_quota", 0, 0, INT64_MAX));

    // The Stats record reports the registry, so collection is on for
    // the daemon's whole lifetime.
    util::setMetricsEnabled(true);

    util::CancelToken cancel;
    util::installSigintCancel(cancel);

    svc::Server server(std::move(options));
    std::printf("fo4d listening on 127.0.0.1:%u\n", server.port());
    std::fflush(stdout); // scripts scrape the port before any output

    while (!cancel.cancelled())
        std::this_thread::sleep_for(std::chrono::milliseconds(100));

    std::printf("fo4d draining: refusing new work, cancelling queued "
                "jobs, flushing the running sweep's journal\n");
    server.stop();
    server.join();
    if (cfg.getBool("verbose", false))
        util::MetricsRegistry::global().dump(std::cout);
    std::printf("fo4d drained\n");
    return 0;
}

} // namespace

int
main(int argc, char **argv)
{
    return fo4::util::runTopLevel(argc, argv, kKeys,
                                  [&] { return daemonMain(argc, argv); });
}
