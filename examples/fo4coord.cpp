/**
 * @file
 * fo4coord — the fleet coordinator.  Speaks the same client protocol
 * as fo4d (submit/poll/fetch/cancel/stats via fo4ctl), but instead of
 * executing sweeps itself it shards their grid cells across registered
 * fo4d workers (`./fo4d worker coordinator_port=...`), re-dispatching
 * the cells of workers that die or stall, and finishing locally when
 * no live worker remains.  Results are byte-identical to a local run
 * no matter what the fleet does — see DESIGN.md §13.
 *
 *   ./fo4coord [port=0] [max_queue=8] [checkpoint_dir=]
 *              [cache_dir=] [cache_max_bytes=0] [tenant_quota=0]
 *              [heartbeat_ms=1000] [suspect_ms=3000] [dead_ms=10000]
 *              [lease_timeout_ms=60000] [local_fallback=1] [jobs=1]
 *              [verbose=1]
 *
 * port=0 binds an ephemeral port; the bound port is printed on stdout
 * ("fo4coord listening on 127.0.0.1:<port>") so scripts can scrape it.
 * SIGINT drains like fo4d: queued sweeps cancel, the running sweep
 * stops with its journal flushed, and the process exits 0.
 */

#include <sys/stat.h>

#include <chrono>
#include <cstdint>
#include <cstdio>
#include <iostream>
#include <thread>

#include "study/run_keys.hh"
#include "svc/coordinator.hh"
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
     {"heartbeat_ms", "heartbeat cadence told to workers"},
     {"suspect_ms", "silence before a worker turns Suspect"},
     {"dead_ms", "silence before a worker is declared Dead"},
     {"lease_timeout_ms", "cell lease lifetime before re-dispatch"},
     {"local_fallback", "finish cells locally when no worker is live"},
     {"verbose", "print the metrics registry on exit"}});

int
coordMain(int argc, char **argv)
{
    using namespace fo4;
    const study::RunArgs args(argc, argv, kKeys);
    const util::Config &cfg = args.config();

    svc::CoordinatorOptions options;
    options.port =
        static_cast<std::uint16_t>(cfg.getIntIn("port", 0, 0, UINT16_MAX));
    options.maxQueue =
        static_cast<std::size_t>(cfg.getPositiveInt("max_queue", 8));
    options.checkpointDir = cfg.getString("checkpoint_dir", "");
    if (!options.checkpointDir.empty())
        ::mkdir(options.checkpointDir.c_str(), 0777);
    options.cacheDir = cfg.getString("cache_dir", "");
    options.cacheMaxBytes = static_cast<std::uint64_t>(
        cfg.getIntIn("cache_max_bytes", 0, 0, INT64_MAX));
    options.tenantQuota = static_cast<std::size_t>(
        cfg.getIntIn("tenant_quota", 0, 0, INT64_MAX));

    options.detector.heartbeatMs = static_cast<std::uint64_t>(
        cfg.getPositiveInt("heartbeat_ms", 1000));
    options.detector.suspectAfterMs = static_cast<std::uint64_t>(
        cfg.getPositiveInt("suspect_ms", 3000));
    options.detector.deadAfterMs = static_cast<std::uint64_t>(
        cfg.getPositiveInt("dead_ms", 10000));
    if (options.detector.suspectAfterMs > options.detector.deadAfterMs) {
        throw util::ConfigError(
            "suspect_ms must not exceed dead_ms (a worker turns "
            "Suspect before it is declared Dead)");
    }
    options.leaseTimeoutMs = static_cast<std::uint64_t>(
        cfg.getPositiveInt("lease_timeout_ms", 60000));
    options.localFallback = cfg.getBool("local_fallback", true);
    options.localThreads = args.jobs();

    util::setMetricsEnabled(true);
    util::CancelToken cancel;
    util::installSigintCancel(cancel);

    svc::Coordinator coordinator(std::move(options));
    std::printf("fo4coord listening on 127.0.0.1:%u\n",
                coordinator.port());
    std::fflush(stdout); // scripts scrape the port before any output

    while (!cancel.cancelled())
        std::this_thread::sleep_for(std::chrono::milliseconds(100));

    std::printf("fo4coord draining: refusing new work, cancelling "
                "queued sweeps, flushing the running sweep's journal\n");
    coordinator.stop();
    coordinator.join();
    if (cfg.getBool("verbose", false))
        util::MetricsRegistry::global().dump(std::cout);
    std::printf("fo4coord drained\n");
    return 0;
}

} // namespace

int
main(int argc, char **argv)
{
    return fo4::util::runTopLevel(argc, argv, kKeys,
                                  [&] { return coordMain(argc, argv); });
}
