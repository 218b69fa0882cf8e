/**
 * @file
 * fo4ctl — command-line client of the sweep service.
 *
 *   ./fo4ctl submit  [host= port=] [sweep keys] [wait=1 out=file]
 *   ./fo4ctl poll    id=<n> [host= port=]
 *   ./fo4ctl fetch   id=<n> [out=file]
 *   ./fo4ctl cancel  id=<n>
 *   ./fo4ctl stats
 *   ./fo4ctl cache
 *   ./fo4ctl workers
 *   ./fo4ctl local   [sweep keys] [jobs=n] [out=file]
 *
 * Sweep keys: bench= (comma list of SPEC 2000 profile names), model=,
 * instructions=, warmup=, prewarm=, cycle_limit=, overhead=, t_useful=
 * (comma list of FO4 depths), tenant= (admission-quota accounting name;
 * deliberately NOT part of the result identity — see DESIGN.md §15).
 *
 * `cache` summarises the daemon's persistent result store: size on
 * disk, entry count, and lifetime hit rate (from the svc.cache.hit and
 * svc.cache.miss counters).  A daemon running without cache_dir=
 * reports an empty store and no traffic.
 *
 * `local` runs the identical request in-process through the same
 * svc::runSweep code path the daemon uses — `cmp` of a fetched result
 * against a local one is the service's byte-identity check (the CI
 * loopback smoke job does exactly that).  `workers` asks a coordinator
 * for its fleet roster.
 *
 * Exit codes follow sysexits where the failure is actionable: 75
 * (EX_TEMPFAIL) for an Overloaded refusal — retry later; 69
 * (EX_UNAVAILABLE) for NotReady; 66 (EX_NOINPUT) for NotFound; 74
 * (EX_IOERR) for transport failure after reconnect attempts; 76
 * (EX_PROTOCOL) for an untrustworthy frame; 130 for Ctrl-C; 1 for
 * everything else.  `timeout_ms=` bounds every round trip (values <= 0
 * are refused).
 */

#include <climits>
#include <cstdint>
#include <cstdio>
#include <optional>
#include <string>
#include <vector>

#include "study/run_keys.hh"
#include "svc/client.hh"
#include "svc/sweep.hh"
#include "util/cancel.hh"
#include "util/config.hh"
#include "util/frame.hh"
#include "util/status.hh"

namespace
{

using namespace fo4;

const std::vector<util::KeyDoc> kKeys = study::runKeys(
    {"jobs", "bench", "model", "instructions", "warmup", "prewarm",
     "cycle_limit", "overhead", "t_useful", "mc_samples", "mc_dist",
     "mc_sigma_latch", "mc_sigma_skew", "mc_sigma_jitter", "mc_sigma_die",
     "mc_seed"},
    {{"host", "daemon host (default 127.0.0.1)"},
     {"port", "daemon port (required for remote commands)"},
     {"timeout_ms", "per-round-trip deadline, milliseconds (> 0)"},
     {"id", "job id (poll / fetch / cancel)"},
     {"out", "write fetched result bytes to this file (default stdout)"},
     {"wait", "submit only: poll until terminal, then fetch"},
     {"tenant", "tenant name for per-tenant admission quotas"}});
const study::RunSpec kDefaults{.instructions = 40000, .prewarm = 200000};

/** The sweep keys as a wire request; jobs= applies to `local` only. */
svc::SweepRequest
requestFromArgs(const study::RunArgs &args)
{
    const auto spec = args.spec(kDefaults, 8); // warmup = instructions / 8
    const study::VariationModel mc = args.variation({.samples = 0});
    svc::SweepRequest request;
    request.model = study::coreModelName(spec.model);
    request.instructions = spec.instructions;
    request.warmup = spec.warmup;
    request.prewarm = spec.prewarm;
    request.cycleLimit = spec.cycleLimit;
    request.overheadFo4 = args.number("overhead", 1.8);
    request.tUseful = args.numbers("t_useful", {8, 6});
    for (const auto &profile : args.profiles("164.gzip,181.mcf")) {
        svc::WireJob job;
        job.name = profile.name; // class resolved server-side
        request.jobs.push_back(std::move(job));
    }
    request.tenant = args.config().getString("tenant", "");
    request.mcSamples = static_cast<std::uint64_t>(mc.samples);
    request.mcDist = study::mcDistName(mc.dist);
    request.mcSigmaLatch = mc.sigmaLatch;
    request.mcSigmaSkew = mc.sigmaSkew;
    request.mcSigmaJitter = mc.sigmaJitter;
    request.mcSigmaDie = mc.sigmaDie;
    request.mcSeed = mc.seed;
    return request;
}

void
writeResults(const fo4::util::Config &cfg, const std::string &bytes)
{
    const std::string out = cfg.getString("out", "");
    if (out.empty()) {
        std::fwrite(bytes.data(), 1, bytes.size(), stdout);
        return;
    }
    if (const auto st = fo4::util::writeWholeFile(out, bytes); !st.isOk())
        throw fo4::util::JournalError(st.code(), st.message());
    // stderr: out= may name the result stream itself (/dev/stdout).
    std::fprintf(stderr, "wrote %zu bytes to %s\n", bytes.size(),
                 out.c_str());
}

void
printStatus(const fo4::svc::JobStatusInfo &info)
{
    std::printf("job %llu: %s",
                static_cast<unsigned long long>(info.id),
                fo4::svc::jobStateName(info.state));
    if (info.state == fo4::svc::JobState::Queued) {
        std::printf(" (position %llu)",
                    static_cast<unsigned long long>(info.queuePosition));
    }
    std::printf(" — %llu/%llu cells started",
                static_cast<unsigned long long>(info.cellsStarted),
                static_cast<unsigned long long>(info.cellsTotal));
    if (info.state == fo4::svc::JobState::Failed) {
        std::printf(" [%s] %s",
                    fo4::util::errorCodeName(info.errorCode),
                    info.errorMessage.c_str());
    }
    std::printf("\n");
}

std::uint64_t
requiredId(const fo4::util::Config &cfg)
{
    if (!cfg.has("id"))
        throw fo4::util::ConfigError("this command needs id=<job id>");
    return static_cast<std::uint64_t>(cfg.getPositiveInt("id", 0));
}

fo4::svc::Client
connectFromConfig(const fo4::util::Config &cfg)
{
    const std::string host = cfg.getString("host", "127.0.0.1");
    if (!cfg.has("port")) {
        throw fo4::util::ConfigError(
            "remote commands need port=<daemon port> (fo4d prints it "
            "on startup)");
    }
    const auto port =
        static_cast<std::uint16_t>(cfg.getIntIn("port", 0, 1, UINT16_MAX));
    fo4::svc::Client::Options options;
    // getPositiveInt refuses timeout_ms=0 and negatives outright — a
    // zero deadline would mean "fail instantly", never what's wanted.
    if (cfg.has("timeout_ms")) {
        const auto t =
            static_cast<int>(cfg.getIntIn("timeout_ms", 0, 1, INT_MAX));
        options.ioTimeoutMs = t;
        options.connectTimeoutMs = t;
    }
    return fo4::svc::Client(host, port, options);
}

/** sysexits-style mapping of the remote/transport verdicts a script
 *  wants to branch on; anything unmapped keeps runTopLevel's generic
 *  exit 1. */
std::optional<int>
exitCodeFor(fo4::util::ErrorCode code)
{
    using fo4::util::ErrorCode;
    switch (code) {
    case ErrorCode::Overloaded:
        return 75; // EX_TEMPFAIL: queue full, retry later
    case ErrorCode::NotReady:
        return 69; // EX_UNAVAILABLE: job still running
    case ErrorCode::NotFound:
        return 66; // EX_NOINPUT: no such job / worker
    case ErrorCode::NetIo:
        return 74; // EX_IOERR: transport failed even after reconnects
    case ErrorCode::Protocol:
        return 76; // EX_PROTOCOL: untrustworthy frame
    default:
        return std::nullopt;
    }
}

int remoteMain(const study::RunArgs &args, const std::string &command);

int
ctlMain(int argc, char **argv)
{
    const study::RunArgs args(argc, argv, kKeys);
    const util::Config &cfg = args.config();
    if (cfg.positional().empty()) {
        throw util::ConfigError(
            "usage: fo4ctl <submit|poll|fetch|cancel|stats|cache"
            "|workers|local> [key=value ...] (--help lists the keys)");
    }
    const std::string command = cfg.positional().front();

    if (command == "local") {
        // The daemon's exact execution path, in-process: encode/decode
        // the request first so local results prove the *wire* form of
        // the sweep is what the daemon would run.
        const svc::SweepRequest request =
            svc::SweepRequest::decode(requestFromArgs(args).encode());
        util::CancelToken cancel;
        util::installSigintCancel(cancel);
        const svc::SweepPlan plan = svc::planSweep(request);
        writeResults(cfg, svc::runSweep(plan, args.jobs(), "", &cancel, {}));
        return 0;
    }

    if (command != "submit" && command != "poll" && command != "fetch" &&
        command != "cancel" && command != "stats" &&
        command != "cache" && command != "workers") {
        throw util::ConfigError("unknown command '" + command +
                                "' (want submit, poll, fetch, cancel, "
                                "stats, cache, workers or local)");
    }
    try {
        return remoteMain(args, command);
    } catch (const util::SvcError &e) {
        if (const auto code = exitCodeFor(e.code())) {
            std::fprintf(stderr, "error [%s]: %s\n",
                         util::errorCodeName(e.code()), e.what());
            return *code;
        }
        throw; // runTopLevel prints it and exits 1
    }
}

int
remoteMain(const study::RunArgs &args, const std::string &command)
{
    const util::Config &cfg = args.config();
    svc::Client client = connectFromConfig(cfg);
    if (command == "submit") {
        const auto [id, cells] = client.submit(requestFromArgs(args));
        std::printf("submitted job %llu (%llu grid cells)\n",
                    static_cast<unsigned long long>(id),
                    static_cast<unsigned long long>(cells));
        if (cfg.getBool("wait", false)) {
            client.waitUntilDone(id, 200, printStatus);
            writeResults(cfg, client.fetchResults(id));
        }
        return 0;
    }
    if (command == "poll") {
        printStatus(client.poll(requiredId(cfg)));
        return 0;
    }
    if (command == "fetch") {
        writeResults(cfg, client.fetchResults(requiredId(cfg)));
        return 0;
    }
    if (command == "cancel") {
        printStatus(client.cancel(requiredId(cfg)));
        return 0;
    }
    if (command == "workers") {
        const auto fleet = client.workers();
        if (fleet.empty()) {
            std::printf("no workers registered\n");
            return 0;
        }
        std::printf("%-6s %-20s %-8s %-7s %-10s %s\n", "id", "name",
                    "state", "leases", "completed", "last-seen");
        for (const auto &w : fleet) {
            std::printf("%-6llu %-20s %-8s %-7llu %-10llu %llums ago\n",
                        static_cast<unsigned long long>(w.id),
                        w.name.c_str(), svc::workerStateName(w.state),
                        static_cast<unsigned long long>(w.activeLeases),
                        static_cast<unsigned long long>(
                            w.cellsCompleted),
                        static_cast<unsigned long long>(
                            w.heartbeatAgeMs));
        }
        return 0;
    }
    if (command == "stats") {
        const svc::StatsSnapshot s = client.stats();
        std::printf("queue: %llu/%llu queued, %llu running "
                    "(%llu/%llu cells started)\n",
                    static_cast<unsigned long long>(s.queueDepth),
                    static_cast<unsigned long long>(s.maxQueue),
                    static_cast<unsigned long long>(s.runningJobs),
                    static_cast<unsigned long long>(
                        s.runningCellsStarted),
                    static_cast<unsigned long long>(
                        s.runningCellsTotal));
        std::printf("lifetime: %llu submitted, %llu rejected, "
                    "%llu completed, %llu failed, %llu cancelled\n",
                    static_cast<unsigned long long>(s.submitted),
                    static_cast<unsigned long long>(s.rejected),
                    static_cast<unsigned long long>(s.completed),
                    static_cast<unsigned long long>(s.failed),
                    static_cast<unsigned long long>(s.cancelled));
        std::printf("sweep latency: %llu samples, mean log2-bucket "
                    "%.2f\n",
                    static_cast<unsigned long long>(s.latencySamples),
                    s.latencyMeanMs);
        std::printf("cache: %llu bytes in %llu entries\n",
                    static_cast<unsigned long long>(s.cacheBytes),
                    static_cast<unsigned long long>(s.cacheEntries));
        // The counter dump covers svc.cache.* (hit/miss/evict/corrupt/
        // disk_error/dedup), svc.shed.* and the per-tenant
        // svc.tenant.<name>.{submitted,rejected} accounting.
        for (const auto &[name, value] : s.counters) {
            std::printf("  %-32s %llu\n", name.c_str(),
                        static_cast<unsigned long long>(value));
        }
        return 0;
    }
    if (command == "cache") {
        const svc::StatsSnapshot s = client.stats();
        std::uint64_t hits = 0, misses = 0;
        for (const auto &[name, value] : s.counters) {
            if (name == "svc.cache.hit")
                hits = value;
            else if (name == "svc.cache.miss")
                misses = value;
        }
        std::printf("store: %llu bytes in %llu entries\n",
                    static_cast<unsigned long long>(s.cacheBytes),
                    static_cast<unsigned long long>(s.cacheEntries));
        const std::uint64_t lookups = hits + misses;
        if (lookups == 0) {
            std::printf("hit rate: no lookups yet\n");
        } else {
            std::printf("hit rate: %.1f%% (%llu hits / %llu lookups)\n",
                        100.0 * static_cast<double>(hits) /
                            static_cast<double>(lookups),
                        static_cast<unsigned long long>(hits),
                        static_cast<unsigned long long>(lookups));
        }
        return 0;
    }
    throw util::ConfigError("unknown command '" + command +
                            "' (want submit, poll, fetch, cancel, "
                            "stats, cache, workers or local)");
}

} // namespace

int
main(int argc, char **argv)
{
    return fo4::util::runTopLevel(argc, argv, kKeys,
                                  [&] { return ctlMain(argc, argv); });
}
