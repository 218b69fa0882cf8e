/**
 * @file
 * perfbench: the repository benchmark's binary (README.md beside this
 * file).  perfbench/run.py builds it and runs one workload per process:
 *
 *   perfbench workload=<fig5_local|svc_mix|fleet_mc> seed=N seconds=S
 *             trace=<0|1> digests=PATH workdir=DIR [trace_out=PATH]
 *   perfbench setup workload=W workdir=DIR
 *   perfbench gen-digests out=PATH
 *
 * A workload run prints what it did, then the result JSON as its last
 * stdout line.  An untraced run first times kSetupReps fresh `setup`
 * processes for setup_s: each brings the workload up, prints "ready"
 * and tears it down.  gen-digests recomputes digests.txt on the
 * reference cores.
 */

#include <fcntl.h>
#include <spawn.h>
#include <sys/wait.h>
#include <unistd.h>

#include <cstdio>
#include <filesystem>
#include <fstream>

#include "catalogue.hh"
#include "perfbench.hh"
#include "util/config.hh"
#include "util/logging.hh"
#include "util/metrics.hh"
#include "util/status.hh"

extern char **environ;

using namespace fo4;

namespace
{

/** Process start-ups per run whose median (with any set-up the
 *  workload timed in process) is setup_s. */
constexpr int kSetupReps = 15;

const std::vector<util::KeyDoc> kKeys = {
    {"workload", "fig5_local, svc_mix or fleet_mc"},
    {"seed", "workload seed (svc_mix and fleet_mc draw their requests "
             "from it)"},
    {"seconds", "length of the timed part of the run"},
    {"trace", "1 = traced run: per-layer metrics instead of end-to-end"},
    {"digests", "the expected-digest table (digests.txt)"},
    {"workdir", "scratch directory, removed when the run ends"},
    {"trace_out", "where a traced run writes its Chrome trace"},
    {"out", "gen-digests: the table to write"},
};

using SetUp = void (*)(const std::string &, const std::function<void()> &);

SetUp
setUpOf(const std::string &workload)
{
    return workload == "fig5_local" ? perfbench::setUpFig5Local
           : workload == "svc_mix"  ? perfbench::setUpSvcMix
           : workload == "fleet_mc" ? perfbench::setUpFleetMc
                                    : nullptr;
}

/**
 * One setup_s sample: spawn this binary as `setup workload=... workdir=
 * dir` and time it from spawn until it prints "ready", then wait for it
 * to tear down and exit.
 */
double
timeProcessSetUp(const std::string &workload, const std::string &dir)
{
    const std::string self =
        std::filesystem::read_symlink("/proc/self/exe").string();
    std::vector<std::string> args = {self, "setup", "workload=" + workload,
                                     "workdir=" + dir};
    std::vector<char *> argv;
    for (auto &a : args)
        argv.push_back(a.data());
    argv.push_back(nullptr);

    int fds[2];
    if (pipe2(fds, O_CLOEXEC) != 0)
        throw util::ConfigError("pipe2 failed");
    posix_spawn_file_actions_t actions;
    posix_spawn_file_actions_init(&actions);
    posix_spawn_file_actions_adddup2(&actions, fds[1], STDOUT_FILENO);
    pid_t pid = 0;
    const double start = perfbench::nowSeconds();
    const int rc = posix_spawn(&pid, self.c_str(), &actions, nullptr,
                               argv.data(), environ);
    posix_spawn_file_actions_destroy(&actions);
    close(fds[1]);
    std::string line;
    char c = 0;
    while (rc == 0 && read(fds[0], &c, 1) == 1 && c != '\n')
        line += c;
    const double took = perfbench::nowSeconds() - start;
    close(fds[0]);
    int status = 0;
    if (rc == 0)
        waitpid(pid, &status, 0);
    if (rc != 0 || line != "ready" || !WIFEXITED(status) ||
        WEXITSTATUS(status) != 0) {
        throw util::ConfigError("the " + workload +
                                " set-up process did not come up");
    }
    return took;
}

int
generate(const util::Config &cfg)
{
    const std::string out = cfg.getString("out", "");
    if (out.empty())
        throw util::ConfigError("gen-digests needs out=PATH");
    const auto table = perfbench::generateDigests();
    std::ofstream file(out);
    file << table.render();
    if (!file.flush())
        throw util::ConfigError("cannot write " + out);
    std::printf("wrote %s\n", out.c_str());
    return 0;
}

int
run(int argc, char **argv)
{
    const util::Config cfg = util::Config::fromArgs(argc, argv);
    cfg.checkKnown(kKeys);
    const std::string mode =
        cfg.positional().empty() ? "" : cfg.positional()[0];
    if (mode == "gen-digests")
        return generate(cfg);

    const std::string workload = cfg.getString("workload", "");
    const SetUp setUp = setUpOf(workload);
    if (setUp == nullptr)
        throw util::ConfigError("unknown workload '" + workload + "'");
    perfbench::RunOptions options;
    options.workDir = cfg.getString("workdir", "");
    if (options.workDir.empty())
        throw util::ConfigError("need workdir=");
    util::setMetricsEnabled(false);

    if (mode == "setup") {
        setUp(options.workDir, [] {
            std::printf("ready\n");
            std::fflush(stdout);
        });
        return 0;
    }

    options.seed = static_cast<std::uint64_t>(cfg.getInt("seed", 0));
    options.seconds = cfg.getDouble("seconds", 0.0);
    options.traced = cfg.getBool("trace", false);
    options.traceOut = cfg.getString("trace_out", "");
    const std::string digests = cfg.getString("digests", "");
    if (digests.empty() || options.seconds <= 0)
        throw util::ConfigError("need digests= and seconds > 0");
    const auto runner = workload == "fig5_local" ? perfbench::runFig5Local
                        : workload == "svc_mix"  ? perfbench::runSvcMix
                                                 : perfbench::runFleetMc;

    perfbench::removeTree(options.workDir);
    struct Cleanup
    {
        std::string dir;
        ~Cleanup() { perfbench::removeTree(dir); }
    } cleanup{options.workDir};
    const perfbench::DigestTable table =
        perfbench::DigestTable::load(digests);
    std::vector<double> setup;
    if (!options.traced) {
        for (int i = 0; i < kSetupReps; ++i) {
            setup.push_back(timeProcessSetUp(
                workload,
                util::strprintf("%s/setup-%d", options.workDir.c_str(), i)));
        }
    }
    perfbench::RunResult result = runner(options, table);
    if (!options.traced) {
        setup.insert(setup.end(), result.setupSamples.begin(),
                     result.setupSamples.end());
        result.values["setup_s"] = perfbench::median(setup);
        std::printf("setup_s: median of %zu set-ups, %.3f ms (%.3f to "
                    "%.3f)\n",
                    setup.size(), result.values["setup_s"] * 1e3,
                    perfbench::quantile(setup, 0) * 1e3,
                    perfbench::quantile(setup, 1) * 1e3);
    }
    const std::string line =
        perfbench::renderResultLine(result, options.traced);
    std::printf("%s\n", line.c_str());
    return 0;
}

} // namespace

int
main(int argc, char **argv)
{
    return util::runTopLevel(argc, argv, kKeys,
                             [&] { return run(argc, argv); });
}
