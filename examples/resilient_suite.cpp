/**
 * @file
 * Resilient-suite demo: run a benchmark suite in which two jobs are
 * deliberately broken — one replays a corrupted trace file, one hangs
 * and trips the simulation watchdog — and show that the remaining
 * benchmarks still complete and aggregate.  Every failure is reported
 * with its typed error code; the deadlock comes with the watchdog's
 * pipeline-state dump.
 *
 *   ./resilient_suite [instructions=40000] [dir=/tmp] [jobs=4]
 */

#include <cstdio>
#include <iostream>

#include "bench/common.hh"
#include "study/checkpoint.hh"
#include "study/runner.hh"
#include "study/scaling.hh"
#include "trace/capture.hh"
#include "trace/generator.hh"
#include "trace/spec2000.hh"
#include "util/config.hh"
#include "util/status.hh"

namespace
{

const std::vector<fo4::util::KeyDoc> kKeys = fo4::study::runKeys(
    {"instructions", "jobs"},
    fo4::bench::keyUnion(
        {{{"dir", "directory for the deliberately corrupted trace file"}},
         fo4::bench::observabilityKeys()}));
const fo4::study::RunSpec kDefaults{.instructions = 40000,
                                    .prewarm = 200000};

/**
 * Record a short capture, then overwrite one byte inside its op frame
 * — the kind of damage a bad disk or truncated copy produces.  The
 * frame fails its CRC, so replay refuses it with a typed TraceCorrupt.
 */
std::string
makeCorruptTrace(const std::string &dir)
{
    using namespace fo4;
    const std::string path = dir + "/resilient_suite_corrupt.fo4t";
    auto prof = trace::spec2000Profile("164.gzip");
    trace::SyntheticTraceGenerator gen(prof);
    trace::recordTrace(path, gen, 4096);

    std::FILE *f = std::fopen(path.c_str(), "rb+");
    if (!f) {
        throw util::TraceError(
            util::ErrorCode::TraceIo,
            "cannot reopen " + path + " for corruption");
    }
    // Capture layout: 32-byte header, a short 'M' frame, then the first
    // 'O' frame's records — this offset lands inside that frame.
    std::fseek(f, 16 + 32 * 100 + 30, SEEK_SET);
    std::fputc(0xEE, f);
    std::fclose(f);
    return path;
}

int
resilientSuite(int argc, char **argv)
{
    using namespace fo4;
    const study::RunArgs args(argc, argv, kKeys);
    const util::Config &cfg = args.config();
    const auto obs = bench::observabilityFromArgs(cfg);
    const auto spec = args.spec(kDefaults, 8); // warmup = instructions / 8

    const auto params = study::scaledCoreParams(6.0, {});
    const auto clock = study::scaledClock(6.0);

    // Four healthy benchmarks...
    std::vector<study::BenchJob> jobs;
    for (const char *name : {"176.gcc", "181.mcf", "197.parser",
                             "256.bzip2"}) {
        jobs.push_back(study::BenchJob::fromProfile(
            trace::spec2000Profile(name)));
    }

    // ...one replaying a trace file with a damaged record...
    const std::string dir = cfg.getString("dir", "/tmp");
    jobs.push_back(study::BenchJob::fromTraceFile(
        "corrupt-trace", trace::BenchClass::Integer,
        makeCorruptTrace(dir)));

    // ...and one that makes no forward progress within its cycle
    // budget, so the watchdog fires and captures the pipeline state.
    auto hung = study::BenchJob::fromProfile(
        trace::spec2000Profile("164.gzip"));
    hung.name = "hung-config";
    hung.cycleLimit = 10; // far below any real completion time
    jobs.push_back(hung);

    // Ctrl-C aborts the suite cooperatively (exit 130) instead of
    // killing the process mid-write.
    util::CancelToken cancel;
    util::installSigintCancel(cancel);

    // Fault isolation holds under parallel execution too: a deadlocked
    // or corrupt job fails alone no matter which worker ran it.  The
    // checkpointed runner (journalless here) threads the cancel token
    // down to every simulation's per-cycle check.
    study::CheckpointOptions copts = args.checkpointOptions();
    copts.cancel = &cancel;
    study::CheckpointedRunner runner(std::move(copts));
    std::printf("running %zu benchmarks (2 sabotaged on purpose) on %d "
                "worker thread(s)\n\n",
                jobs.size(), runner.threads());
    const auto suite =
        runner.runGrid({study::GridPoint{params, clock}}, jobs, spec)
            .front();
    study::printSuite(std::cout, suite);

    // The suite ran to the end; the broken jobs are data, not a crash.
    const auto failures = suite.failures();
    if (failures.size() != 2 ||
        suite.succeeded() != jobs.size() - failures.size()) {
        std::fprintf(stderr, "unexpected failure pattern\n");
        return 1;
    }
    std::printf("\nsuite survived both injected faults; %zu of %zu "
                "benchmarks aggregated\n",
                suite.succeeded(), suite.benchmarks.size());

    // stats=: the CSV carries the failed rows too, with their error
    // codes in the status column; trace=: timeline of a healthy job.
    if (obs.wantsStats()) {
        auto rows = std::vector<std::vector<std::string>>{
            fo4::bench::statsHeader("grid_point")};
        for (auto &row : fo4::bench::statsRows("6fo4", suite))
            rows.push_back(std::move(row));
        fo4::bench::writeStats(obs.statsPath, rows);
    }
    fo4::bench::maybeWriteTrace(obs, params, clock, jobs.front(), spec);
    fo4::bench::printLatencyCacheStats(cfg.getBool("verbose", false));
    fo4::bench::printMetricsRegistry(cfg.getBool("verbose", false));
    return 0;
}

} // namespace

int
main(int argc, char **argv)
{
    return fo4::util::runTopLevel(
        argc, argv, kKeys, [&] { return resilientSuite(argc, argv); });
}
