/**
 * @file
 * fo4trace: capture, replay and inspect retired-instruction streams,
 * and generate golden regression tests from captures (DESIGN.md §16).
 *
 *   ./fo4trace record bench=164.gzip out=/tmp/gzip.fo4cap
 *   ./fo4trace replay trace=/tmp/gzip.fo4cap depths=6,8 csv=/tmp/replay.txt
 *   ./fo4trace live   bench=164.gzip depths=6,8 csv=/tmp/live.txt
 *   ./fo4trace stats  trace=/tmp/gzip.fo4cap
 *   ./fo4trace query  trace=/tmp/gzip.fo4cap index=0 count=8
 *   ./fo4trace gen    captures=tests/data/gzip.fo4cap out=tests/generated
 *
 * `record` runs a benchmark with a trace::Recorder teed into the core's
 * retire stage (verifying capture == retired stream op-for-op) and
 * publishes the capture atomically with its run metadata.  `replay`
 * sweeps the capture across pipeline depths using the spec stored in
 * the capture; `live` runs the identical sweep from the synthetic
 * profile — the two CSVs are byte-identical (the record/replay CI job
 * cmp's them at jobs=1/8 under both sim_impls).  `gen` emits pinned
 * golden tests plus the CMake fragment that registers them in ctest.
 */

#include <cstdint>
#include <cstdio>
#include <fstream>
#include <map>

#include "study/checkpoint.hh"
#include "study/goldengen.hh"
#include "study/run_keys.hh"
#include "study/runner.hh"
#include "study/scaling.hh"
#include "trace/capture.hh"
#include "trace/recorded_trace.hh"
#include "trace/spec2000.hh"
#include "util/config.hh"
#include "util/frame.hh"
#include "util/status.hh"

namespace
{

using namespace fo4;

const std::vector<util::KeyDoc> kKeys = study::runKeys(
    {"bench", "model", "predictor", "instructions", "warmup", "prewarm",
     "jobs", "depths"},
    {{"out", "record: capture file; gen: output directory"},
     {"trace", "capture file to replay / inspect"},
     {"margin", "record: extra ops captured past the deepest fetch"},
     {"impl", "sim implementation: reference | batched"},
     {"csv", "write the sweep's serialized suite rows here"},
     {"index", "query: first record to print"},
     {"count", "query: number of records to print"},
     {"captures", "gen: comma list of capture files"}});

/** Spec shared by record and live; live must mirror record exactly. */
study::RunSpec
liveSpec(const study::RunArgs &args)
{
    study::RunSpec spec = args.spec({});
    spec.impl = study::simImplFromName(
        args.config().getString("impl", "reference"));
    return spec;
}

/**
 * The sweep both `replay` and `live` run: each depth scaled per the
 * paper, serialized with a depth marker line so the two CSVs line up.
 */
void
emitSweep(const study::RunArgs &args, const study::BenchJob &job,
          const study::RunSpec &spec)
{
    const std::vector<double> depths = args.numbers("depths", {6, 8});
    const std::vector<study::SuiteResult> results =
        study::CheckpointedRunner(args.checkpointOptions())
            .runGrid(study::scalingGrid(depths, {}), {job}, spec);
    std::string serialized;
    for (std::size_t i = 0; i < results.size(); ++i) {
        serialized += util::strprintf("# t_useful=%g\n", depths[i]);
        serialized += study::serializeSuite(results[i]);
    }
    const std::string csv = args.config().getString("csv", "");
    if (csv.empty()) {
        std::fputs(serialized.c_str(), stdout);
        return;
    }
    if (const auto st = util::writeWholeFile(csv, serialized); !st.isOk())
        throw util::JournalError(st.code(), st.message());
    // stderr: csv= may name the result stream itself (/dev/stdout).
    std::fprintf(stderr, "wrote %zu bytes to %s\n", serialized.size(),
                 csv.c_str());
}

int
doRecord(const study::RunArgs &args)
{
    const util::Config &cfg = args.config();
    study::CaptureRequest request;
    request.profile = args.profile("164.gzip");
    request.spec = liveSpec(args);
    request.params = core::CoreParams::alpha21264();
    request.margin = static_cast<std::uint64_t>(cfg.getIntIn(
        "margin", static_cast<std::int64_t>(request.margin), 0, INT64_MAX));
    const std::string out = cfg.getString("out", "/tmp/fo4pipe.fo4cap");

    const study::CaptureInfo info = study::recordCapture(out, request);
    std::printf("recorded %s: %llu ops captured (%llu retired, "
                "margin %llu) -> %s\n",
                request.profile.name.c_str(),
                static_cast<unsigned long long>(info.capturedOps),
                static_cast<unsigned long long>(info.retiredOps),
                static_cast<unsigned long long>(request.margin),
                out.c_str());
    return 0;
}

int
doReplay(const study::RunArgs &args)
{
    const util::Config &cfg = args.config();
    const std::string path = cfg.getString("trace", "");
    if (path.empty())
        throw util::ConfigError("replay needs trace=<capture>");
    const trace::RecordedTrace capture(path);
    study::RunSpec spec = study::specFromCaptureMeta(capture);
    spec.impl =
        study::simImplFromName(cfg.getString("impl", "reference"));
    const study::BenchJob job = study::BenchJob::fromTraceFile(
        capture.metaValue("benchmark", path),
        study::benchClassFromName(capture.metaValue("class", "integer")),
        path);
    emitSweep(args, job, spec);
    return 0;
}

int
doLive(const study::RunArgs &args)
{
    emitSweep(args, study::BenchJob::fromProfile(args.profile("164.gzip")),
              liveSpec(args));
    return 0;
}

int
doStats(const util::Config &cfg)
{
    const std::string path = cfg.getString("trace", "");
    if (path.empty())
        throw util::ConfigError("stats needs trace=<capture>");
    // readCapture (not RecordedTrace): stats must salvage torn files.
    const trace::CaptureContents contents = trace::readCapture(path);
    std::printf("%s: capture v%u, %zu records, %s\n", path.c_str(),
                trace::kCaptureVersion, contents.ops.size(),
                contents.finalized
                    ? "finalized"
                    : (contents.tornTail ? "TORN TAIL (unfinalized)"
                                         : "UNFINALIZED"));
    for (const auto &[key, value] : contents.meta)
        std::printf("  meta %-12s %s\n", key.c_str(), value.c_str());

    std::map<isa::OpClass, std::uint64_t> mix;
    std::uint64_t branches = 0, taken = 0;
    for (const isa::MicroOp &op : contents.ops) {
        ++mix[op.cls];
        if (op.isBranch()) {
            ++branches;
            taken += op.taken;
        }
    }
    for (const auto &[cls, count] : mix)
        std::printf("  %-7s %8llu (%.1f%%)\n", isa::opClassName(cls),
                    static_cast<unsigned long long>(count),
                    100.0 * static_cast<double>(count) /
                        static_cast<double>(contents.ops.size()));
    if (branches)
        std::printf("  taken-branch fraction: %.1f%%\n",
                    100.0 * static_cast<double>(taken) /
                        static_cast<double>(branches));
    return contents.finalized ? 0 : 1;
}

int
doQuery(const util::Config &cfg)
{
    const std::string path = cfg.getString("trace", "");
    if (path.empty())
        throw util::ConfigError("query needs trace=<capture>");
    trace::RecordedTrace capture(path);
    const auto index =
        static_cast<std::uint64_t>(cfg.getIntIn("index", 0, 0, INT64_MAX));
    const auto count =
        static_cast<std::uint64_t>(cfg.getPositiveInt("count", 8));
    if (index >= capture.recordedInstructions()) {
        throw util::ConfigError(util::strprintf(
            "index %llu past the %zu recorded instructions",
            static_cast<unsigned long long>(index),
            capture.recordedInstructions()));
    }
    for (std::uint64_t i = 0; i < index; ++i)
        capture.next();
    const std::uint64_t last = std::min<std::uint64_t>(
        index + count, capture.recordedInstructions());
    for (std::uint64_t i = index; i < last; ++i)
        std::printf("%8llu  %s\n", static_cast<unsigned long long>(i),
                    capture.next().toString().c_str());
    return 0;
}

int
doGen(const util::Config &cfg)
{
    const std::vector<std::string> captures =
        study::splitList(cfg.getString("captures", ""));
    if (captures.empty())
        throw util::ConfigError("gen needs captures=<a.fo4cap,...>");
    const std::string outDir = cfg.getString("out", "tests/generated");

    std::vector<study::GoldenTest> tests;
    for (const std::string &path : captures) {
        const std::size_t slash = path.find_last_of('/');
        const std::string base =
            slash == std::string::npos ? path : path.substr(slash + 1);
        tests.push_back(study::generateGoldenTest(path, base));
    }

    const auto writeFile = [&outDir](const std::string &name,
                                     const std::string &text) {
        const std::string full = outDir + "/" + name;
        std::ofstream out(full, std::ios::binary | std::ios::trunc);
        if (!out || !(out << text).flush()) {
            throw util::TraceError(
                util::ErrorCode::TraceIo,
                util::strprintf("cannot write '%s'", full.c_str()));
        }
        std::printf("wrote %s (%zu bytes)\n", full.c_str(), text.size());
    };
    for (const study::GoldenTest &test : tests)
        writeFile(test.fileName, test.source);
    writeFile("goldens.cmake", study::generateGoldenCmake(tests));
    std::printf("generated %zu golden tests\n", tests.size());
    return 0;
}

int
fo4trace(int argc, char **argv)
{
    const study::RunArgs args(argc, argv, kKeys);
    const util::Config &cfg = args.config();
    const std::string mode =
        cfg.positional().empty() ? "stats" : cfg.positional()[0];
    if (mode == "record")
        return doRecord(args);
    if (mode == "replay")
        return doReplay(args);
    if (mode == "live")
        return doLive(args);
    if (mode == "stats")
        return doStats(cfg);
    if (mode == "query")
        return doQuery(cfg);
    if (mode == "gen")
        return doGen(cfg);
    throw util::ConfigError(util::strprintf(
        "unknown mode '%s' (use record|replay|live|stats|query|gen)",
        mode.c_str()));
}

} // namespace

int
main(int argc, char **argv)
{
    return fo4::util::runTopLevel(argc, argv, kKeys,
                                  [&] { return fo4trace(argc, argv); });
}
