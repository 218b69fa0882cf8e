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

#include <cstdio>
#include <fstream>
#include <map>

#include "study/checkpoint.hh"
#include "study/goldengen.hh"
#include "study/runner.hh"
#include "study/scaling.hh"
#include "trace/capture.hh"
#include "trace/recorded_trace.hh"
#include "trace/spec2000.hh"
#include "util/config.hh"
#include "util/status.hh"

namespace
{

const std::vector<fo4::util::KeyDoc> kKeys = {
    {"bench", "SPEC 2000 profile to record or run live"},
    {"out", "record: capture file; gen: output directory"},
    {"trace", "capture file to replay / inspect"},
    {"model", "core model: ooo | inorder"},
    {"predictor", "branch predictor (tournament, gshare, ...)"},
    {"instructions", "measured instructions"},
    {"warmup", "instructions simulated but discarded first"},
    {"prewarm", "instructions streamed through caches/predictor first"},
    {"margin", "record: extra ops captured past the deepest fetch"},
    {"impl", "sim implementation: reference | batched"},
    {"jobs", "worker threads for replay/live sweeps"},
    {"depths", "comma list of t_useful sweep points, FO4"},
    {"csv", "write the sweep's serialized suite rows here"},
    {"index", "query: first record to print"},
    {"count", "query: number of records to print"},
    {"captures", "gen: comma list of capture files"},
};

using namespace fo4;

std::vector<std::string>
splitCommaList(const std::string &text)
{
    std::vector<std::string> out;
    std::size_t start = 0;
    while (start <= text.size()) {
        const std::size_t comma = text.find(',', start);
        const std::string item =
            text.substr(start, comma == std::string::npos
                                   ? std::string::npos
                                   : comma - start);
        if (!item.empty())
            out.push_back(item);
        if (comma == std::string::npos)
            break;
        start = comma + 1;
    }
    return out;
}

std::vector<double>
parseDepths(const std::string &text)
{
    std::vector<double> out;
    for (const std::string &item : splitCommaList(text)) {
        try {
            out.push_back(std::stod(item));
        } catch (const std::exception &) {
            throw util::ConfigError(util::strprintf(
                "depths= entry '%s' is not a number", item.c_str()));
        }
    }
    if (out.empty())
        throw util::ConfigError("depths= names no sweep points");
    return out;
}

/** Spec shared by record and live; live must mirror record exactly. */
study::RunSpec
specFromArgs(const util::Config &cfg)
{
    study::RunSpec spec;
    spec.model = study::coreModelFromName(cfg.getString("model", "ooo"));
    spec.predictor = cfg.getString("predictor", spec.predictor);
    spec.instructions =
        cfg.getPositiveInt("instructions", spec.instructions);
    spec.warmup = cfg.getInt("warmup", spec.warmup);
    spec.prewarm = cfg.getInt("prewarm", spec.prewarm);
    return spec;
}

/**
 * The sweep both `replay` and `live` run: each depth scaled per the
 * paper, serialized with a depth marker line so the two CSVs line up.
 */
std::string
sweepSerialized(const std::vector<double> &depths,
                const std::vector<study::BenchJob> &jobs,
                const study::RunSpec &spec, int threads)
{
    study::CheckpointOptions options;
    options.threads = threads;
    const std::vector<study::SuiteResult> results =
        study::CheckpointedRunner(std::move(options))
            .runGrid(study::scalingGrid(depths, {}), jobs, spec);
    std::string out;
    for (std::size_t i = 0; i < results.size(); ++i) {
        out += util::strprintf("# t_useful=%g\n", depths[i]);
        out += study::serializeSuite(results[i]);
    }
    return out;
}

void
emitSweep(const util::Config &cfg, const std::string &serialized)
{
    const std::string csv = cfg.getString("csv", "");
    if (csv.empty()) {
        std::fputs(serialized.c_str(), stdout);
        return;
    }
    std::ofstream out(csv, std::ios::binary | std::ios::trunc);
    if (!out || !(out << serialized).flush()) {
        throw util::TraceError(
            util::ErrorCode::TraceIo,
            util::strprintf("cannot write sweep CSV '%s'", csv.c_str()));
    }
    std::printf("wrote %zu bytes to %s\n", serialized.size(),
                csv.c_str());
}

int
doRecord(const util::Config &cfg)
{
    study::CaptureRequest request;
    request.profile =
        trace::spec2000Profile(cfg.getString("bench", "164.gzip"));
    request.spec = specFromArgs(cfg);
    request.spec.impl = study::simImplFromName(
        cfg.getString("impl", "reference"));
    request.params = core::CoreParams::alpha21264();
    request.margin = cfg.getInt("margin", request.margin);
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
doReplay(const util::Config &cfg)
{
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
    emitSweep(cfg,
              sweepSerialized(parseDepths(cfg.getString("depths", "6,8")),
                              {job}, spec, cfg.getInt("jobs", 1)));
    return 0;
}

int
doLive(const util::Config &cfg)
{
    const trace::BenchmarkProfile profile =
        trace::spec2000Profile(cfg.getString("bench", "164.gzip"));
    study::RunSpec spec = specFromArgs(cfg);
    spec.impl =
        study::simImplFromName(cfg.getString("impl", "reference"));
    const study::BenchJob job = study::BenchJob::fromProfile(profile);
    emitSweep(cfg,
              sweepSerialized(parseDepths(cfg.getString("depths", "6,8")),
                              {job}, spec, cfg.getInt("jobs", 1)));
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
    const std::uint64_t index = cfg.getInt("index", 0);
    const std::uint64_t count = cfg.getPositiveInt("count", 8);
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
        splitCommaList(cfg.getString("captures", ""));
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
    const auto cfg = util::Config::fromArgs(argc, argv);
    cfg.checkKnown(kKeys);
    const std::string mode =
        cfg.positional().empty() ? "stats" : cfg.positional()[0];
    if (mode == "record")
        return doRecord(cfg);
    if (mode == "replay")
        return doReplay(cfg);
    if (mode == "live")
        return doLive(cfg);
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
