#include "study/goldengen.hh"

#include <memory>
#include <utility>

#include "study/scaling.hh"
#include "trace/generator.hh"
#include "trace/recorder.hh"
#include "util/logging.hh"
#include "util/status.hh"

namespace fo4::study
{

namespace
{

std::string
u64String(std::uint64_t v)
{
    return util::strprintf("%llu", static_cast<unsigned long long>(v));
}

std::uint64_t
metaU64(const trace::RecordedTrace &capture, const std::string &key,
        std::uint64_t fallback)
{
    const std::string text = capture.metaValue(key);
    if (text.empty())
        return fallback;
    try {
        return std::stoull(text);
    } catch (const std::exception &) {
        throw util::ConfigError(util::strprintf(
            "capture meta '%s' is not a number: '%s'", key.c_str(),
            text.c_str()));
    }
}

/** C++ enumerator spelling for a BenchClass, for generated sources. */
const char *
benchClassEnumerator(trace::BenchClass cls)
{
    switch (cls) {
      case trace::BenchClass::Integer:
        return "Integer";
      case trace::BenchClass::VectorFp:
        return "VectorFp";
      case trace::BenchClass::NonVectorFp:
        return "NonVectorFp";
    }
    return "Integer";
}

/** Escapes `text` for embedding inside a C string literal. */
std::string
escapeCString(const std::string &text)
{
    std::string out;
    out.reserve(text.size() + 16);
    for (const char c : text) {
        switch (c) {
          case '\\':
            out += "\\\\";
            break;
          case '"':
            out += "\\\"";
            break;
          case '\n':
            out += "\\n";
            break;
          default:
            out += c;
        }
    }
    return out;
}

/** "164.gzip.fo4cap" -> "164_gzip" (identifier-safe stem). */
std::string
sanitizedStem(const std::string &fileName)
{
    std::string stem = fileName;
    const std::string suffix = ".fo4cap";
    if (stem.size() > suffix.size() &&
        stem.compare(stem.size() - suffix.size(), suffix.size(),
                     suffix) == 0) {
        stem.resize(stem.size() - suffix.size());
    }
    std::string out;
    for (const char c : stem) {
        const bool alnum = (c >= 'a' && c <= 'z') ||
                           (c >= 'A' && c <= 'Z') ||
                           (c >= '0' && c <= '9');
        out += alnum ? c : '_';
    }
    if (out.empty() || (out[0] >= '0' && out[0] <= '9'))
        out.insert(out.begin(), 'g');
    return out;
}

/** "164_gzip" -> "164Gzip" (gtest suite fragment). */
std::string
camelCased(const std::string &stem)
{
    std::string out;
    bool upper = true;
    for (const char c : stem) {
        if (c == '_') {
            upper = true;
            continue;
        }
        out += upper && c >= 'a' && c <= 'z'
                   ? static_cast<char>(c - 'a' + 'A')
                   : c;
        upper = false;
    }
    return out;
}

/** The depth every golden pins: the paper's 6 FO4 optimum. */
constexpr double kGoldenDepth = 6.0;

/** Replay `path` the exact way a generated golden test does. */
std::string
runGoldenSuite(const std::string &path, const std::string &name,
               trace::BenchClass cls, RunSpec spec, SimImpl impl,
               int extraLoadUse)
{
    ScalingOptions options;
    options.extraLoadUse = extraLoadUse;
    const core::CoreParams params =
        scaledCoreParams(kGoldenDepth, options);
    const tech::ClockModel clock = scaledClock(kGoldenDepth);
    spec.impl = impl;
    const BenchJob job = BenchJob::fromTraceFile(name, cls, path);
    return serializeSuite(runSuite(params, clock, {job}, spec));
}

} // namespace

trace::BenchClass
benchClassFromName(const std::string &name)
{
    for (const trace::BenchClass cls :
         {trace::BenchClass::Integer, trace::BenchClass::VectorFp,
          trace::BenchClass::NonVectorFp}) {
        if (name == trace::benchClassName(cls))
            return cls;
    }
    throw util::ConfigError(util::strprintf(
        "unknown benchmark class '%s'", name.c_str()));
}

CaptureInfo
recordCapture(const std::string &path, const CaptureRequest &request)
{
    const util::Status specStatus = request.spec.validate();
    if (!specStatus.isOk())
        throw util::ConfigError(specStatus.message());
    const util::Status profileStatus = request.profile.validate();
    if (!profileStatus.isOk())
        throw util::ConfigError(profileStatus.message());

    trace::Recorder recorder(std::make_unique<trace::SyntheticTraceGenerator>(
        request.profile));
    std::unique_ptr<core::Core> core = makeCore(request.params, request.spec);
    core->setRetireSink(&recorder);

    CaptureInfo info;
    info.sim = core->run(recorder, request.spec.instructions,
                         request.spec.warmup, request.spec.prewarm,
                         request.spec.cycleLimit);
    core->setRetireSink(nullptr);
    recorder.pad(request.margin);

    trace::CaptureMeta meta;
    meta.emplace_back("benchmark", request.profile.name);
    meta.emplace_back("class",
                      trace::benchClassName(request.profile.cls));
    meta.emplace_back("model", coreModelName(request.spec.model));
    meta.emplace_back("predictor", request.spec.predictor);
    meta.emplace_back("instructions",
                      u64String(request.spec.instructions));
    meta.emplace_back("warmup", u64String(request.spec.warmup));
    meta.emplace_back("prewarm", u64String(request.spec.prewarm));
    meta.emplace_back("margin", u64String(request.margin));
    recorder.writeCapture(path, meta);

    info.capturedOps = recorder.captured().size();
    info.retiredOps = recorder.retiredOps();
    return info;
}

RunSpec
specFromCaptureMeta(const trace::RecordedTrace &capture)
{
    RunSpec spec;
    spec.model = coreModelFromName(capture.metaValue("model", "ooo"));
    spec.predictor = capture.metaValue("predictor", spec.predictor);
    spec.instructions =
        metaU64(capture, "instructions", spec.instructions);
    spec.warmup = metaU64(capture, "warmup", spec.warmup);
    spec.prewarm = metaU64(capture, "prewarm", spec.prewarm);
    return spec;
}

GoldenTest
generateGoldenTest(const std::string &capturePath,
                   const std::string &captureFileName)
{
    const trace::RecordedTrace capture(capturePath);
    const std::string stem = sanitizedStem(captureFileName);
    const std::string bench =
        capture.metaValue("benchmark", stem);
    const trace::BenchClass cls =
        benchClassFromName(capture.metaValue("class", "integer"));
    const RunSpec spec = specFromCaptureMeta(capture);

    const std::string pinned = runGoldenSuite(
        capturePath, bench, cls, spec, SimImpl::Reference, 0);
    // A golden of a failed row would pin the failure forever; refuse.
    if (pinned.find("|Ok|") == std::string::npos) {
        throw util::ConfigError(util::strprintf(
            "capture '%s' does not replay cleanly; refusing to pin: %s",
            capturePath.c_str(), pinned.c_str()));
    }

    GoldenTest test;
    test.cmakeName = "golden_" + stem;
    test.testName = "Golden" + camelCased(stem);
    test.fileName = test.cmakeName + ".cc";

    std::string src;
    src += "// " + test.fileName + " — generated by `fo4trace gen` from " +
           captureFileName + ".\n";
    src += "// Do not edit: regenerate with `fo4trace gen` (README, "
           "\"Golden update\n"
           "// policy\").  The pinned row is the serializeSuite output "
           "of replaying\n"
           "// the capture at the paper's 6 FO4 optimum under the "
           "reference\n"
           "// implementation; hexfloat keeps the pin bit-exact.\n\n";
    src += "#include <gtest/gtest.h>\n\n#include <string>\n\n";
    src += "#include \"study/runner.hh\"\n";
    src += "#include \"study/scaling.hh\"\n";
    src += "#include \"trace/profile.hh\"\n\n";
    src += "namespace\n{\n\nusing namespace fo4;\n\n";
    src += "const char kCapture[] = FO4_CAPTURE_DIR \"/" +
           captureFileName + "\";\n\n";
    src += "const char kPinned[] = \"" + escapeCString(pinned) +
           "\";\n\n";
    src += "std::string\nrunGolden(study::SimImpl impl, int "
           "extraLoadUse)\n{\n";
    src += "    study::ScalingOptions options;\n";
    src += "    options.extraLoadUse = extraLoadUse;\n";
    src += "    const core::CoreParams params =\n"
           "        study::scaledCoreParams(6.0, options);\n";
    src += "    const tech::ClockModel clock = "
           "study::scaledClock(6.0);\n\n";
    src += "    study::RunSpec spec;\n";
    src += util::strprintf(
        "    spec.model = study::CoreModel::%s;\n",
        spec.model == CoreModel::OutOfOrder ? "OutOfOrder" : "InOrder");
    src += "    spec.predictor = \"" + spec.predictor + "\";\n";
    src += "    spec.instructions = " + u64String(spec.instructions) +
           ";\n";
    src += "    spec.warmup = " + u64String(spec.warmup) + ";\n";
    src += "    spec.prewarm = " + u64String(spec.prewarm) + ";\n";
    src += "    spec.impl = impl;\n\n";
    src += "    const study::BenchJob job = "
           "study::BenchJob::fromTraceFile(\n";
    src += "        \"" + escapeCString(bench) +
           "\", trace::BenchClass::" +
           std::string(benchClassEnumerator(cls)) + ", kCapture);\n";
    src += "    return study::serializeSuite(\n"
           "        study::runSuite(params, clock, {job}, spec));\n}\n\n";
    src += "} // namespace\n\n";
    src += "TEST(" + test.testName + ", ReferenceImplMatchesPinnedRow)\n";
    src += "{\n    EXPECT_EQ(kPinned, "
           "runGolden(study::SimImpl::Reference, 0));\n}\n\n";
    src += "TEST(" + test.testName + ", BatchedImplMatchesPinnedRow)\n";
    src += "{\n    EXPECT_EQ(kPinned, "
           "runGolden(study::SimImpl::Batched, 0));\n}\n\n";
    src += "TEST(" + test.testName + ", NegativeControlOffByOneBreaksThePin)\n";
    src += "{\n    // One extra load-use cycle must perturb the pinned "
           "row — proof the\n    // golden is sensitive to a real core "
           "change.\n";
    src += "    EXPECT_NE(kPinned, "
           "runGolden(study::SimImpl::Reference, 1));\n";
    src += "    EXPECT_NE(kPinned, "
           "runGolden(study::SimImpl::Batched, 1));\n}\n";
    test.source = src;
    return test;
}

std::string
generateGoldenCmake(const std::vector<GoldenTest> &tests)
{
    std::string out;
    out += "# goldens.cmake — generated by `fo4trace gen`.  Do not "
           "edit; regenerate\n"
           "# from the captures in tests/data/ (README, \"Golden "
           "update policy\").\n";
    out += "include(GoogleTest)\n\n";
    out += "foreach(fo4_golden\n";
    for (const GoldenTest &test : tests)
        out += "    " + test.cmakeName + "\n";
    out += ")\n";
    out += "    add_executable(${fo4_golden}\n"
           "        \"${CMAKE_CURRENT_LIST_DIR}/${fo4_golden}.cc\")\n";
    out += "    target_link_libraries(${fo4_golden} PRIVATE fo4pipe\n"
           "        GTest::gtest GTest::gtest_main)\n";
    out += "    target_compile_definitions(${fo4_golden} PRIVATE\n"
           "        FO4_CAPTURE_DIR=\"${CMAKE_CURRENT_LIST_DIR}/"
           "../data\")\n";
    out += "    gtest_discover_tests(${fo4_golden} DISCOVERY_TIMEOUT "
           "60\n        PROPERTIES TIMEOUT 300)\nendforeach()\n";
    return out;
}

} // namespace fo4::study
