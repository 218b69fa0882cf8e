/**
 * @file
 * The golden-test generator (study/goldengen.hh) end to end: generated
 * sources are byte-deterministic, their pinned rows match an
 * independent replay, the negative control really is sensitive to a
 * one-cycle core change, and the goldens committed under
 * tests/generated/ are exactly what regenerating from the committed
 * captures produces (the same check the generated-goldens CI job runs
 * as a directory diff).
 */

#include <gtest/gtest.h>

#include <cstdio>
#include <fstream>
#include <string>
#include <vector>

#include "study/goldengen.hh"
#include "study/runner.hh"
#include "study/scaling.hh"
#include "trace/recorded_trace.hh"
#include "trace/spec2000.hh"
#include "util/status.hh"

using namespace fo4;

namespace
{

/** The committed fixtures; regenerate with `fo4trace gen` (README). */
const char *const kCommittedCaptures[] = {
    "164.gzip.fo4cap",
    "171.swim.fo4cap",
    "176.gcc.fo4cap",
};

std::string
sourceDir()
{
    return FO4_SOURCE_DIR;
}

std::string
readFileOrEmpty(const std::string &path)
{
    std::ifstream f(path, std::ios::binary);
    if (!f.good())
        return "";
    return std::string(std::istreambuf_iterator<char>(f), {});
}

/** Records a small capture for generator unit tests. */
std::string
recordSmallCapture(const std::string &fileName)
{
    const std::string path =
        std::string(::testing::TempDir()) + "/" + fileName;
    study::CaptureRequest request;
    request.profile = trace::spec2000Profile("164.gzip");
    request.params = core::CoreParams::alpha21264();
    request.spec.instructions = 250;
    request.spec.warmup = 50;
    request.spec.prewarm = 400;
    request.spec.cycleLimit = 2000000;
    request.margin = 256;
    study::recordCapture(path, request);
    return path;
}

/** Replays a capture the way the generator pins it: reference impl,
 *  6 FO4, spec reconstructed from the capture's own metadata. */
std::string
independentPinnedRow(const std::string &capturePath, int extraLoadUse)
{
    const trace::RecordedTrace capture(capturePath);
    study::ScalingOptions options;
    options.extraLoadUse = extraLoadUse;
    const auto params = study::scaledCoreParams(6.0, options);
    const auto clock = study::scaledClock(6.0);
    study::RunSpec spec = study::specFromCaptureMeta(capture);
    spec.impl = study::SimImpl::Reference;
    const auto job = study::BenchJob::fromTraceFile(
        capture.metaValue("benchmark"),
        study::benchClassFromName(capture.metaValue("class", "integer")),
        capturePath);
    return study::serializeSuite(
        study::runSuite(params, clock, {job}, spec));
}

/** First line of a serialized suite — quote- and backslash-free, so it
 *  appears verbatim inside the generated source's pinned literal. */
std::string
firstLine(const std::string &text)
{
    const auto nl = text.find('\n');
    return nl == std::string::npos ? text : text.substr(0, nl);
}

} // namespace

TEST(TraceGen, GenerationIsByteDeterministic)
{
    const auto path = recordSmallCapture("gen_deterministic.fo4cap");
    const auto once =
        study::generateGoldenTest(path, "gen_deterministic.fo4cap");
    const auto twice =
        study::generateGoldenTest(path, "gen_deterministic.fo4cap");
    EXPECT_EQ(once.source, twice.source)
        << "regeneration must be byte-identical for the CI diff job";
    EXPECT_EQ(once.cmakeName, twice.cmakeName);
    EXPECT_EQ(study::generateGoldenCmake({once}),
              study::generateGoldenCmake({twice}));
    std::remove(path.c_str());
}

TEST(TraceGen, NamesAreSanitizedIdentifiers)
{
    const auto path = recordSmallCapture("gen_names.fo4cap");
    // A digit-leading benchmark stem must still yield legal C++ and
    // CMake identifiers.
    const auto test = study::generateGoldenTest(path, "164.gzip.fo4cap");
    EXPECT_EQ(test.cmakeName, "golden_g164_gzip");
    EXPECT_EQ(test.testName, "GoldenG164Gzip");
    EXPECT_EQ(test.fileName, "golden_g164_gzip.cc");

    const auto cmake = study::generateGoldenCmake({test});
    EXPECT_NE(cmake.find("golden_g164_gzip"), std::string::npos) << cmake;
    EXPECT_NE(cmake.find("FO4_CAPTURE_DIR"), std::string::npos) << cmake;
    std::remove(path.c_str());
}

TEST(TraceGen, PinnedRowMatchesAnIndependentReplay)
{
    const auto path = recordSmallCapture("gen_pin.fo4cap");
    const auto test = study::generateGoldenTest(path, "gen_pin.fo4cap");

    const auto row = independentPinnedRow(path, 0);
    ASSERT_NE(row.find("|Ok|"), std::string::npos) << row;
    const auto line = firstLine(row);
    ASSERT_FALSE(line.empty());
    EXPECT_NE(test.source.find(line), std::string::npos)
        << "generated source must embed the replayed row\nrow:  " << line
        << "\nsource:\n"
        << test.source;

    // The generated file must carry all three assertions.
    for (const char *name :
         {"ReferenceImplMatchesPinnedRow", "BatchedImplMatchesPinnedRow",
          "NegativeControlOffByOneBreaksThePin"}) {
        EXPECT_NE(test.source.find(name), std::string::npos) << name;
    }
    std::remove(path.c_str());
}

TEST(TraceGen, NegativeControlIsSensitiveAtGenTime)
{
    // The generated negative control asserts a one-cycle load-use bump
    // breaks the pin; prove that holds for the row we would pin, so a
    // generated golden can never be born vacuous.
    const auto path = recordSmallCapture("gen_control.fo4cap");
    const auto pinned = independentPinnedRow(path, 0);
    const auto bumped = independentPinnedRow(path, 1);
    EXPECT_NE(pinned, bumped);
    std::remove(path.c_str());
}

TEST(TraceGen, CommittedGoldensAreFreshAndComplete)
{
    // Regenerating from the committed captures must reproduce the
    // committed tests/generated/ files byte for byte — the in-tree
    // version of the CI `diff -r` job, so a stale golden fails close to
    // home.  This also re-runs each capture's pinned replay, proving
    // every committed capture still replays cleanly.
    const std::string dataDir = sourceDir() + "/tests/data";
    const std::string genDir = sourceDir() + "/tests/generated";

    std::vector<study::GoldenTest> tests;
    for (const char *name : kCommittedCaptures) {
        const std::string capture = dataDir + "/" + name;
        ASSERT_FALSE(readFileOrEmpty(capture).empty())
            << "missing committed capture " << capture;
        tests.push_back(study::generateGoldenTest(capture, name));
        const auto &test = tests.back();
        const auto committed = readFileOrEmpty(genDir + "/" + test.fileName);
        EXPECT_EQ(committed, test.source)
            << test.fileName
            << " is stale: regenerate with `fo4trace gen` (README, "
               "\"Golden update policy\")";
    }

    const auto committedCmake = readFileOrEmpty(genDir + "/goldens.cmake");
    EXPECT_EQ(committedCmake, study::generateGoldenCmake(tests))
        << "goldens.cmake is stale: regenerate with `fo4trace gen`";
    for (const auto &test : tests)
        EXPECT_NE(committedCmake.find(test.cmakeName), std::string::npos)
            << "goldens.cmake does not register " << test.cmakeName;
}
