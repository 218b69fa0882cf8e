#ifndef FO4_STUDY_GOLDENGEN_HH
#define FO4_STUDY_GOLDENGEN_HH

/**
 * @file
 * Capture recording and golden-test generation for the fo4trace CLI.
 *
 * recordCapture() runs a benchmark with a trace::Recorder teed between
 * the synthetic generator and the core, verifying the retired stream
 * against the capture as it goes, then publishes the capture atomically
 * with enough metadata to reconstruct the run.
 *
 * generateGoldenTest() turns a committed capture into a self-contained
 * gtest source: the suite row of a replay run (computed now, under the
 * reference implementation, at the paper's 6 FO4 optimum) is pinned as
 * a string — doubles in hexfloat, so the pin is exact — and the
 * generated tests assert both sim_impls still reproduce it, plus a
 * negative control proving a one-cycle core change breaks the pin.
 * Generation is byte-deterministic: regenerating from the same capture
 * yields identical files, which is what the generated-goldens CI job
 * diffs against the committed tree.
 */

#include <cstdint>
#include <string>
#include <vector>

#include "core/core.hh"
#include "study/runner.hh"
#include "trace/profile.hh"
#include "trace/recorded_trace.hh"

namespace fo4::study
{

/** What recordCapture() should record. */
struct CaptureRequest
{
    trace::BenchmarkProfile profile;
    core::CoreParams params;
    RunSpec spec;
    /**
     * Extra ops captured past the deepest fetch of the recording run,
     * so a replaying configuration with a hungrier front end still
     * finds recorded ops instead of wrapping early.
     */
    std::uint64_t margin = 4096;
};

/** What recordCapture() did. */
struct CaptureInfo
{
    std::uint64_t capturedOps = 0;
    std::uint64_t retiredOps = 0;
    core::SimResult sim;
};

/**
 * Records `request` to a capture file at `path` (atomically, via the
 * CaptureWriter tmp+rename protocol).  The retired stream is verified
 * op-for-op against the capture during the run; a divergence throws
 * TraceError(TraceCorrupt).
 */
CaptureInfo recordCapture(const std::string &path,
                          const CaptureRequest &request);

/** Parse a benchClassName() string back; throws ConfigError. */
trace::BenchClass benchClassFromName(const std::string &name);

/**
 * Reconstructs the RunSpec a capture was recorded under from its
 * metadata (model/predictor/instructions/warmup/prewarm); fields the
 * capture lacks keep RunSpec defaults.
 */
RunSpec specFromCaptureMeta(const trace::RecordedTrace &capture);

/** One generated golden test. */
struct GoldenTest
{
    std::string cmakeName; ///< e.g. "golden_164_gzip" (target name)
    std::string testName;  ///< e.g. "Golden164Gzip" (gtest suite)
    std::string fileName;  ///< e.g. "golden_164_gzip.cc"
    std::string source;    ///< full file contents
};

/**
 * Generates the golden test for one capture.  `captureFileName` is the
 * basename the generated test will open under FO4_CAPTURE_DIR at test
 * time; `capturePath` is where the capture lives right now (used to
 * compute the pinned row).
 */
GoldenTest generateGoldenTest(const std::string &capturePath,
                              const std::string &captureFileName);

/** CMake fragment registering `tests` into ctest (tests/generated/). */
std::string generateGoldenCmake(const std::vector<GoldenTest> &tests);

} // namespace fo4::study

#endif // FO4_STUDY_GOLDENGEN_HH
