/**
 * @file
 * Fault-injection harness: feed the simulator deliberately damaged
 * trace files and invalid configurations and assert that every fault
 * surfaces as the right typed error — never a crash, a hang, or a
 * silently wrong answer.  Also exercises the simulation watchdogs and
 * the suite-level fault isolation they enable.
 */

#include <gtest/gtest.h>

#include <cstdio>
#include <cstring>
#include <fstream>
#include <sstream>
#include <string>
#include <vector>

#include "core/core.hh"
#include "study/checkpoint.hh"
#include "study/runner.hh"
#include "study/scaling.hh"
#include "trace/capture.hh"
#include "trace/generator.hh"
#include "trace/recorded_trace.hh"
#include "trace/spec2000.hh"
#include "util/frame.hh"
#include "util/random.hh"
#include "util/status.hh"

using namespace fo4;
using util::ErrorCode;

namespace
{

/** Temporary file path scoped to a test. */
class TempFile
{
  public:
    explicit TempFile(const std::string &name)
        : path_(std::string(::testing::TempDir()) + "/" + name)
    {
    }

    ~TempFile() { std::remove(path_.c_str()); }

    const std::string &path() const { return path_; }

  private:
    std::string path_;
};

std::vector<char>
readFile(const std::string &path)
{
    std::ifstream in(path, std::ios::binary);
    return std::vector<char>(std::istreambuf_iterator<char>(in),
                             std::istreambuf_iterator<char>());
}

void
writeFile(const std::string &path, const std::vector<char> &bytes)
{
    std::ofstream out(path, std::ios::binary | std::ios::trunc);
    out.write(bytes.data(), static_cast<std::streamsize>(bytes.size()));
}

/** Record a small healthy capture and return its raw bytes. */
std::vector<char>
healthyTraceBytes(const std::string &path, std::uint64_t count = 256)
{
    auto prof = trace::spec2000Profile("164.gzip");
    trace::SyntheticTraceGenerator gen(prof);
    trace::recordTrace(path, gen, count);
    return readFile(path);
}

/**
 * Capture layout of healthyTraceBytes(): the 32-byte header, an empty
 * 'M' frame (8 + 1 bytes), then one 'O' frame whose packed 32-byte
 * records start after its 8-byte head and kind byte.
 */
constexpr std::size_t kOpFrame = 32 + 9;
constexpr std::size_t kRecords = kOpFrame + 8 + 1;

/** Re-seal the 'O' frame's CRC so a record edit reaches the record
 *  range checks instead of stopping at the frame CRC. */
void
resealOpFrame(std::vector<char> &bytes, std::size_t records)
{
    const std::size_t payload = 1 + records * 32;
    unsigned char crc[4];
    util::putU32(crc, util::crc32(bytes.data() + kOpFrame + 8, payload));
    std::memcpy(bytes.data() + kOpFrame + 4, crc, sizeof(crc));
}

/** Expect loading `bytes` (written to a temp file) to raise `code`;
 *  returns the error message. */
std::string
expectLoadError(const std::vector<char> &bytes, ErrorCode code,
                const char *what)
{
    TempFile tmp("mutated.fo4cap");
    writeFile(tmp.path(), bytes);
    try {
        trace::RecordedTrace t(tmp.path());
        ADD_FAILURE() << what << ": corrupted trace accepted";
    } catch (const util::TraceError &e) {
        EXPECT_EQ(e.code(), code) << what << ": " << e.what();
        return e.what();
    }
    return "";
}

} // namespace

TEST(TraceCorruption, Matrix)
{
    TempFile healthy("healthy.fo4cap");
    const auto good = healthyTraceBytes(healthy.path());
    ASSERT_EQ(good.size(), kRecords + 256u * 32u + 17u);

    // Sanity: the unmutated bytes load fine.
    EXPECT_NO_THROW(trace::RecordedTrace t(healthy.path()));

    // Bad magic.
    auto mutated = good;
    mutated[0] = 'X';
    expectLoadError(mutated, ErrorCode::TraceFormat, "bad magic");

    // Version skew (u32 at offset 8).
    mutated = good;
    mutated[8] = 2;
    expectLoadError(mutated, ErrorCode::TraceFormat, "version skew");

    // A fixed header field (the flags word at offset 12) rotted.
    mutated = good;
    mutated[12] = 16;
    expectLoadError(mutated, ErrorCode::TraceCorrupt, "header field");

    // Truncated mid-header.
    mutated.assign(good.begin(), good.begin() + 9);
    expectLoadError(mutated, ErrorCode::TraceFormat, "truncated header");

    // Trailing partial frame (truncated mid-write).
    mutated.assign(good.begin(), good.end() - 7);
    expectLoadError(mutated, ErrorCode::TraceCorrupt, "partial record");

    // Header but no instructions.
    mutated.assign(good.begin(), good.begin() + 32);
    expectLoadError(mutated, ErrorCode::TraceCorrupt, "empty body");

    // Invalid op class inside a record (cls is byte 30 of each record),
    // behind a valid frame CRC.
    mutated = good;
    mutated[kRecords + 32 * 17 + 30] = static_cast<char>(0xEE);
    resealOpFrame(mutated, 256);
    auto message =
        expectLoadError(mutated, ErrorCode::TraceCorrupt, "bad op class");
    EXPECT_NE(message.find("record 17 has op class 238"), std::string::npos)
        << message;

    // Register index out of range (src1 is bytes 24-25 of each record),
    // behind a valid frame CRC.
    mutated = good;
    mutated[kRecords + 32 * 5 + 24] = static_cast<char>(0xFF);
    mutated[kRecords + 32 * 5 + 25] = 0x7F;
    resealOpFrame(mutated, 256);
    message =
        expectLoadError(mutated, ErrorCode::TraceCorrupt, "bad register");
    EXPECT_NE(message.find("record 5 names register 32767"),
              std::string::npos)
        << message;
}

TEST(ConfigFaults, RandomizedInvalidParamsAlwaysThrowTyped)
{
    util::Rng rng(42);
    for (int trial = 0; trial < 100; ++trial) {
        auto p = core::CoreParams::alpha21264();
        // Corrupt one to three knobs with out-of-range values.
        const int faults = 1 + static_cast<int>(rng.below(3));
        for (int i = 0; i < faults; ++i) {
            switch (rng.below(6)) {
              case 0:
                p.fetchWidth = -static_cast<int>(rng.below(8));
                break;
              case 1:
                p.robSize = static_cast<int>(rng.below(8));
                break;
              case 2:
                p.issueLatency = 0;
                break;
              case 3:
                p.dl1.lineBytes = 48;
                break;
              case 4:
                p.window.capacity = 0;
                break;
              default:
                p.memLatencies.l2 = 0;
                break;
            }
        }
        const auto st = p.validate();
        ASSERT_FALSE(st.isOk()) << "trial " << trial;
        EXPECT_EQ(st.code(), ErrorCode::InvalidConfig);
        EXPECT_THROW(core::makeOooCore(p, "tournament"),
                     util::ConfigError)
            << "trial " << trial;
        EXPECT_THROW(core::makeInorderCore(p, "tournament"),
                     util::ConfigError)
            << "trial " << trial;
    }
}

TEST(ConfigFaults, UnknownPredictorAndProfileNames)
{
    const auto p = core::CoreParams::alpha21264();
    EXPECT_THROW(core::makeOooCore(p, "psychic"), util::ConfigError);
    EXPECT_THROW(trace::spec2000Profile("999.nonesuch"),
                 util::ConfigError);
}

TEST(Watchdog, OooCoreThrowsDeadlockWithDump)
{
    auto prof = trace::spec2000Profile("164.gzip");
    trace::SyntheticTraceGenerator gen(prof);
    auto core = core::makeOooCore(core::CoreParams::alpha21264(),
                                  "tournament");
    try {
        // 50 cycles cannot commit 50000 instructions on a 4-wide core.
        core->run(gen, 50000, 0, 0, 50);
        FAIL() << "watchdog did not fire";
    } catch (const util::DeadlockError &e) {
        EXPECT_EQ(e.code(), ErrorCode::Deadlock);
        EXPECT_EQ(e.dump().model, "out-of-order");
        EXPECT_EQ(e.dump().cycleLimit, 50u);
        EXPECT_LT(e.dump().committed, e.dump().target);
        // The dump describes the stuck pipeline.
        const std::string text = e.dump().toString();
        EXPECT_NE(text.find("ROB"), std::string::npos);
        EXPECT_NE(text.find("cycle"), std::string::npos);
    }
}

TEST(Watchdog, InorderCoreThrowsDeadlockWithDump)
{
    auto prof = trace::spec2000Profile("164.gzip");
    trace::SyntheticTraceGenerator gen(prof);
    auto core = core::makeInorderCore(core::CoreParams::alpha21264(),
                                      "tournament");
    try {
        core->run(gen, 50000, 0, 0, 50);
        FAIL() << "watchdog did not fire";
    } catch (const util::DeadlockError &e) {
        EXPECT_EQ(e.code(), ErrorCode::Deadlock);
        EXPECT_EQ(e.dump().model, "in-order");
    }
}

TEST(Watchdog, GenerousBudgetDoesNotFire)
{
    auto prof = trace::spec2000Profile("164.gzip");
    trace::SyntheticTraceGenerator gen(prof);
    auto core = core::makeOooCore(core::CoreParams::alpha21264(),
                                  "tournament");
    const auto r = core->run(gen, 2000, 0, 0, 1000000);
    EXPECT_EQ(r.instructions, 2000u);
}

TEST(Watchdog, ZeroInstructionsIsAConfigError)
{
    auto prof = trace::spec2000Profile("164.gzip");
    trace::SyntheticTraceGenerator gen(prof);
    auto core = core::makeOooCore(core::CoreParams::alpha21264(),
                                  "tournament");
    EXPECT_THROW(core->run(gen, 0), util::ConfigError);
}

TEST(SuiteIsolation, BrokenJobsDoNotSinkTheSuite)
{
    // The acceptance scenario: N jobs, one with a corrupted trace file,
    // one that trips the watchdog; the other N-2 complete and aggregate.
    TempFile corrupt("suite_corrupt.fo4t");
    auto bytes = healthyTraceBytes(corrupt.path(), 512);
    bytes[16 + 32 * 40 + 30] = static_cast<char>(0xEE);
    writeFile(corrupt.path(), bytes);

    std::vector<study::BenchJob> jobs;
    for (const char *name : {"176.gcc", "181.mcf", "256.bzip2"}) {
        jobs.push_back(study::BenchJob::fromProfile(
            trace::spec2000Profile(name)));
    }
    jobs.push_back(study::BenchJob::fromTraceFile(
        "corrupt", trace::BenchClass::Integer, corrupt.path()));
    auto hung =
        study::BenchJob::fromProfile(trace::spec2000Profile("164.gzip"));
    hung.name = "hung";
    hung.cycleLimit = 20;
    jobs.push_back(hung);

    study::RunSpec spec;
    spec.instructions = 5000;
    spec.warmup = 500;
    spec.prewarm = 20000;

    const auto suite = study::runSuite(study::scaledCoreParams(6.0, {}),
                                       study::scaledClock(6.0), jobs, spec);

    ASSERT_EQ(suite.benchmarks.size(), 5u);
    EXPECT_EQ(suite.succeeded(), 3u);
    const auto failures = suite.failures();
    ASSERT_EQ(failures.size(), 2u);
    EXPECT_EQ(failures[0]->name, "corrupt");
    EXPECT_EQ(failures[0]->error.code(), ErrorCode::TraceCorrupt);
    EXPECT_EQ(failures[1]->name, "hung");
    EXPECT_EQ(failures[1]->error.code(), ErrorCode::Deadlock);
    // The watchdog dump rides along in the recorded status.
    EXPECT_NE(failures[1]->error.message().find("watchdog"),
              std::string::npos);

    // Aggregates cover exactly the survivors and stay finite.
    EXPECT_GT(suite.harmonicIpcAll(), 0.0);
    EXPECT_GT(suite.harmonicBipsAll(), 0.0);

    // The printed report marks both failures with their typed codes.
    std::ostringstream os;
    study::printSuite(os, suite);
    const std::string report = os.str();
    EXPECT_NE(report.find("FAILED [TraceCorrupt]"), std::string::npos);
    EXPECT_NE(report.find("FAILED [Deadlock]"), std::string::npos);
    EXPECT_NE(report.find("3 of 5"), std::string::npos);
}

TEST(SuiteIsolation, ConcurrentFaultsStayIsolatedPerJob)
{
    // The parallel engine must not let one worker's fault leak into a
    // sibling running at the same time: inject a corrupt trace and
    // three watchdog deadlocks among nine healthy jobs and fan the lot
    // across 8 threads, repeatedly.
    TempFile corrupt("concurrent_corrupt.fo4t");
    auto bytes = healthyTraceBytes(corrupt.path(), 512);
    bytes[16 + 32 * 40 + 30] = static_cast<char>(0xEE);
    writeFile(corrupt.path(), bytes);

    std::vector<study::BenchJob> jobs;
    int sabotaged = 0;
    for (const char *name : {"164.gzip", "175.vpr", "176.gcc", "181.mcf",
                             "197.parser", "252.eon", "253.perlbmk",
                             "256.bzip2", "300.twolf"}) {
        jobs.push_back(study::BenchJob::fromProfile(
            trace::spec2000Profile(name)));
        // Every third job is followed by a saboteur so the failures are
        // spread across the grid, not clustered at one end.
        if (jobs.size() % 3 == 0 && sabotaged < 3) {
            if (++sabotaged == 2) {
                jobs.push_back(study::BenchJob::fromTraceFile(
                    "corrupt", trace::BenchClass::Integer,
                    corrupt.path()));
            } else {
                auto hung = study::BenchJob::fromProfile(
                    trace::spec2000Profile("164.gzip"));
                hung.name = util::strprintf("hung-%d", sabotaged);
                hung.cycleLimit = 20;
                jobs.push_back(hung);
            }
        }
    }

    study::RunSpec spec;
    spec.instructions = 2000;
    spec.warmup = 250;
    spec.prewarm = 20000;
    spec.cycleLimit = 1000000;

    const auto params = study::scaledCoreParams(6.0, {});
    const auto clock = study::scaledClock(6.0);
    const auto reference =
        study::serializeSuite(study::runSuite(params, clock, jobs, spec));

    study::CheckpointOptions options;
    options.threads = 8;
    study::CheckpointedRunner runner(std::move(options));
    for (int round = 0; round < 3; ++round) {
        const auto suite =
            runner.runGrid({{params, clock}}, jobs, spec).front();
        ASSERT_EQ(suite.benchmarks.size(), jobs.size());
        EXPECT_EQ(suite.succeeded(), jobs.size() - 3);

        const auto failures = suite.failures();
        ASSERT_EQ(failures.size(), 3u);
        EXPECT_EQ(failures[0]->name, "hung-1");
        EXPECT_EQ(failures[0]->error.code(), ErrorCode::Deadlock);
        EXPECT_EQ(failures[1]->name, "corrupt");
        EXPECT_EQ(failures[1]->error.code(), ErrorCode::TraceCorrupt);
        EXPECT_EQ(failures[2]->name, "hung-3");
        EXPECT_EQ(failures[2]->error.code(), ErrorCode::Deadlock);

        // And not just the failure pattern: the whole suite is
        // bit-for-bit the serial run, every round.
        EXPECT_EQ(study::serializeSuite(suite), reference)
            << "round " << round;
    }
}

TEST(SuiteIsolation, SuiteLevelMisconfigurationStillThrows)
{
    const std::vector<study::BenchJob> none;
    study::RunSpec spec;
    EXPECT_THROW(study::runSuite(study::scaledCoreParams(6.0, {}),
                                 study::scaledClock(6.0), none, spec),
                 util::ConfigError);

    auto job = study::BenchJob::fromProfile(
        trace::spec2000Profile("164.gzip"));
    spec.instructions = 0;
    EXPECT_THROW(study::runSuite(study::scaledCoreParams(6.0, {}),
                                 study::scaledClock(6.0), {job}, spec),
                 util::ConfigError);
}
