/**
 * @file
 * The one job lifecycle both daemons share (svc::SessionServer), run as
 * one contract against fo4d (svc::Server) and against fo4coord
 * (svc::Coordinator with no workers, which finishes every sweep by
 * local fallback):
 *
 *  - an identical resubmission is answered by dedup, same bytes, no
 *    cell executed;
 *  - a restarted daemon with a cache dir serves the sweep from the
 *    store, and a corrupted entry degrades to a recompute with the same
 *    bytes;
 *  - a sweep with a failed row is never stored;
 *  - queued and running jobs cancel; a job whose journal belongs to
 *    other inputs is a Failed verdict, and the dispatcher survives it;
 *  - Stats counts every verdict, and the sweep-latency histogram
 *    samples every job the dispatcher takes, whatever answered it
 *    (DESIGN.md §9);
 *  - a request with a non-finite clock, an unknown predictor or run
 *    lengths whose sum wraps is refused at submit with InvalidConfig,
 *    and the same connection still answers.
 */

#include <gtest/gtest.h>

#include <filesystem>
#include <fstream>
#include <limits>
#include <memory>
#include <optional>
#include <string>

#include "scratch_dir.hh"
#include "svc/client.hh"
#include "svc/coordinator.hh"
#include "svc/server.hh"
#include "svc/sweep.hh"
#include "util/journal.hh"
#include "util/metrics.hh"
#include "util/status.hh"

using namespace fo4;
using util::ErrorCode;

namespace
{

enum class Daemon
{
    Fo4d,
    Fo4coord,
};

/** 2 depths x 2 benchmarks = 4 cells. */
svc::SweepRequest
smallRequest()
{
    svc::SweepRequest req;
    req.instructions = 6000;
    req.warmup = 500;
    req.prewarm = 20000;
    req.tUseful = {8.0, 6.0};
    for (const char *name : {"164.gzip", "181.mcf"}) {
        svc::WireJob job;
        job.name = name;
        req.jobs.push_back(job);
    }
    return req;
}

/** A sweep long enough to still be running when it is cancelled. */
svc::SweepRequest
longRequest()
{
    svc::SweepRequest req;
    req.instructions = 2000000;
    req.warmup = 1000;
    req.prewarm = 100000;
    req.tUseful = {6.0};
    svc::WireJob job;
    job.name = "164.gzip";
    req.jobs.push_back(job);
    return req;
}

std::string
localBytes(const svc::SweepRequest &request)
{
    return svc::runSweep(svc::planSweep(request), 1, "", nullptr, {});
}

std::uint64_t
counterValue(const std::string &name)
{
    return util::MetricsRegistry::global().value(name);
}

/** Flip the last byte of every blob under `dir`. */
int
corruptEveryBlob(const std::string &dir)
{
    int flipped = 0;
    for (const auto &entry : std::filesystem::directory_iterator(dir)) {
        if (entry.path().extension() != ".blob")
            continue;
        std::fstream blob(entry.path(),
                          std::ios::in | std::ios::out | std::ios::binary);
        blob.seekg(-1, std::ios::end);
        const char last = static_cast<char>(blob.get());
        blob.seekp(-1, std::ios::end);
        blob.put(static_cast<char>(last ^ 0x01));
        ++flipped;
    }
    return flipped;
}

/** Submit, wait for Done, fetch. */
std::string
submitAndFetch(svc::Client &client, const svc::SweepRequest &request)
{
    const auto [id, cells] = client.submit(request);
    (void)cells;
    EXPECT_EQ(client.waitUntilDone(id, 20).state, svc::JobState::Done);
    return client.fetchResults(id);
}

class Lifecycle : public ::testing::TestWithParam<Daemon>
{
  protected:
    void SetUp() override { wasEnabled = util::setMetricsEnabled(true); }
    void TearDown() override { util::setMetricsEnabled(wasEnabled); }

    /** A daemon of this test's kind over the shared options. */
    std::unique_ptr<svc::SessionServer>
    start(const svc::DaemonOptions &shared = {})
    {
        if (GetParam() == Daemon::Fo4d) {
            svc::ServerOptions options;
            static_cast<svc::DaemonOptions &>(options) = shared;
            return std::make_unique<svc::Server>(options);
        }
        svc::CoordinatorOptions options;
        static_cast<svc::DaemonOptions &>(options) = shared;
        options.tickMs = 20;
        options.fallbackGraceMs = 100; // no worker is coming
        return std::make_unique<svc::Coordinator>(options);
    }

    /** A fresh directory named for this test, removed after it. */
    std::string
    tempDir(const std::string &name)
    {
        scratch.emplace(name);
        return scratch->path();
    }

    /** A store under a fresh directory named for this test. */
    svc::DaemonOptions
    withStore(const std::string &name)
    {
        svc::DaemonOptions options;
        options.cacheDir = tempDir(name);
        return options;
    }

    bool wasEnabled = false;
    std::optional<tests::ScratchDir> scratch;
};

/** Submit `request` on `raw`: it must be refused with InvalidConfig,
 *  and the same session must still answer Stats. */
void
expectRefusedAtSubmit(util::TcpStream &raw,
                      const svc::SweepRequest &request, const char *what)
{
    svc::writeFrame(raw, svc::MsgType::SubmitSweep, request.encode(), 5000);
    const auto reply = svc::readFrame(raw, 5000);
    ASSERT_TRUE(reply.has_value()) << what;
    ASSERT_EQ(reply->type, svc::MsgType::Error) << what;
    EXPECT_EQ(svc::decodeError(reply->body).first, ErrorCode::InvalidConfig)
        << what;
    // The refusal cost neither the session nor the daemon.
    svc::writeFrame(raw, svc::MsgType::Stats, "", 5000);
    const auto stats = svc::readFrame(raw, 5000);
    ASSERT_TRUE(stats.has_value()) << what;
    ASSERT_EQ(stats->type, svc::MsgType::StatsReport) << what;
    EXPECT_EQ(svc::StatsSnapshot::decode(stats->body).submitted, 0u)
        << what;
}

} // namespace

TEST_P(Lifecycle, IdenticalResubmissionIsAnsweredByDedupWithTheSameBytes)
{
    const svc::SweepRequest request = smallRequest();
    const std::string expected = localBytes(request);
    const auto daemon = start();
    svc::Client client("127.0.0.1", daemon->port());
    EXPECT_EQ(submitAndFetch(client, request), expected);

    const std::uint64_t dedup0 = counterValue("svc.cache.dedup");
    const std::uint64_t cells0 = counterValue("study.cells.executed");
    EXPECT_EQ(submitAndFetch(client, request), expected);
    EXPECT_EQ(counterValue("svc.cache.dedup") - dedup0, 1u);
    EXPECT_EQ(counterValue("study.cells.executed") - cells0, 0u);
}

TEST_P(Lifecycle, RestartedDaemonServesTheSweepFromTheStore)
{
    const svc::SweepRequest request = smallRequest();
    const std::string expected = localBytes(request);
    const svc::DaemonOptions options = withStore("lifecycle_store");
    {
        const auto daemon = start(options);
        svc::Client client("127.0.0.1", daemon->port());
        EXPECT_EQ(submitAndFetch(client, request), expected);
        EXPECT_EQ(client.stats().cacheEntries, 1u);
    }

    const std::uint64_t hits0 = counterValue("svc.cache.hit");
    const std::uint64_t cells0 = counterValue("study.cells.executed");
    const auto daemon = start(options);
    svc::Client client("127.0.0.1", daemon->port());
    EXPECT_EQ(submitAndFetch(client, request), expected);
    EXPECT_EQ(counterValue("svc.cache.hit") - hits0, 1u);
    EXPECT_EQ(counterValue("study.cells.executed") - cells0, 0u);
}

TEST_P(Lifecycle, CorruptedStoreEntryDegradesToARecomputeWithTheSameBytes)
{
    const svc::SweepRequest request = smallRequest();
    const std::string expected = localBytes(request);
    const svc::DaemonOptions options = withStore("lifecycle_rot");
    {
        const auto daemon = start(options);
        svc::Client client("127.0.0.1", daemon->port());
        EXPECT_EQ(submitAndFetch(client, request), expected);
    }
    EXPECT_EQ(corruptEveryBlob(options.cacheDir), 1);

    const std::uint64_t corrupt0 = counterValue("svc.cache.corrupt");
    const std::uint64_t cells0 = counterValue("study.cells.executed");
    {
        const auto daemon = start(options);
        svc::Client client("127.0.0.1", daemon->port());
        EXPECT_EQ(submitAndFetch(client, request), expected);
    }
    EXPECT_EQ(counterValue("svc.cache.corrupt") - corrupt0, 1u);
    EXPECT_EQ(counterValue("study.cells.executed") - cells0, 4u);

    // The recompute re-published a clean entry.
    const std::uint64_t hits0 = counterValue("svc.cache.hit");
    const auto daemon = start(options);
    svc::Client client("127.0.0.1", daemon->port());
    EXPECT_EQ(submitAndFetch(client, request), expected);
    EXPECT_EQ(counterValue("svc.cache.hit") - hits0, 1u);
}

TEST_P(Lifecycle, SweepWithAFailedRowIsNeverStored)
{
    svc::SweepRequest request = smallRequest();
    request.jobs[1].cycleLimit = 10; // a deterministic Deadlock row
    const std::string expected = localBytes(request);
    ASSERT_NE(expected.find("Deadlock"), std::string::npos);
    const svc::DaemonOptions options = withStore("lifecycle_failed_row");
    {
        const auto daemon = start(options);
        svc::Client client("127.0.0.1", daemon->port());
        EXPECT_EQ(submitAndFetch(client, request), expected);
        EXPECT_EQ(client.stats().cacheEntries, 0u);
    }

    const std::uint64_t hits0 = counterValue("svc.cache.hit");
    const auto daemon = start(options);
    svc::Client client("127.0.0.1", daemon->port());
    EXPECT_EQ(submitAndFetch(client, request), expected);
    EXPECT_EQ(counterValue("svc.cache.hit") - hits0, 0u);
}

TEST_P(Lifecycle, QueuedAndRunningJobsCancel)
{
    const auto daemon = start();
    svc::Client client("127.0.0.1", daemon->port());
    const auto [running, runningCells] = client.submit(longRequest());
    (void)runningCells;
    while (client.poll(running).state == svc::JobState::Queued)
        ;
    const auto [queued, queuedCells] = client.submit(longRequest());
    (void)queuedCells;

    const svc::JobStatusInfo cancelled = client.cancel(queued);
    EXPECT_EQ(cancelled.state, svc::JobState::Cancelled);
    EXPECT_EQ(cancelled.cellsStarted, 0u);
    client.cancel(running);
    EXPECT_EQ(client.waitUntilDone(running, 20).state,
              svc::JobState::Cancelled);

    const svc::StatsSnapshot stats = client.stats();
    EXPECT_EQ(stats.submitted, 2u);
    EXPECT_EQ(stats.cancelled, 2u);
    EXPECT_EQ(stats.completed, 0u);
    EXPECT_EQ(stats.queueDepth, 0u);
    EXPECT_EQ(stats.runningJobs, 0u);
}

TEST_P(Lifecycle, StatsCountEveryVerdictAndSampleEveryJobTheDispatcherTakes)
{
    svc::DaemonOptions options;
    options.checkpointDir = tempDir("lifecycle_verdicts");
    // A journal left by other inputs under this sweep's name: the job
    // is refused at run time with ResumeMismatch, a Failed verdict.
    svc::SweepRequest mismatched = smallRequest();
    mismatched.tUseful = {7.0};
    const std::uint64_t fingerprint =
        svc::planFingerprint(svc::planSweep(mismatched));
    util::JournalWriter::create(
        options.checkpointDir +
            util::strprintf("/sweep-%016llx.journal",
                            static_cast<unsigned long long>(fingerprint)),
        fingerprint ^ 1)
        .close();

    const auto daemon = start(options);
    svc::Client client("127.0.0.1", daemon->port());
    const svc::StatsSnapshot before = client.stats();

    const svc::SweepRequest request = smallRequest();
    submitAndFetch(client, request); // computed
    submitAndFetch(client, request); // answered by dedup
    const auto [id, cells] = client.submit(mismatched);
    (void)cells;
    const svc::JobStatusInfo failed = client.waitUntilDone(id, 20);
    EXPECT_EQ(failed.state, svc::JobState::Failed);
    EXPECT_EQ(failed.errorCode, ErrorCode::ResumeMismatch);
    // The dispatcher survived the failure.
    submitAndFetch(client, request);

    const svc::StatsSnapshot after = client.stats();
    EXPECT_EQ(after.submitted - before.submitted, 4u);
    EXPECT_EQ(after.completed - before.completed, 3u);
    EXPECT_EQ(after.failed - before.failed, 1u);
    EXPECT_EQ(after.cancelled - before.cancelled, 0u);
    // One latency sample per job taken: computed, dedup, failed, dedup.
    EXPECT_EQ(after.latencySamples - before.latencySamples, 4u);
    std::uint64_t bucketed = 0;
    for (const std::uint64_t n : after.latencyBuckets)
        bucketed += n;
    EXPECT_EQ(bucketed, after.latencySamples);
}

TEST_P(Lifecycle, NonFiniteClocksAndUnknownPredictorsAreRefusedAtSubmit)
{
    const auto daemon = start();
    util::TcpStream raw =
        util::TcpStream::connect("127.0.0.1", daemon->port());
    const double nan = std::numeric_limits<double>::quiet_NaN();
    const double inf = std::numeric_limits<double>::infinity();
    svc::SweepRequest request = smallRequest();
    request.tUseful = {nan};
    expectRefusedAtSubmit(raw, request, "t_useful=nan");
    request = smallRequest();
    request.overheadFo4 = inf;
    expectRefusedAtSubmit(raw, request, "overhead=inf");
    request.overheadFo4 = nan;
    expectRefusedAtSubmit(raw, request, "overhead=nan");
    request = smallRequest();
    request.tUseful = {6.0, inf};
    expectRefusedAtSubmit(raw, request, "t_useful=inf");
    request.tUseful = {std::numeric_limits<double>::denorm_min()};
    expectRefusedAtSubmit(raw, request, "subnormal t_useful");
    request = smallRequest();
    request.predictor = "zzz";
    expectRefusedAtSubmit(raw, request, "predictor=zzz");
}

TEST_P(Lifecycle, RunLengthsThatWrapAreRefusedAtSubmit)
{
    // The wire admits any u64; prewarm + warmup + instructions must
    // not wrap in the cores' run loops.
    const auto daemon = start();
    util::TcpStream raw =
        util::TcpStream::connect("127.0.0.1", daemon->port());
    svc::SweepRequest request = smallRequest();
    request.warmup = UINT64_MAX;
    expectRefusedAtSubmit(raw, request, "warmup=UINT64_MAX");
}

INSTANTIATE_TEST_SUITE_P(
    BothDaemons, Lifecycle,
    ::testing::Values(Daemon::Fo4d, Daemon::Fo4coord),
    [](const ::testing::TestParamInfo<Daemon> &info) {
        return info.param == Daemon::Fo4d ? std::string("fo4d")
                                          : std::string("fo4coord");
    });
