/**
 * @file
 * The service-level result cache and tenancy contracts, end to end over
 * real loopback sockets.
 *
 * Cache side: a daemon restarted onto a warm cache_dir serves a repeat
 * submission byte-identical with zero cells executed; an identical
 * in-flight/completed sweep in the same daemon is answered by
 * single-flight dedup without touching the store; a cache corrupted
 * between restarts degrades to recompute — same bytes, corruption
 * counted; a sweep containing failed rows is never cached (transient
 * verdicts must not be replayed from disk); a job whose bytes the
 * retention bound released is a typed NotFound, and resubmitting it is
 * answered from the store with the original bytes.
 *
 * Tenant side: per-tenant admission quotas starve the hog and admit the
 * neighbour, with typed Overloaded refusals whose detail names the
 * quota, per-tenant counters, and quota release on cancel.  A tenant
 * name the protocol cannot vouch for is a session-fatal Protocol error.
 *
 * Fleet side: a worker restarted onto a warm cell cache answers every
 * lease from disk (cellsFromCache == grid size, cellsExecuted == 0) and
 * the assembled sweep still cmp-equals a local run — the cross-node
 * identity check.
 */

#include <gtest/gtest.h>

#include <cstdio>
#include <fstream>
#include <string>
#include <vector>

#include <dirent.h>

#include "scratch_dir.hh"
#include "svc/client.hh"
#include "svc/coordinator.hh"
#include "svc/server.hh"
#include "svc/sweep.hh"
#include "svc/worker.hh"
#include "util/metrics.hh"
#include "util/status.hh"

using namespace fo4;
using util::ErrorCode;
using util::SvcError;

namespace
{

/** A modest grid: 2 depths x 2 benchmarks = 4 cells. */
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
        req.jobs.push_back(std::move(job));
    }
    return req;
}

/** A sweep long enough to still be Running when we act on it. */
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
    const svc::SweepRequest decoded =
        svc::SweepRequest::decode(request.encode());
    return svc::runSweep(svc::planSweep(decoded), 1, "", nullptr, {});
}

svc::Server
makeServer(const std::string &cacheDir, std::size_t tenantQuota = 0,
           std::size_t maxQueue = 8)
{
    svc::ServerOptions options;
    options.port = 0;
    options.threads = 1;
    options.maxQueue = maxQueue;
    options.cacheDir = cacheDir;
    options.tenantQuota = tenantQuota;
    return svc::Server(std::move(options));
}

std::uint64_t
counterValue(const std::string &name)
{
    return util::MetricsRegistry::global().value(name);
}

/** Flip the last byte of every blob under `dir` (chaos between runs). */
int
corruptEveryBlob(const std::string &dir)
{
    int flipped = 0;
    DIR *d = ::opendir(dir.c_str());
    EXPECT_NE(d, nullptr) << dir;
    if (!d)
        return 0;
    while (struct dirent *e = ::readdir(d)) {
        const std::string name = e->d_name;
        if (name.size() < 5 ||
            name.compare(name.size() - 5, 5, ".blob") != 0)
            continue;
        const std::string path = dir + "/" + name;
        std::string bytes;
        {
            std::ifstream in(path, std::ios::binary);
            bytes.assign(std::istreambuf_iterator<char>(in),
                         std::istreambuf_iterator<char>());
        }
        EXPECT_FALSE(bytes.empty()) << path;
        if (bytes.empty())
            continue;
        bytes.back() = static_cast<char>(bytes.back() ^ 0x01);
        std::ofstream out(path, std::ios::binary | std::ios::trunc);
        out.write(bytes.data(),
                  static_cast<std::streamsize>(bytes.size()));
        ++flipped;
    }
    ::closedir(d);
    return flipped;
}

class SvcCache : public ::testing::Test
{
  protected:
    void SetUp() override { wasEnabled = util::setMetricsEnabled(true); }
    void TearDown() override { util::setMetricsEnabled(wasEnabled); }
    bool wasEnabled = false;
};

} // namespace

// ---------------------------------------------------------------------
// The persistent cache across daemon restarts
// ---------------------------------------------------------------------

TEST_F(SvcCache, RestartedServerServesFromCacheByteIdentical)
{
    const tests::ScratchDir scratch("svc_cache_restart");
    const std::string &cacheDir = scratch.path();
    const svc::SweepRequest request = smallRequest();
    const std::string expected = localBytes(request);

    // Cold run: computed, then published to the store.
    {
        svc::Server server = makeServer(cacheDir);
        svc::Client client("127.0.0.1", server.port());
        const auto [id, cells] = client.submit(request);
        (void)cells;
        ASSERT_EQ(client.waitUntilDone(id, 50).state,
                  svc::JobState::Done);
        EXPECT_EQ(client.fetchResults(id), expected);
        server.stop();
        server.join();
    }

    // Warm run in a fresh daemon: the bytes must come from disk — no
    // cell executes — and still cmp-equal the local reference.
    const std::uint64_t hits0 = counterValue("svc.cache.hit");
    const std::uint64_t cells0 = counterValue("study.cells.executed");
    {
        svc::Server server = makeServer(cacheDir);
        svc::Client client("127.0.0.1", server.port());
        const auto [id, cells] = client.submit(request);
        (void)cells;
        ASSERT_EQ(client.waitUntilDone(id, 50).state,
                  svc::JobState::Done);
        EXPECT_EQ(client.fetchResults(id), expected);

        const svc::StatsSnapshot stats = client.stats();
        EXPECT_GT(stats.cacheEntries, 0u);
        EXPECT_GT(stats.cacheBytes, 0u);
        server.stop();
        server.join();
    }
    EXPECT_EQ(counterValue("svc.cache.hit") - hits0, 1u);
    EXPECT_EQ(counterValue("study.cells.executed") - cells0, 0u);
}

TEST_F(SvcCache, IdenticalResubmissionIsDedupedWithoutAStore)
{
    // No cache_dir at all: dedup against the daemon's own completed
    // jobs is in-memory and independent of the persistent store.
    const svc::SweepRequest request = smallRequest();
    const std::string expected = localBytes(request);

    svc::Server server = makeServer("");
    svc::Client client("127.0.0.1", server.port());

    const auto [first, cells1] = client.submit(request);
    (void)cells1;
    ASSERT_EQ(client.waitUntilDone(first, 50).state, svc::JobState::Done);

    const std::uint64_t dedup0 = counterValue("svc.cache.dedup");
    const std::uint64_t cells0 = counterValue("study.cells.executed");
    const auto [second, cells2] = client.submit(request);
    (void)cells2;
    ASSERT_EQ(client.waitUntilDone(second, 50).state,
              svc::JobState::Done);
    EXPECT_EQ(client.fetchResults(second), expected);
    EXPECT_EQ(client.fetchResults(first), client.fetchResults(second));
    EXPECT_EQ(counterValue("svc.cache.dedup") - dedup0, 1u);
    EXPECT_EQ(counterValue("study.cells.executed") - cells0, 0u);

    server.stop();
    server.join();
}

TEST_F(SvcCache, ReleasedResultsAreNotFoundAndResubmissionServesTheSameBytes)
{
    // max_queue=2: the daemon keeps the bytes of its two most recently
    // finished sweeps.  The third finished sweep releases the first.
    const tests::ScratchDir scratch("svc_cache_retention");
    const std::string &cacheDir = scratch.path();
    svc::Server server = makeServer(cacheDir, 0, 2);
    svc::Client client("127.0.0.1", server.port());

    std::vector<std::uint64_t> ids;
    std::vector<std::string> bytes;
    for (const double t : {8.0, 6.0, 4.6}) {
        svc::SweepRequest request = smallRequest();
        request.tUseful = {t};
        const auto [id, cells] = client.submit(request);
        (void)cells;
        ASSERT_EQ(client.waitUntilDone(id, 20).state, svc::JobState::Done);
        ids.push_back(id);
        bytes.push_back(client.fetchResults(id));
        ASSERT_FALSE(bytes.back().empty());
    }

    EXPECT_EQ(client.poll(ids[0]).state, svc::JobState::Done)
        << "a released job keeps its status";
    try {
        client.fetchResults(ids[0]);
        ADD_FAILURE() << "a released job must not serve bytes";
    } catch (const SvcError &e) {
        EXPECT_EQ(e.code(), ErrorCode::NotFound);
        EXPECT_NE(std::string(e.what()).find("max_queue"),
                  std::string::npos)
            << e.what();
        EXPECT_NE(std::string(e.what()).find("resubmit"), std::string::npos)
            << e.what();
    }
    EXPECT_EQ(client.fetchResults(ids[1]), bytes[1]);
    EXPECT_EQ(client.fetchResults(ids[2]), bytes[2]);

    // The resubmission misses the in-memory dedup (released) and is
    // answered from the store: the original bytes, never empty ones.
    const std::uint64_t hits0 = counterValue("svc.cache.hit");
    const std::uint64_t cells0 = counterValue("study.cells.executed");
    svc::SweepRequest again = smallRequest();
    again.tUseful = {8.0};
    const auto [id, cells] = client.submit(again);
    (void)cells;
    ASSERT_EQ(client.waitUntilDone(id, 20).state, svc::JobState::Done);
    EXPECT_EQ(client.fetchResults(id), bytes[0]);
    EXPECT_EQ(counterValue("svc.cache.hit") - hits0, 1u);
    EXPECT_EQ(counterValue("study.cells.executed") - cells0, 0u);

    server.stop();
    server.join();
}

TEST_F(SvcCache, AFinishedSweepSurvivesOtherClientsFetchesUntilItIsFetched)
{
    // max_queue=1 and no result store, so the job table holds the only
    // copy of a finished sweep.  The waiter's sweep finishes; before the
    // waiter fetches it, another client's sweep and its repeats finish
    // and are fetched.  Only fetched bytes count against max_queue, so
    // the waiter still gets its bytes.
    svc::Server server = makeServer("", 0, 1);
    svc::Client waiter("127.0.0.1", server.port());
    svc::Client other("127.0.0.1", server.port());

    svc::SweepRequest fresh = smallRequest();
    fresh.tUseful = {8.0};
    const auto [waitId, waitCells] = waiter.submit(fresh);
    (void)waitCells;
    ASSERT_EQ(waiter.waitUntilDone(waitId, 20).state, svc::JobState::Done);

    svc::SweepRequest repeat = smallRequest();
    repeat.tUseful = {6.0};
    const std::uint64_t dedup0 = counterValue("svc.cache.dedup");
    std::string repeatBytes;
    for (int i = 0; i < 4; ++i) {
        const auto [id, cells] = other.submit(repeat);
        (void)cells;
        ASSERT_EQ(other.waitUntilDone(id, 20).state, svc::JobState::Done);
        const std::string bytes = other.fetchResults(id);
        ASSERT_FALSE(bytes.empty());
        if (i == 0)
            repeatBytes = bytes;
        EXPECT_EQ(bytes, repeatBytes);
    }
    EXPECT_EQ(counterValue("svc.cache.dedup") - dedup0, 3u)
        << "the newest fetched sweep stays retained for dedup";
    EXPECT_EQ(waiter.fetchResults(waitId), localBytes(fresh));

    // Unfetched bytes have a bound of their own: a client that never
    // fetches cannot grow the daemon.  Five completions nobody fetches
    // release the oldest of them; the newest is still served.
    std::vector<std::uint64_t> unfetched;
    for (int i = 0; i < 5; ++i) {
        const auto [id, cells] = other.submit(repeat);
        (void)cells;
        ASSERT_EQ(other.waitUntilDone(id, 20).state, svc::JobState::Done);
        unfetched.push_back(id);
    }
    try {
        other.fetchResults(unfetched.front());
        ADD_FAILURE() << "unfetched results must not be kept without bound";
    } catch (const SvcError &e) {
        EXPECT_EQ(e.code(), ErrorCode::NotFound);
    }
    EXPECT_EQ(other.fetchResults(unfetched.back()), repeatBytes);

    server.stop();
    server.join();
}

TEST_F(SvcCache, CorruptedStoreDegradesToRecomputeSameBytes)
{
    const tests::ScratchDir scratch("svc_cache_chaos");
    const std::string &cacheDir = scratch.path();
    const svc::SweepRequest request = smallRequest();
    const std::string expected = localBytes(request);

    {
        svc::Server server = makeServer(cacheDir);
        svc::Client client("127.0.0.1", server.port());
        const auto [id, cells] = client.submit(request);
        (void)cells;
        client.waitUntilDone(id, 50);
        EXPECT_EQ(client.fetchResults(id), expected);
        server.stop();
        server.join();
    }

    // Rot every blob on disk between daemon runs.
    EXPECT_GT(corruptEveryBlob(cacheDir), 0);

    // The restarted daemon must detect the rot, quarantine, recompute,
    // and serve the same bytes anyway — corruption costs compute, never
    // correctness, and never the daemon.
    const std::uint64_t corrupt0 = counterValue("svc.cache.corrupt");
    {
        svc::Server server = makeServer(cacheDir);
        svc::Client client("127.0.0.1", server.port());
        const auto [id, cells] = client.submit(request);
        (void)cells;
        ASSERT_EQ(client.waitUntilDone(id, 50).state,
                  svc::JobState::Done);
        EXPECT_EQ(client.fetchResults(id), expected);
        server.stop();
        server.join();
    }
    EXPECT_GE(counterValue("svc.cache.corrupt") - corrupt0, 1u);

    // The recompute re-published a clean entry: one more restart hits.
    const std::uint64_t hits0 = counterValue("svc.cache.hit");
    {
        svc::Server server = makeServer(cacheDir);
        svc::Client client("127.0.0.1", server.port());
        const auto [id, cells] = client.submit(request);
        (void)cells;
        client.waitUntilDone(id, 50);
        EXPECT_EQ(client.fetchResults(id), expected);
        server.stop();
        server.join();
    }
    EXPECT_EQ(counterValue("svc.cache.hit") - hits0, 1u);
}

TEST_F(SvcCache, SweepsWithFailedRowsAreNeverCached)
{
    const tests::ScratchDir scratch("svc_cache_failedrows");
    const std::string &cacheDir = scratch.path();
    svc::SweepRequest request = smallRequest();
    request.jobs[1].cycleLimit = 10; // deterministic Deadlock row

    std::string firstBytes;
    {
        svc::Server server = makeServer(cacheDir);
        svc::Client client("127.0.0.1", server.port());
        const auto [id, cells] = client.submit(request);
        (void)cells;
        ASSERT_EQ(client.waitUntilDone(id, 50).state,
                  svc::JobState::Done);
        firstBytes = client.fetchResults(id);
        EXPECT_NE(firstBytes.find("Deadlock"), std::string::npos);
        server.stop();
        server.join();
    }

    // A failed row poisons cachability: the restarted daemon must
    // recompute (hit delta zero) yet still produce identical bytes.
    const std::uint64_t hits0 = counterValue("svc.cache.hit");
    {
        svc::Server server = makeServer(cacheDir);
        svc::Client client("127.0.0.1", server.port());
        const auto [id, cells] = client.submit(request);
        (void)cells;
        client.waitUntilDone(id, 50);
        EXPECT_EQ(client.fetchResults(id), firstBytes);
        server.stop();
        server.join();
    }
    EXPECT_EQ(counterValue("svc.cache.hit") - hits0, 0u);
}

// ---------------------------------------------------------------------
// Tenancy: admission quotas
// ---------------------------------------------------------------------

TEST_F(SvcCache, TenantQuotaStarvesTheHogAndAdmitsTheNeighbour)
{
    svc::Server server = makeServer("", /*tenantQuota=*/1);
    svc::Client client("127.0.0.1", server.port());

    svc::SweepRequest alice = longRequest();
    alice.tenant = "alice";
    svc::SweepRequest bob = longRequest();
    bob.tenant = "bob";

    // alice's first sweep starts running (quota meters *queued* jobs).
    const auto [running, c1] = client.submit(alice);
    (void)c1;
    while (client.poll(running).state == svc::JobState::Queued)
        ;
    // Her second occupies her one queue slot.
    const auto [queued, c2] = client.submit(alice);
    (void)c2;
    EXPECT_EQ(client.poll(queued).state, svc::JobState::Queued);

    // Her third is refused — typed, with detail naming the quota — but
    // bob, same daemon, same instant, is admitted.
    const std::uint64_t shed0 = counterValue("svc.shed.tenant_quota");
    try {
        client.submit(alice);
        FAIL() << "submit beyond the tenant quota succeeded";
    } catch (const SvcError &e) {
        EXPECT_EQ(e.code(), ErrorCode::Overloaded);
        EXPECT_NE(std::string(e.what()).find("quota"),
                  std::string::npos);
        EXPECT_NE(std::string(e.what()).find("alice"),
                  std::string::npos);
    }
    EXPECT_EQ(counterValue("svc.shed.tenant_quota") - shed0, 1u);
    const auto [bobJob, c3] = client.submit(bob);
    (void)c3;

    // Load-shed accounting: alice's refusal and everyone's admissions
    // are attributed per tenant.
    EXPECT_GE(counterValue("svc.tenant.alice.submitted"), 2u);
    EXPECT_GE(counterValue("svc.tenant.alice.rejected"), 1u);
    EXPECT_GE(counterValue("svc.tenant.bob.submitted"), 1u);
    EXPECT_EQ(counterValue("svc.tenant.bob.rejected"), 0u);

    // Cancelling her queued job releases the quota slot immediately.
    client.cancel(queued);
    const auto [retry, c4] = client.submit(alice);
    (void)c4;

    client.cancel(retry);
    client.cancel(bobJob);
    client.cancel(running);
    client.waitUntilDone(running, 50);
    server.stop();
    server.join();
}

TEST_F(SvcCache, UnvouchableTenantNameIsAProtocolError)
{
    svc::Server server = makeServer("");
    svc::Client client("127.0.0.1", server.port());
    svc::SweepRequest request = smallRequest();
    request.tenant = "not a valid tenant"; // spaces: refused strictly
    try {
        client.submit(request);
        FAIL() << "hostile tenant name accepted";
    } catch (const SvcError &e) {
        EXPECT_EQ(e.code(), ErrorCode::Protocol);
    }
    // Session-fatal, daemon-safe: a fresh honest session still works.
    svc::Client again("127.0.0.1", server.port());
    EXPECT_EQ(again.stats().submitted, 0u);
    server.stop();
    server.join();
}

// ---------------------------------------------------------------------
// Fleet: warm-cache workers skip execution, bytes still identical
// ---------------------------------------------------------------------

TEST_F(SvcCache, WarmCacheWorkerAnswersEveryLeaseFromDisk)
{
    const tests::ScratchDir scratch("worker_cell_cache");
    const std::string &cacheDir = scratch.path();
    const svc::SweepRequest request = smallRequest();
    const std::string expected = localBytes(request);

    svc::CoordinatorOptions opts;
    opts.port = 0;
    opts.detector.heartbeatMs = 50;
    opts.detector.suspectAfterMs = 150;
    opts.detector.deadAfterMs = 400;
    opts.leaseTimeoutMs = 2000;
    opts.tickMs = 20;
    opts.localFallback = false; // every cell must go through the fleet

    const auto workerOptions = [&](const std::string &name) {
        svc::WorkerOptions w;
        w.port = 0; // set per coordinator below
        w.name = name;
        w.connectTimeoutMs = 2000;
        w.ioTimeoutMs = 2000;
        w.cacheDir = cacheDir;
        return w;
    };

    // Cold fleet: the worker computes all 4 cells and publishes them.
    {
        svc::Coordinator coord(opts);
        auto wo = workerOptions("cold-node");
        wo.port = coord.port();
        svc::Worker worker(std::move(wo));

        svc::Client client("127.0.0.1", coord.port());
        const auto [id, cells] = client.submit(request);
        (void)cells;
        ASSERT_EQ(client.waitUntilDone(id, 50).state,
                  svc::JobState::Done);
        EXPECT_EQ(client.fetchResults(id), expected);

        worker.stop();
        worker.join();
        EXPECT_EQ(worker.cellsExecuted(), 4u);
        EXPECT_EQ(worker.cellsFromCache(), 0u);
        coord.stop();
        coord.join();
    }

    // Warm fleet, different "node": a fresh coordinator (no dedup
    // memory) and a fresh worker sharing only the cache directory.
    // Every lease is answered from disk, and the assembled result is
    // byte-identical — the cross-node identity check.
    {
        svc::Coordinator coord(opts);
        auto wo = workerOptions("warm-node");
        wo.port = coord.port();
        svc::Worker worker(std::move(wo));

        svc::Client client("127.0.0.1", coord.port());
        const auto [id, cells] = client.submit(request);
        (void)cells;
        ASSERT_EQ(client.waitUntilDone(id, 50).state,
                  svc::JobState::Done);
        EXPECT_EQ(client.fetchResults(id), expected);

        worker.stop();
        worker.join();
        EXPECT_EQ(worker.cellsFromCache(), 4u);
        EXPECT_EQ(worker.cellsExecuted(), 0u);
        coord.stop();
        coord.join();
    }
}

// ---------------------------------------------------------------------
// Coordinator-side persistent cache
// ---------------------------------------------------------------------

TEST_F(SvcCache, RestartedCoordinatorServesSweepFromCache)
{
    const tests::ScratchDir scratch("coord_cache");
    const std::string &cacheDir = scratch.path();
    const svc::SweepRequest request = smallRequest();
    const std::string expected = localBytes(request);

    svc::CoordinatorOptions opts;
    opts.port = 0;
    opts.tickMs = 20;
    opts.localFallback = true;
    opts.fallbackGraceMs = 100; // zero-worker fleet: compute locally
    opts.cacheDir = cacheDir;

    {
        svc::Coordinator coord(opts);
        svc::Client client("127.0.0.1", coord.port());
        const auto [id, cells] = client.submit(request);
        (void)cells;
        ASSERT_EQ(client.waitUntilDone(id, 50).state,
                  svc::JobState::Done);
        EXPECT_EQ(client.fetchResults(id), expected);
        coord.stop();
        coord.join();
    }

    const std::uint64_t hits0 = counterValue("svc.cache.hit");
    const std::uint64_t cells0 = counterValue("study.cells.executed");
    {
        svc::Coordinator coord(opts);
        svc::Client client("127.0.0.1", coord.port());
        const auto [id, cells] = client.submit(request);
        (void)cells;
        ASSERT_EQ(client.waitUntilDone(id, 50).state,
                  svc::JobState::Done);
        EXPECT_EQ(client.fetchResults(id), expected);
        coord.stop();
        coord.join();
    }
    EXPECT_EQ(counterValue("svc.cache.hit") - hits0, 1u);
    EXPECT_EQ(counterValue("study.cells.executed") - cells0, 0u);
}
