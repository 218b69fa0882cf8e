/**
 * @file
 * End-to-end service tests over a real loopback socket: an in-process
 * svc::Server on an ephemeral port, driven by svc::Client.
 *
 * The headline assertion is the service's identity guarantee: a sweep
 * fetched over the wire is byte-identical to the same sweep run locally
 * through svc::runSweep — at thread count 1 and 8, including the
 * position and typed error of failed rows under injected faults (a
 * corrupt trace file and a watchdog-tripping cycle limit).
 *
 * Around it: admission control (queue bound 1 refuses with Overloaded),
 * cancellation of queued and running jobs, NotFound/NotReady lifecycle
 * errors, stats gauges, and a garbage-frame session that must cost the
 * connection but never the daemon.
 */

#include <gtest/gtest.h>

#include <cstdio>
#include <stdexcept>
#include <string>

#include "svc/client.hh"
#include "svc/server.hh"
#include "svc/sweep.hh"
#include "trace/capture.hh"
#include "trace/generator.hh"
#include "trace/spec2000.hh"
#include "util/metrics.hh"
#include "util/net.hh"
#include "util/status.hh"

using namespace fo4;
using util::ErrorCode;

namespace
{

std::string
tempPath(const std::string &name)
{
    const std::string path =
        std::string(::testing::TempDir()) + "/" + name;
    std::remove(path.c_str());
    return path;
}

/**
 * Record a short capture, then overwrite one byte inside its op frame
 * — the resilient_suite fault, injected here so the wire sweep carries
 * a deterministically failing row (the frame fails its CRC, so the
 * load is a typed TraceCorrupt).
 */
std::string
makeCorruptTrace()
{
    const std::string path = tempPath("svc_loopback_corrupt.fo4t");
    auto prof = trace::spec2000Profile("164.gzip");
    trace::SyntheticTraceGenerator gen(prof);
    trace::recordTrace(path, gen, 4096);
    std::FILE *f = std::fopen(path.c_str(), "rb+");
    if (f == nullptr)
        throw std::runtime_error("cannot reopen " + path);
    // Capture layout: 32-byte header, a short 'M' frame, then the first
    // 'O' frame's records — this offset lands inside that frame.
    std::fseek(f, 16 + 32 * 100 + 30, SEEK_SET);
    std::fputc(0xEE, f);
    std::fclose(f);
    return path;
}

/** A small but adversarial sweep: two healthy jobs, one corrupt-trace
 *  job, one hung job — failed rows must keep their place and verdict. */
svc::SweepRequest
faultedRequest(const std::string &corruptPath)
{
    svc::SweepRequest req;
    req.instructions = 2000;
    req.warmup = 250;
    req.prewarm = 10000;
    req.tUseful = {8.0, 6.0};

    svc::WireJob healthy;
    healthy.name = "164.gzip";
    req.jobs.push_back(healthy);

    svc::WireJob corrupt;
    corrupt.name = "corrupt-trace";
    corrupt.cls = trace::BenchClass::Integer;
    corrupt.fromTrace = true;
    corrupt.tracePath = corruptPath;
    req.jobs.push_back(corrupt);

    svc::WireJob hung;
    hung.name = "181.mcf";
    hung.cycleLimit = 10; // far below any real completion time
    req.jobs.push_back(hung);

    svc::WireJob healthy2;
    healthy2.name = "256.bzip2";
    req.jobs.push_back(healthy2);
    return req;
}

/** A sweep long enough to still be Running when we cancel it. */
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

svc::Server
makeServer(int threads, std::size_t maxQueue = 8)
{
    svc::ServerOptions options;
    options.port = 0;
    options.threads = threads;
    options.maxQueue = maxQueue;
    return svc::Server(std::move(options));
}

} // namespace

// ---------------------------------------------------------------------
// The identity guarantee
// ---------------------------------------------------------------------

TEST(SvcLoopback, FetchedResultsAreByteIdenticalToLocalRun)
{
    const std::string corruptPath = makeCorruptTrace();
    const svc::SweepRequest request = faultedRequest(corruptPath);

    // Local references: the wire form of the request, run in-process at
    // 1 and 8 threads, must agree with each other (the parallel
    // engine's contract) ...
    const svc::SweepPlan plan =
        svc::planSweep(svc::SweepRequest::decode(request.encode()));
    const std::string local1 = svc::runSweep(plan, 1, "", nullptr, {});
    const std::string local8 = svc::runSweep(plan, 8, "", nullptr, {});
    EXPECT_EQ(local1, local8);

    // ... and the failed rows must be present, in place, typed.
    EXPECT_NE(local1.find("TraceCorrupt"), std::string::npos);
    EXPECT_NE(local1.find("Deadlock"), std::string::npos);

    // Served at 8 worker threads.
    svc::Server server8 = makeServer(8);
    {
        svc::Client client("127.0.0.1", server8.port());
        const auto [id, cells] = client.submit(request);
        EXPECT_EQ(cells, 2u * 4u);
        const svc::JobStatusInfo done = client.waitUntilDone(id, 50);
        ASSERT_EQ(done.state, svc::JobState::Done) << done.errorMessage;
        EXPECT_EQ(done.cellsStarted, cells);
        EXPECT_EQ(client.fetchResults(id), local1);
    }
    server8.stop();
    server8.join();

    // Served serially: same bytes again.
    svc::Server server1 = makeServer(1);
    {
        svc::Client client("127.0.0.1", server1.port());
        const auto [id, cells] = client.submit(request);
        (void)cells;
        client.waitUntilDone(id, 50);
        EXPECT_EQ(client.fetchResults(id), local1);
    }
    server1.stop();
    server1.join();
}

// ---------------------------------------------------------------------
// Lifecycle and admission control
// ---------------------------------------------------------------------

TEST(SvcLoopback, UnknownIdIsNotFound)
{
    svc::Server server = makeServer(1);
    svc::Client client("127.0.0.1", server.port());
    try {
        client.poll(424242);
        FAIL() << "poll of unknown id succeeded";
    } catch (const util::SvcError &e) {
        EXPECT_EQ(e.code(), ErrorCode::NotFound);
    }
    try {
        client.fetchResults(424242);
        FAIL() << "fetch of unknown id succeeded";
    } catch (const util::SvcError &e) {
        EXPECT_EQ(e.code(), ErrorCode::NotFound);
    }
    server.stop();
    server.join();
}

TEST(SvcLoopback, InvalidRequestIsRefusedAtSubmit)
{
    svc::Server server = makeServer(1);
    svc::Client client("127.0.0.1", server.port());
    svc::SweepRequest request;
    request.tUseful = {6.0};
    svc::WireJob job;
    job.name = "999.does-not-exist";
    request.jobs.push_back(job);
    try {
        client.submit(request);
        FAIL() << "unknown profile accepted";
    } catch (const util::SvcError &e) {
        EXPECT_EQ(e.code(), ErrorCode::InvalidConfig);
    }
    // The refusal cost nothing: the connection still works.
    EXPECT_EQ(client.stats().submitted, 0u);
    server.stop();
    server.join();
}

TEST(SvcLoopback, FullQueueRefusesWithOverloadedAndNotReadyWhileRunning)
{
    svc::Server server = makeServer(1, /*maxQueue=*/1);
    svc::Client client("127.0.0.1", server.port());

    const auto [running, runningCells] = client.submit(longRequest());
    (void)runningCells;
    // Wait until the dispatcher owns it, so the queue slot is free.
    while (client.poll(running).state == svc::JobState::Queued)
        ;

    // Results before completion: a typed NotReady, not a hang.
    try {
        client.fetchResults(running);
        FAIL() << "fetch of a running job succeeded";
    } catch (const util::SvcError &e) {
        EXPECT_EQ(e.code(), ErrorCode::NotReady);
    }

    const auto [queued, queuedCells] = client.submit(longRequest());
    (void)queuedCells;
    EXPECT_EQ(client.poll(queued).state, svc::JobState::Queued);
    EXPECT_EQ(client.poll(queued).queuePosition, 1u);

    // The bound is 1 and the slot is taken: admission refuses.
    try {
        client.submit(longRequest());
        FAIL() << "submit beyond the queue bound succeeded";
    } catch (const util::SvcError &e) {
        EXPECT_EQ(e.code(), ErrorCode::Overloaded);
    }
    EXPECT_EQ(client.stats().rejected, 1u);

    // Cancel the queued job: it never ran, terminal immediately.
    const svc::JobStatusInfo cancelled = client.cancel(queued);
    EXPECT_EQ(cancelled.state, svc::JobState::Cancelled);
    EXPECT_EQ(cancelled.cellsStarted, 0u);

    // Cancel the running job: cooperative drain, then terminal.
    client.cancel(running);
    const svc::JobStatusInfo drained = client.waitUntilDone(running, 50);
    EXPECT_EQ(drained.state, svc::JobState::Cancelled);
    try {
        client.fetchResults(running);
        FAIL() << "fetch of a cancelled job succeeded";
    } catch (const util::SvcError &e) {
        EXPECT_EQ(e.code(), ErrorCode::Cancelled);
    }

    const svc::StatsSnapshot stats = client.stats();
    EXPECT_EQ(stats.submitted, 2u);
    EXPECT_EQ(stats.rejected, 1u);
    EXPECT_EQ(stats.cancelled, 2u);
    EXPECT_EQ(stats.queueDepth, 0u);
    EXPECT_EQ(stats.maxQueue, 1u);
    server.stop();
    server.join();
}

TEST(SvcLoopback, CancelIsIdempotentOnTerminalJobs)
{
    svc::Server server = makeServer(1);
    svc::Client client("127.0.0.1", server.port());
    const auto [id, cells] = client.submit(longRequest());
    (void)cells;
    client.cancel(id);
    const svc::JobStatusInfo first = client.waitUntilDone(id, 50);
    EXPECT_EQ(first.state, svc::JobState::Cancelled);
    const svc::JobStatusInfo second = client.cancel(id);
    EXPECT_EQ(second.state, svc::JobState::Cancelled);
    EXPECT_EQ(client.stats().cancelled, 1u);
    server.stop();
    server.join();
}

// ---------------------------------------------------------------------
// Hostile peers
// ---------------------------------------------------------------------

TEST(SvcLoopback, GarbageFramesCostTheSessionNeverTheServer)
{
    const bool wasEnabled = util::setMetricsEnabled(true);
    util::MetricsRegistry::global()
        .counter("svc.protocol_errors")
        .reset();
    svc::Server server = makeServer(1);

    {
        // A frame whose CRC cannot match: typed Error frame back, then
        // the server hangs up on us.
        util::TcpStream raw =
            util::TcpStream::connect("127.0.0.1", server.port());
        std::string frame = svc::encodeFrame(svc::MsgType::Stats, "");
        // flip a payload byte (body empty, so damage the type word)
        frame[svc::kFrameHeaderBytes + 2] ^= 0x55;
        raw.writeAll(frame.data(), frame.size());
        const auto reply = svc::readFrame(raw, 5000);
        ASSERT_TRUE(reply.has_value());
        EXPECT_EQ(reply->type, svc::MsgType::Error);
        const auto [code, message] = svc::decodeError(reply->body);
        EXPECT_EQ(code, ErrorCode::Protocol);
        (void)message;
        // The server closes the session after a protocol error.
        EXPECT_FALSE(svc::readFrame(raw, 5000).has_value());
    }

    {
        // An oversize length word: refused before any allocation.
        util::TcpStream raw =
            util::TcpStream::connect("127.0.0.1", server.port());
        unsigned char header[svc::kFrameHeaderBytes] = {};
        const std::uint32_t huge = 0xffffffffu;
        for (int i = 0; i < 4; ++i)
            header[i] = static_cast<unsigned char>(huge >> (8 * i));
        raw.writeAll(header, sizeof(header));
        const auto reply = svc::readFrame(raw, 5000);
        ASSERT_TRUE(reply.has_value());
        EXPECT_EQ(reply->type, svc::MsgType::Error);
    }

    {
        // A truncated frame: header promises more payload than we send.
        util::TcpStream raw =
            util::TcpStream::connect("127.0.0.1", server.port());
        const std::string frame =
            svc::encodeFrame(svc::MsgType::Stats, "padding-bytes");
        raw.writeAll(frame.data(), frame.size() - 6);
        raw.close();
    }

    // The daemon survived all three: a fresh, honest session works.
    svc::Client client("127.0.0.1", server.port());
    const svc::StatsSnapshot stats = client.stats();
    EXPECT_EQ(stats.submitted, 0u);
    EXPECT_GE(util::MetricsRegistry::global().value(
                  "svc.protocol_errors"),
              2u);
    server.stop();
    server.join();
    util::setMetricsEnabled(wasEnabled);
}

TEST(SvcLoopback, ResponseTypeSentAsRequestIsProtocolError)
{
    svc::Server server = makeServer(1);
    util::TcpStream raw =
        util::TcpStream::connect("127.0.0.1", server.port());
    svc::writeFrame(raw, svc::MsgType::Results, "not a request");
    const auto reply = svc::readFrame(raw, 5000);
    ASSERT_TRUE(reply.has_value());
    EXPECT_EQ(reply->type, svc::MsgType::Error);
    const auto [code, message] = svc::decodeError(reply->body);
    EXPECT_EQ(code, ErrorCode::Protocol);
    (void)message;
    server.stop();
    server.join();
}

// ---------------------------------------------------------------------
// Shutdown drain
// ---------------------------------------------------------------------

TEST(SvcLoopback, StopDrainsQueuedAndRunningJobs)
{
    svc::Server server = makeServer(1);
    std::uint64_t runningId = 0;
    std::uint64_t queuedId = 0;
    {
        svc::Client client("127.0.0.1", server.port());
        runningId = client.submit(longRequest()).first;
        while (client.poll(runningId).state == svc::JobState::Queued)
            ;
        queuedId = client.submit(longRequest()).first;
    }
    // stop() must cancel the queued job outright, drain the running one
    // cooperatively, and return with every thread joined.
    server.stop();
    server.join();
    SUCCEED();
    (void)queuedId;
}
