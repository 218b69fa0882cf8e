#include "svc/client.hh"

#include <chrono>
#include <thread>

#include "util/logging.hh"
#include "util/metrics.hh"

namespace fo4::svc
{

using util::ErrorCode;
using util::SvcError;

namespace
{

/** Throws SvcError(Protocol) unless `response` is a `want` record. */
void
checkType(const Frame &response, MsgType want)
{
    if (response.type != want) {
        throw SvcError(ErrorCode::Protocol,
                       util::strprintf(
                           "expected record type %u, server sent %u",
                           static_cast<unsigned>(want),
                           static_cast<unsigned>(response.type)));
    }
}

} // namespace

Client::Client(const std::string &hostIn, std::uint16_t portIn,
               Options options)
    : host(hostIn), port(portIn), opts(std::move(options))
{
    if (opts.connectTimeoutMs <= 0 || opts.ioTimeoutMs <= 0) {
        throw util::ConfigError(
            "client timeouts must be positive milliseconds");
    }
    if (const auto st = opts.retry.validate(); !st.isOk())
        throw util::ConfigError("reconnect policy: " + st.message());
    stream = util::TcpStream::connect(host, port, opts.connectTimeoutMs);
}

Client::Client(const std::string &hostIn, std::uint16_t portIn)
    : Client(hostIn, portIn, Options{})
{
}

Frame
Client::roundTrip(MsgType type, std::string_view body, bool idempotent)
{
    static util::MetricCounter &reconnects =
        util::MetricsRegistry::global().counter("svc.client.reconnects");
    for (int attempt = 1;; ++attempt) {
        bool wrote = false;
        try {
            if (!stream.connected()) {
                stream = util::TcpStream::connect(host, port,
                                                  opts.connectTimeoutMs);
            }
            writeFrame(stream, type, body, opts.ioTimeoutMs);
            wrote = true;
            const std::optional<Frame> response =
                readFrame(stream, opts.ioTimeoutMs);
            if (!response) {
                throw SvcError(
                    ErrorCode::NetIo,
                    "server closed the connection without replying");
            }
            if (response->type == MsgType::Error) {
                // Preserve the remote verdict: the caller handles a
                // server-side Overloaded/NotFound/Deadlock exactly like
                // a local one.  A verdict is never transport trouble,
                // so it is never retried.
                const auto [code, message] = decodeError(response->body);
                throw SvcError(code, message);
            }
            return *response;
        } catch (const SvcError &e) {
            if (e.code() != ErrorCode::NetIo)
                throw;
            stream.close();
            // A submit whose bytes reached the wire may already be
            // queued server-side; resubmitting would run it twice.
            if (!opts.reconnect || attempt >= opts.retry.maxAttempts ||
                (wrote && !idempotent))
                throw;
            reconnects.inc();
            std::this_thread::sleep_for(
                std::chrono::duration<double, std::milli>(
                    opts.retry.delayMs(attempt + 1, /*cellKey=*/0)));
        }
    }
}

Frame
Client::expect(MsgType type, std::string_view body, MsgType want,
               bool idempotent)
{
    Frame response = roundTrip(type, body, idempotent);
    checkType(response, want);
    return response;
}

std::pair<std::uint64_t, std::uint64_t>
Client::submit(const SweepRequest &request)
{
    const Frame response = expect(MsgType::SubmitSweep, request.encode(),
                                  MsgType::SubmitOk,
                                  /*idempotent=*/false);
    return decodeSubmitOk(response.body);
}

JobStatusInfo
Client::poll(std::uint64_t id)
{
    const Frame response =
        expect(MsgType::Poll, encodeId(id), MsgType::JobStatus);
    return JobStatusInfo::decode(response.body);
}

std::string
Client::fetchResults(std::uint64_t id)
{
    Frame response =
        expect(MsgType::FetchResults, encodeId(id), MsgType::Results);
    return std::move(response.body);
}

JobStatusInfo
Client::cancel(std::uint64_t id)
{
    const Frame response =
        expect(MsgType::Cancel, encodeId(id), MsgType::CancelOk);
    return JobStatusInfo::decode(response.body);
}

StatsSnapshot
Client::stats()
{
    const Frame response =
        expect(MsgType::Stats, std::string_view{}, MsgType::StatsReport);
    return StatsSnapshot::decode(response.body);
}

std::vector<WorkerSnapshot>
Client::workers()
{
    const Frame response = expect(MsgType::Workers, std::string_view{},
                                  MsgType::WorkerReport);
    return WorkerSnapshot::decodeList(response.body);
}

HelloOkInfo
Client::workerHello(const WorkerHelloInfo &hello)
{
    // Not idempotent: a resent hello registers a second id.
    const Frame response =
        expect(MsgType::WorkerHello, hello.encode(), MsgType::HelloOk,
               /*idempotent=*/false);
    return HelloOkInfo::decode(response.body);
}

std::optional<CellLeaseInfo>
Client::requestLease(std::uint64_t workerId, std::uint64_t &retryMs)
{
    // Not idempotent: a resent request is granted a second cell.
    const Frame response = roundTrip(MsgType::LeaseRequest,
                                     encodeWorkerId(workerId),
                                     /*idempotent=*/false);
    if (response.type == MsgType::NoWork) {
        retryMs = decodeRetryMs(response.body);
        return std::nullopt;
    }
    checkType(response, MsgType::CellLease);
    return CellLeaseInfo::decode(response.body);
}

bool
Client::cellDone(const CellDoneInfo &done)
{
    const Frame response =
        expect(MsgType::CellDone, done.encode(), MsgType::DoneOk);
    return decodeAccepted(response.body);
}

bool
Client::heartbeat(std::uint64_t workerId)
{
    const Frame response = expect(MsgType::Heartbeat,
                                  encodeWorkerId(workerId),
                                  MsgType::HeartbeatOk);
    return decodeKnown(response.body);
}

JobStatusInfo
Client::waitUntilDone(std::uint64_t id, int pollMs,
                      const std::function<void(const JobStatusInfo &)>
                          &onStatus)
{
    for (;;) {
        const JobStatusInfo info = poll(id);
        if (onStatus)
            onStatus(info);
        if (info.terminal())
            return info;
        std::this_thread::sleep_for(std::chrono::milliseconds(pollMs));
    }
}

} // namespace fo4::svc
