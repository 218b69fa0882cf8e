#include "svc/protocol.hh"

#include <cerrno>
#include <cstdlib>
#include <cstring>

#include "util/frame.hh"
#include "util/logging.hh"

namespace fo4::svc
{

namespace
{

using util::ErrorCode;
using util::SvcError;

/** Wire payload bounds: room for the version and type words, and no
 *  more than kMaxPayloadBytes. */
constexpr util::FrameLimits kWireLimits{4, kMaxPayloadBytes};

[[noreturn]] void
throwProtocol(const std::string &what)
{
    throw SvcError(ErrorCode::Protocol, "wire protocol: " + what);
}

/** Split `body` into lines (no trailing-newline requirement). */
std::vector<std::string_view>
splitLines(std::string_view body)
{
    std::vector<std::string_view> lines;
    std::size_t start = 0;
    while (start <= body.size()) {
        const auto nl = body.find('\n', start);
        if (nl == std::string_view::npos) {
            if (start < body.size())
                lines.push_back(body.substr(start));
            break;
        }
        lines.push_back(body.substr(start, nl - start));
        start = nl + 1;
    }
    return lines;
}

/** Split "key=value"; throws Protocol when '=' is missing. */
std::pair<std::string_view, std::string_view>
splitKeyValue(std::string_view line)
{
    const auto eq = line.find('=');
    if (eq == std::string_view::npos)
        throwProtocol(util::strprintf("line '%.*s' is not key=value",
                                      static_cast<int>(line.size()),
                                      line.data()));
    return {line.substr(0, eq), line.substr(eq + 1)};
}

std::uint64_t
parseU64(std::string_view text, const char *what)
{
    const std::string copy(text);
    char *end = nullptr;
    errno = 0;
    const unsigned long long v = std::strtoull(copy.c_str(), &end, 10);
    if (end == copy.c_str() || *end != '\0' || errno != 0 ||
        copy.find('-') != std::string::npos) {
        throwProtocol(util::strprintf("%s: '%s' is not an unsigned "
                                      "integer",
                                      what, copy.c_str()));
    }
    return v;
}

double
parseHexDouble(std::string_view text, const char *what)
{
    const std::string copy(text);
    char *end = nullptr;
    const double v = std::strtod(copy.c_str(), &end);
    if (end == copy.c_str() || *end != '\0') {
        throwProtocol(util::strprintf("%s: '%s' is not a number", what,
                                      copy.c_str()));
    }
    return v;
}

/** The words of a space-separated list (empty words skipped). */
std::vector<std::string_view>
splitSpaces(std::string_view text)
{
    std::vector<std::string_view> words;
    std::size_t start = 0;
    while (start < text.size()) {
        auto space = text.find(' ', start);
        if (space == std::string_view::npos)
            space = text.size();
        if (space > start)
            words.push_back(text.substr(start, space - start));
        start = space + 1;
    }
    return words;
}

/** Split on tabs (fields themselves are escapeField-escaped). */
std::vector<std::string_view>
splitTabs(std::string_view line)
{
    std::vector<std::string_view> fields;
    std::size_t start = 0;
    for (;;) {
        const auto tab = line.find('\t', start);
        if (tab == std::string_view::npos) {
            fields.push_back(line.substr(start));
            return fields;
        }
        fields.push_back(line.substr(start, tab - start));
        start = tab + 1;
    }
}

trace::BenchClass
benchClassFromInt(std::uint64_t v)
{
    if (v > static_cast<std::uint64_t>(trace::BenchClass::NonVectorFp))
        throwProtocol(util::strprintf("unknown benchmark class %llu",
                                      static_cast<unsigned long long>(v)));
    return static_cast<trace::BenchClass>(v);
}

} // namespace

bool
msgTypeKnown(std::uint16_t raw)
{
    switch (static_cast<MsgType>(raw)) {
      case MsgType::SubmitSweep:
      case MsgType::Poll:
      case MsgType::FetchResults:
      case MsgType::Cancel:
      case MsgType::Stats:
      case MsgType::Workers:
      case MsgType::WorkerHello:
      case MsgType::LeaseRequest:
      case MsgType::CellDone:
      case MsgType::Heartbeat:
      case MsgType::SubmitOk:
      case MsgType::JobStatus:
      case MsgType::Results:
      case MsgType::CancelOk:
      case MsgType::StatsReport:
      case MsgType::Error:
      case MsgType::HelloOk:
      case MsgType::CellLease:
      case MsgType::NoWork:
      case MsgType::DoneOk:
      case MsgType::HeartbeatOk:
      case MsgType::WorkerReport:
        return true;
    }
    return false;
}

std::string
encodeFrame(MsgType type, std::string_view body)
{
    FO4_ASSERT(body.size() + 4 <= kMaxPayloadBytes,
               "frame body too large (%zu bytes)", body.size());
    unsigned char words[4];
    util::putU16(words, kProtocolVersion);
    util::putU16(words + 2, static_cast<std::uint16_t>(type));
    std::string frame;
    util::appendFrame(
        frame,
        std::string_view(reinterpret_cast<const char *>(words), sizeof(words)),
        body);
    return frame;
}

FrameHeader
decodeFrameHeader(const unsigned char (&header)[kFrameHeaderBytes])
{
    // Bound-check before anyone allocates: a corrupt length word must
    // cost a typed error, not a 4 GiB allocation.  A well-formed head
    // scans as a torn tail — its payload has not been read yet.
    const util::ScannedFrame head = util::scanFrame(
        std::string_view(reinterpret_cast<const char *>(header),
                         kFrameHeaderBytes),
        kWireLimits);
    if (head.verdict == util::FrameVerdict::Oversize) {
        if (head.length > kMaxPayloadBytes) {
            throwProtocol(util::strprintf(
                "oversize frame: length word %u exceeds the %u-byte "
                "limit",
                head.length, kMaxPayloadBytes));
        }
        throwProtocol(util::strprintf(
            "runt frame: %u-byte payload cannot hold version and type",
            head.length));
    }
    return FrameHeader{head.length, head.storedCrc};
}

Frame
decodePayload(const FrameHeader &header, std::string_view payload)
{
    if (payload.size() != header.payloadBytes) {
        throwProtocol(util::strprintf(
            "payload size %zu does not match the header's %u",
            payload.size(), header.payloadBytes));
    }
    if (const util::ScannedFrame checked =
            util::verifyFramePayload(header.crc, payload);
        checked.verdict != util::FrameVerdict::Ok) {
        throwProtocol(util::strprintf(
            "payload CRC mismatch (stored %08x, computed %08x)",
            header.crc, checked.computedCrc));
    }
    const auto *words =
        reinterpret_cast<const unsigned char *>(payload.data());
    if (const std::uint16_t version = util::getU16(words);
        version != kProtocolVersion) {
        throwProtocol(util::strprintf(
            "protocol version %u, this build speaks %u", version,
            kProtocolVersion));
    }
    const std::uint16_t rawType = util::getU16(words + 2);
    if (!msgTypeKnown(rawType))
        throwProtocol(util::strprintf("unknown record type %u", rawType));

    Frame frame;
    frame.type = static_cast<MsgType>(rawType);
    frame.body.assign(payload.substr(4));
    return frame;
}

std::optional<Frame>
readFrame(util::TcpStream &stream, int timeoutMs)
{
    unsigned char header[kFrameHeaderBytes];
    if (!stream.readExact(header, sizeof(header), timeoutMs))
        return std::nullopt; // orderly EOF between frames
    const FrameHeader h = decodeFrameHeader(header);
    std::string payload;
    payload.resize(h.payloadBytes);
    if (!stream.readExact(payload.data(), payload.size(), timeoutMs)) {
        throwProtocol(util::strprintf(
            "truncated frame: peer closed before %u payload bytes",
            h.payloadBytes));
    }
    return decodePayload(h, payload);
}

void
writeFrame(util::TcpStream &stream, MsgType type, std::string_view body,
           int timeoutMs)
{
    const std::string frame = encodeFrame(type, body);
    stream.writeAll(frame.data(), frame.size(), timeoutMs);
}

std::string
escapeField(std::string_view text)
{
    std::string out;
    out.reserve(text.size());
    for (const char c : text) {
        switch (c) {
          case '\\':
            out += "\\\\";
            break;
          case '\n':
            out += "\\n";
            break;
          case '\t':
            out += "\\t";
            break;
          default:
            out += c;
        }
    }
    return out;
}

std::string
unescapeField(std::string_view text)
{
    std::string out;
    out.reserve(text.size());
    for (std::size_t i = 0; i < text.size(); ++i) {
        if (text[i] != '\\') {
            out += text[i];
            continue;
        }
        if (i + 1 >= text.size())
            throwProtocol("dangling escape at end of field");
        switch (text[++i]) {
          case '\\':
            out += '\\';
            break;
          case 'n':
            out += '\n';
            break;
          case 't':
            out += '\t';
            break;
          default:
            throwProtocol(util::strprintf("unknown escape '\\%c'",
                                          text[i]));
        }
    }
    return out;
}

std::string
SweepRequest::encode() const
{
    std::string out;
    out += "model=" + model + "\n";
    out += "predictor=" + predictor + "\n";
    out += util::strprintf("instructions=%llu\n",
                           static_cast<unsigned long long>(instructions));
    out += util::strprintf("warmup=%llu\n",
                           static_cast<unsigned long long>(warmup));
    out += util::strprintf("prewarm=%llu\n",
                           static_cast<unsigned long long>(prewarm));
    out += util::strprintf("cycle_limit=%llu\n",
                           static_cast<unsigned long long>(cycleLimit));
    out += util::strprintf("overhead=%a\n", overheadFo4);
    // The default tenant is omitted, keeping pre-tenant request bodies
    // byte-stable.
    if (!tenant.empty())
        out += "tenant=" + tenant + "\n";
    // A deterministic sweep (mcSamples == 0) omits every mc_* field,
    // keeping pre-v4 request bodies byte-stable.
    if (mcSamples > 0) {
        out += util::strprintf("mc_samples=%llu\n",
                               static_cast<unsigned long long>(mcSamples));
        out += "mc_dist=" + mcDist + "\n";
        out += util::strprintf("mc_sigma_latch=%a\n", mcSigmaLatch);
        out += util::strprintf("mc_sigma_skew=%a\n", mcSigmaSkew);
        out += util::strprintf("mc_sigma_jitter=%a\n", mcSigmaJitter);
        out += util::strprintf("mc_sigma_die=%a\n", mcSigmaDie);
        out += util::strprintf("mc_seed=%llu\n",
                               static_cast<unsigned long long>(mcSeed));
    }
    out += "t_useful=";
    for (std::size_t i = 0; i < tUseful.size(); ++i)
        out += util::strprintf(i ? " %a" : "%a", tUseful[i]);
    out += "\n";
    for (const auto &job : jobs) {
        out += util::strprintf(
            "job=%s\t%d\t%llu\t", job.fromTrace ? "trace" : "profile",
            static_cast<int>(job.cls),
            static_cast<unsigned long long>(job.cycleLimit));
        out += escapeField(job.name);
        if (job.fromTrace) {
            out += '\t';
            out += escapeField(job.tracePath);
        }
        out += "\n";
    }
    return out;
}

SweepRequest
SweepRequest::decode(std::string_view body)
{
    SweepRequest req;
    req.tUseful.clear();
    req.jobs.clear();
    bool sawUseful = false;
    for (const auto line : splitLines(body)) {
        if (line.empty())
            continue;
        const auto [key, value] = splitKeyValue(line);
        if (key == "model") {
            req.model = std::string(value);
            if (req.model != "ooo" && req.model != "inorder")
                throwProtocol("model must be 'ooo' or 'inorder', got '" +
                              req.model + "'");
        } else if (key == "predictor") {
            req.predictor = std::string(value);
        } else if (key == "instructions") {
            req.instructions = parseU64(value, "instructions");
        } else if (key == "warmup") {
            req.warmup = parseU64(value, "warmup");
        } else if (key == "prewarm") {
            req.prewarm = parseU64(value, "prewarm");
        } else if (key == "cycle_limit") {
            req.cycleLimit = parseU64(value, "cycle_limit");
        } else if (key == "overhead") {
            req.overheadFo4 = parseHexDouble(value, "overhead");
        } else if (key == "tenant") {
            req.tenant = std::string(value);
            if (req.tenant.empty() || req.tenant.size() > 64)
                throwProtocol("tenant must be 1..64 characters");
            for (const char c : req.tenant) {
                const bool ok = (c >= 'a' && c <= 'z') ||
                                (c >= 'A' && c <= 'Z') ||
                                (c >= '0' && c <= '9') || c == '.' ||
                                c == '_' || c == '-';
                if (!ok) {
                    throwProtocol(
                        "tenant may only contain [A-Za-z0-9._-]");
                }
            }
        } else if (key == "mc_samples") {
            req.mcSamples = parseU64(value, "mc_samples");
        } else if (key == "mc_dist") {
            req.mcDist = std::string(value);
            if (req.mcDist != "normal" && req.mcDist != "lognormal") {
                throwProtocol(
                    "mc_dist must be 'normal' or 'lognormal', got '" +
                    req.mcDist + "'");
            }
        } else if (key == "mc_sigma_latch") {
            req.mcSigmaLatch = parseHexDouble(value, "mc_sigma_latch");
        } else if (key == "mc_sigma_skew") {
            req.mcSigmaSkew = parseHexDouble(value, "mc_sigma_skew");
        } else if (key == "mc_sigma_jitter") {
            req.mcSigmaJitter = parseHexDouble(value, "mc_sigma_jitter");
        } else if (key == "mc_sigma_die") {
            req.mcSigmaDie = parseHexDouble(value, "mc_sigma_die");
        } else if (key == "mc_seed") {
            req.mcSeed = parseU64(value, "mc_seed");
        } else if (key == "t_useful") {
            sawUseful = true;
            for (const auto word : splitSpaces(value))
                req.tUseful.push_back(parseHexDouble(word, "t_useful"));
        } else if (key == "job") {
            const auto fields = splitTabs(value);
            if (fields.size() < 4)
                throwProtocol("job line needs kind, class, cycle_limit "
                              "and name");
            WireJob job;
            if (fields[0] == "profile") {
                job.fromTrace = false;
                if (fields.size() != 4)
                    throwProtocol("profile job takes exactly 4 fields");
            } else if (fields[0] == "trace") {
                job.fromTrace = true;
                if (fields.size() != 5)
                    throwProtocol("trace job takes exactly 5 fields");
                job.tracePath = unescapeField(fields[4]);
            } else {
                throwProtocol("job kind must be 'profile' or 'trace', "
                              "got '" +
                              std::string(fields[0]) + "'");
            }
            job.cls = benchClassFromInt(parseU64(fields[1], "job class"));
            job.cycleLimit = parseU64(fields[2], "job cycle_limit");
            job.name = unescapeField(fields[3]);
            if (job.name.empty())
                throwProtocol("job name is empty");
            req.jobs.push_back(std::move(job));
        } else {
            throwProtocol("unknown request field '" + std::string(key) +
                          "'");
        }
    }
    if (!sawUseful || req.tUseful.empty())
        throwProtocol("request has no t_useful axis");
    if (req.jobs.empty())
        throwProtocol("request has no jobs");
    return req;
}

const char *
jobStateName(JobState state)
{
    switch (state) {
      case JobState::Queued:
        return "Queued";
      case JobState::Running:
        return "Running";
      case JobState::Done:
        return "Done";
      case JobState::Failed:
        return "Failed";
      case JobState::Cancelled:
        return "Cancelled";
    }
    return "Unknown";
}

JobState
jobStateFromName(const std::string &name)
{
    for (const JobState s :
         {JobState::Queued, JobState::Running, JobState::Done,
          JobState::Failed, JobState::Cancelled}) {
        if (name == jobStateName(s))
            return s;
    }
    throwProtocol("unknown job state '" + name + "'");
}

std::string
JobStatusInfo::encode() const
{
    std::string out;
    out += util::strprintf("id=%llu\n",
                           static_cast<unsigned long long>(id));
    out += std::string("state=") + jobStateName(state) + "\n";
    out += util::strprintf("queue_position=%llu\n",
                           static_cast<unsigned long long>(queuePosition));
    out += util::strprintf("cells_total=%llu\n",
                           static_cast<unsigned long long>(cellsTotal));
    out += util::strprintf("cells_started=%llu\n",
                           static_cast<unsigned long long>(cellsStarted));
    out += util::strprintf("cells_done=%llu\n",
                           static_cast<unsigned long long>(cellsDone));
    out += std::string("error_code=") + util::errorCodeName(errorCode) +
           "\n";
    out += "error_message=" + escapeField(errorMessage) + "\n";
    return out;
}

JobStatusInfo
JobStatusInfo::decode(std::string_view body)
{
    JobStatusInfo info;
    for (const auto line : splitLines(body)) {
        if (line.empty())
            continue;
        const auto [key, value] = splitKeyValue(line);
        if (key == "id")
            info.id = parseU64(value, "id");
        else if (key == "state")
            info.state = jobStateFromName(std::string(value));
        else if (key == "queue_position")
            info.queuePosition = parseU64(value, "queue_position");
        else if (key == "cells_total")
            info.cellsTotal = parseU64(value, "cells_total");
        else if (key == "cells_started")
            info.cellsStarted = parseU64(value, "cells_started");
        else if (key == "cells_done")
            info.cellsDone = parseU64(value, "cells_done");
        else if (key == "error_code")
            info.errorCode = util::errorCodeFromName(std::string(value));
        else if (key == "error_message")
            info.errorMessage = unescapeField(value);
        else
            throwProtocol("unknown status field '" + std::string(key) +
                          "'");
    }
    return info;
}

std::string
StatsSnapshot::encode() const
{
    std::string out;
    const auto u64 = [&out](const char *key, std::uint64_t v) {
        out += util::strprintf("%s=%llu\n", key,
                               static_cast<unsigned long long>(v));
    };
    u64("queue_depth", queueDepth);
    u64("max_queue", maxQueue);
    u64("running_jobs", runningJobs);
    u64("running_cells_started", runningCellsStarted);
    u64("running_cells_total", runningCellsTotal);
    u64("submitted", submitted);
    u64("rejected", rejected);
    u64("completed", completed);
    u64("failed", failed);
    u64("cancelled", cancelled);
    u64("cache_bytes", cacheBytes);
    u64("cache_entries", cacheEntries);
    out += "latency_buckets=";
    for (std::size_t i = 0; i < latencyBuckets.size(); ++i) {
        out += util::strprintf(
            i ? " %llu" : "%llu",
            static_cast<unsigned long long>(latencyBuckets[i]));
    }
    out += "\n";
    u64("latency_samples", latencySamples);
    out += util::strprintf("latency_mean_ms=%a\n", latencyMeanMs);
    for (const auto &[name, value] : counters) {
        out += "counter=";
        out += escapeField(name);
        out += util::strprintf("\t%llu\n",
                               static_cast<unsigned long long>(value));
    }
    return out;
}

StatsSnapshot
StatsSnapshot::decode(std::string_view body)
{
    StatsSnapshot s;
    for (const auto line : splitLines(body)) {
        if (line.empty())
            continue;
        const auto [key, value] = splitKeyValue(line);
        if (key == "queue_depth")
            s.queueDepth = parseU64(value, "queue_depth");
        else if (key == "max_queue")
            s.maxQueue = parseU64(value, "max_queue");
        else if (key == "running_jobs")
            s.runningJobs = parseU64(value, "running_jobs");
        else if (key == "running_cells_started")
            s.runningCellsStarted = parseU64(value, "running_cells_started");
        else if (key == "running_cells_total")
            s.runningCellsTotal = parseU64(value, "running_cells_total");
        else if (key == "submitted")
            s.submitted = parseU64(value, "submitted");
        else if (key == "rejected")
            s.rejected = parseU64(value, "rejected");
        else if (key == "completed")
            s.completed = parseU64(value, "completed");
        else if (key == "failed")
            s.failed = parseU64(value, "failed");
        else if (key == "cancelled")
            s.cancelled = parseU64(value, "cancelled");
        else if (key == "cache_bytes")
            s.cacheBytes = parseU64(value, "cache_bytes");
        else if (key == "cache_entries")
            s.cacheEntries = parseU64(value, "cache_entries");
        else if (key == "latency_buckets") {
            for (const auto word : splitSpaces(value))
                s.latencyBuckets.push_back(
                    parseU64(word, "latency_buckets"));
        } else if (key == "latency_samples")
            s.latencySamples = parseU64(value, "latency_samples");
        else if (key == "latency_mean_ms")
            s.latencyMeanMs = parseHexDouble(value, "latency_mean_ms");
        else if (key == "counter") {
            const auto fields = splitTabs(value);
            if (fields.size() != 2)
                throwProtocol("counter line takes name and value");
            s.counters.emplace_back(unescapeField(fields[0]),
                                    parseU64(fields[1], "counter"));
        } else
            throwProtocol("unknown stats field '" + std::string(key) +
                          "'");
    }
    return s;
}

std::string
WorkerHelloInfo::encode() const
{
    std::string out = "name=";
    out += escapeField(name);
    out += util::strprintf("\nthreads=%llu\n",
                           static_cast<unsigned long long>(threads));
    return out;
}

WorkerHelloInfo
WorkerHelloInfo::decode(std::string_view body)
{
    WorkerHelloInfo info;
    for (const auto line : splitLines(body)) {
        if (line.empty())
            continue;
        const auto [key, value] = splitKeyValue(line);
        if (key == "name")
            info.name = unescapeField(value);
        else if (key == "threads")
            info.threads = parseU64(value, "threads");
        else
            throwProtocol("unknown hello field '" + std::string(key) +
                          "'");
    }
    if (info.threads == 0)
        throwProtocol("worker hello declares zero threads");
    return info;
}

std::string
HelloOkInfo::encode() const
{
    return util::strprintf(
        "worker_id=%llu\nheartbeat_ms=%llu\nlease_timeout_ms=%llu\n",
        static_cast<unsigned long long>(workerId),
        static_cast<unsigned long long>(heartbeatMs),
        static_cast<unsigned long long>(leaseTimeoutMs));
}

HelloOkInfo
HelloOkInfo::decode(std::string_view body)
{
    HelloOkInfo info;
    for (const auto line : splitLines(body)) {
        if (line.empty())
            continue;
        const auto [key, value] = splitKeyValue(line);
        if (key == "worker_id")
            info.workerId = parseU64(value, "worker_id");
        else if (key == "heartbeat_ms")
            info.heartbeatMs = parseU64(value, "heartbeat_ms");
        else if (key == "lease_timeout_ms")
            info.leaseTimeoutMs = parseU64(value, "lease_timeout_ms");
        else
            throwProtocol("unknown hello-ok field '" + std::string(key) +
                          "'");
    }
    return info;
}

std::string
CellLeaseInfo::encode() const
{
    std::string out = util::strprintf(
        "sweep=%llu\npoint=%llu\njob=%llu\nrequest=",
        static_cast<unsigned long long>(sweep),
        static_cast<unsigned long long>(point),
        static_cast<unsigned long long>(job));
    out += escapeField(requestBody);
    out += '\n';
    return out;
}

CellLeaseInfo
CellLeaseInfo::decode(std::string_view body)
{
    CellLeaseInfo info;
    bool sawRequest = false;
    for (const auto line : splitLines(body)) {
        if (line.empty())
            continue;
        const auto [key, value] = splitKeyValue(line);
        if (key == "sweep")
            info.sweep = parseU64(value, "sweep");
        else if (key == "point")
            info.point = parseU64(value, "point");
        else if (key == "job")
            info.job = parseU64(value, "job");
        else if (key == "request") {
            info.requestBody = unescapeField(value);
            sawRequest = true;
        } else
            throwProtocol("unknown lease field '" + std::string(key) +
                          "'");
    }
    if (!sawRequest)
        throwProtocol("cell lease has no request body");
    return info;
}

std::string
CellDoneInfo::encode() const
{
    // Like every escaped field, the payload is appended as bytes.
    std::string body = util::strprintf(
        "worker_id=%llu\nsweep=%llu\npoint=%llu\njob=%llu\ncell=",
        static_cast<unsigned long long>(workerId),
        static_cast<unsigned long long>(sweep),
        static_cast<unsigned long long>(point),
        static_cast<unsigned long long>(job));
    body += escapeField(cellPayload);
    body += '\n';
    return body;
}

CellDoneInfo
CellDoneInfo::decode(std::string_view body)
{
    CellDoneInfo info;
    bool sawCell = false;
    for (const auto line : splitLines(body)) {
        if (line.empty())
            continue;
        const auto [key, value] = splitKeyValue(line);
        if (key == "worker_id")
            info.workerId = parseU64(value, "worker_id");
        else if (key == "sweep")
            info.sweep = parseU64(value, "sweep");
        else if (key == "point")
            info.point = parseU64(value, "point");
        else if (key == "job")
            info.job = parseU64(value, "job");
        else if (key == "cell") {
            info.cellPayload = unescapeField(value);
            sawCell = true;
        } else
            throwProtocol("unknown cell-done field '" + std::string(key) +
                          "'");
    }
    if (!sawCell)
        throwProtocol("cell-done has no cell payload");
    return info;
}

const char *
workerStateName(WorkerState state)
{
    switch (state) {
      case WorkerState::Live:
        return "Live";
      case WorkerState::Suspect:
        return "Suspect";
      case WorkerState::Dead:
        return "Dead";
    }
    return "Unknown";
}

WorkerState
workerStateFromName(const std::string &name)
{
    for (const WorkerState s :
         {WorkerState::Live, WorkerState::Suspect, WorkerState::Dead}) {
        if (name == workerStateName(s))
            return s;
    }
    throwProtocol("unknown worker state '" + name + "'");
}

std::string
WorkerSnapshot::encodeList(const std::vector<WorkerSnapshot> &rows)
{
    std::string out;
    for (const auto &w : rows) {
        out += util::strprintf("worker=%llu\t",
                               static_cast<unsigned long long>(w.id));
        out += escapeField(w.name);
        out += util::strprintf(
            "\t%s\t%llu\t%llu\t%llu\n", workerStateName(w.state),
            static_cast<unsigned long long>(w.activeLeases),
            static_cast<unsigned long long>(w.cellsCompleted),
            static_cast<unsigned long long>(w.heartbeatAgeMs));
    }
    return out;
}

std::vector<WorkerSnapshot>
WorkerSnapshot::decodeList(std::string_view body)
{
    std::vector<WorkerSnapshot> rows;
    for (const auto line : splitLines(body)) {
        if (line.empty())
            continue;
        const auto [key, value] = splitKeyValue(line);
        if (key != "worker")
            throwProtocol("unknown worker-report field '" +
                          std::string(key) + "'");
        const auto fields = splitTabs(value);
        if (fields.size() != 6)
            throwProtocol("worker line takes id, name, state, leases, "
                          "completed and heartbeat age");
        WorkerSnapshot w;
        w.id = parseU64(fields[0], "worker id");
        w.name = unescapeField(fields[1]);
        w.state = workerStateFromName(std::string(fields[2]));
        w.activeLeases = parseU64(fields[3], "active leases");
        w.cellsCompleted = parseU64(fields[4], "cells completed");
        w.heartbeatAgeMs = parseU64(fields[5], "heartbeat age");
        rows.push_back(std::move(w));
    }
    return rows;
}

namespace
{

/** Shared shape of the one-field numeric bodies. */
std::string
encodeOneU64(const char *key, std::uint64_t v)
{
    return util::strprintf("%s=%llu\n", key,
                           static_cast<unsigned long long>(v));
}

std::uint64_t
decodeOneU64(std::string_view body, const char *key)
{
    std::optional<std::uint64_t> v;
    for (const auto line : splitLines(body)) {
        if (line.empty())
            continue;
        const auto [k, value] = splitKeyValue(line);
        if (k != key) {
            throwProtocol(util::strprintf("unknown %s field '%.*s'", key,
                                          static_cast<int>(k.size()),
                                          k.data()));
        }
        v = parseU64(value, key);
    }
    if (!v)
        throwProtocol(util::strprintf("body has no %s", key));
    return *v;
}

bool
decodeOneFlag(std::string_view body, const char *key)
{
    const std::uint64_t v = decodeOneU64(body, key);
    if (v > 1)
        throwProtocol(util::strprintf("%s must be 0 or 1", key));
    return v != 0;
}

} // namespace

std::string
encodeWorkerId(std::uint64_t id)
{
    return encodeOneU64("worker_id", id);
}

std::uint64_t
decodeWorkerId(std::string_view body)
{
    return decodeOneU64(body, "worker_id");
}

std::string
encodeRetryMs(std::uint64_t retryMs)
{
    return encodeOneU64("retry_ms", retryMs);
}

std::uint64_t
decodeRetryMs(std::string_view body)
{
    return decodeOneU64(body, "retry_ms");
}

std::string
encodeAccepted(bool accepted)
{
    return encodeOneU64("accepted", accepted ? 1 : 0);
}

bool
decodeAccepted(std::string_view body)
{
    return decodeOneFlag(body, "accepted");
}

std::string
encodeKnown(bool known)
{
    return encodeOneU64("known", known ? 1 : 0);
}

bool
decodeKnown(std::string_view body)
{
    return decodeOneFlag(body, "known");
}

std::string
encodeError(util::ErrorCode code, std::string_view message)
{
    return std::string("code=") + util::errorCodeName(code) +
           "\nmessage=" + escapeField(message) + "\n";
}

std::pair<util::ErrorCode, std::string>
decodeError(std::string_view body)
{
    util::ErrorCode code = ErrorCode::Internal;
    std::string message;
    for (const auto line : splitLines(body)) {
        if (line.empty())
            continue;
        const auto [key, value] = splitKeyValue(line);
        if (key == "code")
            code = util::errorCodeFromName(std::string(value));
        else if (key == "message")
            message = unescapeField(value);
        else
            throwProtocol("unknown error field '" + std::string(key) +
                          "'");
    }
    return {code, message};
}

std::string
encodeId(std::uint64_t id)
{
    return encodeOneU64("id", id);
}

std::uint64_t
decodeId(std::string_view body)
{
    return decodeOneU64(body, "id");
}

std::string
encodeSubmitOk(std::uint64_t id, std::uint64_t cellsTotal)
{
    return util::strprintf("id=%llu\ncells_total=%llu\n",
                           static_cast<unsigned long long>(id),
                           static_cast<unsigned long long>(cellsTotal));
}

std::pair<std::uint64_t, std::uint64_t>
decodeSubmitOk(std::string_view body)
{
    std::optional<std::uint64_t> id;
    std::optional<std::uint64_t> cells;
    for (const auto line : splitLines(body)) {
        if (line.empty())
            continue;
        const auto [key, value] = splitKeyValue(line);
        if (key == "id")
            id = parseU64(value, "id");
        else if (key == "cells_total")
            cells = parseU64(value, "cells_total");
        else
            throwProtocol("unknown submit-ok field '" +
                          std::string(key) + "'");
    }
    if (!id)
        throwProtocol("body has no id");
    if (!cells)
        throwProtocol("body has no cells_total");
    return {*id, *cells};
}

} // namespace fo4::svc
