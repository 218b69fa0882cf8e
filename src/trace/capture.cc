#include "trace/capture.hh"

#include <cstring>

#include "trace/trace_codec.hh"
#include "util/frame.hh"
#include "util/logging.hh"
#include "util/status.hh"

namespace fo4::trace
{

namespace
{

constexpr char kMagic[8] = {'F', 'O', '4', 'C', 'A', 'P', 'T', 'R'};
constexpr util::FrameLimits kCaptureLimits{1, kMaxCaptureFrame};

[[noreturn]] void
throwIo(const std::string &message)
{
    throw util::TraceError(util::ErrorCode::TraceIo, "capture " + message);
}

[[noreturn]] void
throwCorrupt(const std::string &message)
{
    throw util::TraceError(util::ErrorCode::TraceCorrupt, message);
}

std::string
serializeMeta(const CaptureMeta &meta)
{
    std::string text;
    for (const auto &[key, value] : meta) {
        if (key.empty() || key.find('=') != std::string::npos ||
            key.find('\n') != std::string::npos) {
            throw util::ConfigError(util::strprintf(
                "capture meta key '%s' must be non-empty and free of "
                "'=' and newlines",
                key.c_str()));
        }
        if (value.find('\n') != std::string::npos) {
            throw util::ConfigError(util::strprintf(
                "capture meta value for '%s' must not contain newlines",
                key.c_str()));
        }
        text += key;
        text += '=';
        text += value;
        text += '\n';
    }
    return text;
}

void
parseMeta(const unsigned char *body, std::size_t size,
          const std::string &path, CaptureMeta &meta)
{
    std::size_t lineStart = 0;
    for (std::size_t i = 0; i <= size; ++i) {
        if (i < size && body[i] != '\n')
            continue;
        if (i == size && lineStart == size)
            break; // text ended cleanly on a newline
        const std::string line(reinterpret_cast<const char *>(body) +
                                   lineStart,
                               i - lineStart);
        const std::size_t eq = line.find('=');
        if (i == size || eq == std::string::npos || eq == 0) {
            throwCorrupt(util::strprintf(
                "capture '%s': malformed meta frame line '%s'",
                path.c_str(), line.c_str()));
        }
        meta.emplace_back(line.substr(0, eq), line.substr(eq + 1));
        lineStart = i + 1;
    }
}

} // namespace

CaptureContents
readCapture(const std::string &path)
{
    const util::WholeFile file = util::readWholeFile(path);
    if (!file.ok()) {
        throw util::TraceError(
            util::ErrorCode::TraceIo,
            util::strprintf("%s capture file '%s': %s",
                            file.opened ? "cannot read" : "cannot open",
                            path.c_str(), std::strerror(file.error)));
    }
    const std::string &data = file.bytes;

    const util::FileHeader header =
        util::checkFileHeader(data, kMagic, kCaptureVersion);
    if (header.verdict != util::HeaderVerdict::Ok) {
        throw util::TraceError(header.verdict == util::HeaderVerdict::BadCrc
                                   ? util::ErrorCode::TraceCorrupt
                                   : util::ErrorCode::TraceFormat,
                               header.describe("capture", path));
    }

    CaptureContents out;
    std::size_t frame = 0;
    const auto onFrame = [&](std::string_view payload) {
        if (out.finalized) {
            throwCorrupt(util::strprintf(
                "capture '%s': frame %zu follows the end frame",
                path.c_str(), frame));
        }
        const auto *body =
            reinterpret_cast<const unsigned char *>(payload.data()) + 1;
        const std::size_t bodyLen = payload.size() - 1;
        switch (payload[0]) {
          case 'M':
            parseMeta(body, bodyLen, path, out.meta);
            break;
          case 'O':
            appendCheckedRecords(body, bodyLen, path, out.ops);
            break;
          case 'E': {
            if (bodyLen != 8) {
                throwCorrupt(util::strprintf(
                    "capture '%s': malformed end frame (%zu body "
                    "bytes, expected 8)",
                    path.c_str(), bodyLen));
            }
            const std::uint64_t declared = util::getU64(body);
            if (declared != out.ops.size()) {
                throwCorrupt(util::strprintf(
                    "capture '%s': end frame declares %llu records "
                    "but %zu were read",
                    path.c_str(),
                    static_cast<unsigned long long>(declared),
                    out.ops.size()));
            }
            out.finalized = true;
            break;
          }
          default:
            throwCorrupt(util::strprintf(
                "capture '%s': unknown frame kind 0x%02x in frame %zu",
                path.c_str(),
                static_cast<unsigned>(static_cast<unsigned char>(payload[0])),
                frame));
        }
        ++frame;
    };
    const util::FrameRun run = util::scanFrames(
        data, util::kFileHeaderBytes, kCaptureLimits, onFrame);
    out.tornTail = run.stop.verdict == util::FrameVerdict::TornTail;
    if (run.stop.verdict == util::FrameVerdict::Corrupt ||
        run.stop.verdict == util::FrameVerdict::Oversize) {
        throwCorrupt(util::strprintf("capture '%s': %s", path.c_str(),
                                     run.describe("frame").c_str()));
    }
    return out;
}

CaptureWriter
CaptureWriter::create(const std::string &path, const CaptureMeta &meta,
                      std::size_t opsPerFrame)
{
    if (opsPerFrame == 0)
        throw util::ConfigError("capture opsPerFrame must be positive");
    const std::string metaText = serializeMeta(meta); // validate first

    CaptureWriter w(opsPerFrame);
    if (const util::Status st = w.file.open(path, path + ".tmp");
        !st.isOk())
        throwIo(st.message());
    w.write(util::encodeFileHeader(kMagic, kCaptureVersion));
    w.writeFrame('M', metaText);
    return w;
}

CaptureWriter::CaptureWriter(std::size_t opsPerFrame)
    : opsPerFrame(opsPerFrame)
{
}

void
CaptureWriter::write(std::string_view bytes)
{
    if (const util::Status st = file.write(bytes); !st.isOk()) {
        file.abandon();
        active = false;
        throwIo(st.message());
    }
}

void
CaptureWriter::writeFrame(char kind, std::string_view body)
{
    std::string frame;
    util::appendFrame(frame, std::string_view(&kind, 1), body);
    write(frame);
}

void
CaptureWriter::flushOps()
{
    if (pending.empty())
        return;
    writeFrame('O', pending);
    pending.clear();
}

void
CaptureWriter::append(const isa::MicroOp &op)
{
    if (!active)
        throw util::ConfigError("append to a closed capture writer");
    const std::size_t tail = pending.size();
    pending.resize(tail + sizeof(TraceRecord));
    encodeTraceRecord(packTraceRecord(op),
                      reinterpret_cast<unsigned char *>(pending.data()) +
                          tail);
    ++count;
    if (pending.size() >= opsPerFrame * sizeof(TraceRecord))
        flushOps();
}

void
CaptureWriter::close()
{
    if (!active)
        throw util::ConfigError("capture writer already closed");
    if (count == 0) {
        file.abandon();
        active = false;
        throw util::ConfigError("recording an empty trace");
    }
    flushOps();
    std::string end;
    util::appendU64(end, count);
    writeFrame('E', end);
    active = false;
    if (const util::Status st = file.publish(); !st.isOk())
        throwIo(st.message());
}

void
recordTrace(const std::string &path, TraceSource &source,
            std::uint64_t count)
{
    if (count == 0)
        throw util::ConfigError("recording an empty trace");
    CaptureWriter writer = CaptureWriter::create(path);
    source.reset();
    for (std::uint64_t i = 0; i < count; ++i)
        writer.append(source.next());
    writer.close();
}

} // namespace fo4::trace
