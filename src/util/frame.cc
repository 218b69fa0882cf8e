#include "util/frame.hh"

#include <fcntl.h>
#include <sys/stat.h>
#include <unistd.h>

#include <algorithm>
#include <array>
#include <cerrno>
#include <cstdio>
#include <cstring>

#include "util/logging.hh"

namespace fo4::util
{

namespace
{

DiskFaultHook &
diskFaultHook()
{
    static DiskFaultHook hook;
    return hook;
}

Status
errnoStatus(const std::string &path, const char *what)
{
    return Status(ErrorCode::JournalIo,
                  strprintf("'%s': %s: %s", path.c_str(), what,
                            std::strerror(errno)));
}

/**
 * fsync the directory containing `path`.  A rename makes a file visible
 * under its final name, but only the directory entry's durability —
 * this fsync — guarantees the published file cannot vanish on power
 * loss.
 */
Status
fsyncParentDirectory(const std::string &path)
{
    const auto slash = path.find_last_of('/');
    const std::string dir =
        slash == std::string::npos ? "." : path.substr(0, slash + 1);
    const int fd = ::open(dir.c_str(), O_RDONLY | O_DIRECTORY | O_CLOEXEC);
    if (fd < 0)
        return errnoStatus(dir, "cannot open directory");
    const bool ok = ::fsync(fd) == 0;
    const int err = errno;
    ::close(fd);
    if (!ok) {
        errno = err;
        return errnoStatus(dir, "directory fsync failed");
    }
    return Status::ok();
}

} // namespace

// ---------------------------------------------------------------------
// Disk-fault injection, raw writes, CRC
// ---------------------------------------------------------------------

void
setDiskFaultHook(DiskFaultHook hook)
{
    diskFaultHook() = std::move(hook);
}

Status
writeAllStatus(int fd, const void *data, std::size_t size,
               const std::string &path)
{
    const std::size_t requested = size;
    const auto *p = static_cast<const unsigned char *>(data);

    if (const DiskFaultHook &hook = diskFaultHook()) {
        if (const std::optional<DiskFault> fault = hook(path)) {
            // Land the partial prefix for real (a torn record the
            // recovery reader must cope with), then fail typed.
            std::size_t landed = 0;
            while (landed < fault->shortWriteBytes && landed < size) {
                const ssize_t n = ::write(
                    fd, p + landed,
                    std::min(fault->shortWriteBytes, size) - landed);
                if (n <= 0)
                    break;
                landed += static_cast<std::size_t>(n);
            }
            return Status(
                ErrorCode::JournalIo,
                strprintf("'%s': write failed after %zu of %zu bytes: "
                          "%s (injected fault)",
                          path.c_str(), landed, requested,
                          std::strerror(fault->failErrno)));
        }
    }

    while (size > 0) {
        const ssize_t n = ::write(fd, p, size);
        if (n < 0) {
            if (errno == EINTR)
                continue;
            return Status(
                ErrorCode::JournalIo,
                strprintf("'%s': write failed after %zu of %zu bytes: "
                          "%s",
                          path.c_str(), requested - size, requested,
                          std::strerror(errno)));
        }
        p += n;
        size -= static_cast<std::size_t>(n);
    }
    return Status::ok();
}

std::uint32_t
crc32(const void *data, std::size_t size, std::uint32_t crc)
{
    // Standard reflected CRC-32 (polynomial 0xEDB88320), table built on
    // first use.
    static const auto table = [] {
        std::array<std::uint32_t, 256> t{};
        for (std::uint32_t i = 0; i < 256; ++i) {
            std::uint32_t c = i;
            for (int k = 0; k < 8; ++k)
                c = (c >> 1) ^ (0xEDB88320u & (0u - (c & 1u)));
            t[i] = c;
        }
        return t;
    }();

    const auto *p = static_cast<const unsigned char *>(data);
    std::uint32_t c = crc ^ 0xFFFFFFFFu;
    for (std::size_t i = 0; i < size; ++i)
        c = table[(c ^ p[i]) & 0xFFu] ^ (c >> 8);
    return c ^ 0xFFFFFFFFu;
}

// ---------------------------------------------------------------------
// Little-endian integers
// ---------------------------------------------------------------------

void
putU16(unsigned char *p, std::uint16_t v)
{
    p[0] = static_cast<unsigned char>(v);
    p[1] = static_cast<unsigned char>(v >> 8);
}

void
putU32(unsigned char *p, std::uint32_t v)
{
    p[0] = static_cast<unsigned char>(v);
    p[1] = static_cast<unsigned char>(v >> 8);
    p[2] = static_cast<unsigned char>(v >> 16);
    p[3] = static_cast<unsigned char>(v >> 24);
}

void
putU64(unsigned char *p, std::uint64_t v)
{
    putU32(p, static_cast<std::uint32_t>(v));
    putU32(p + 4, static_cast<std::uint32_t>(v >> 32));
}

std::uint16_t
getU16(const unsigned char *p)
{
    return static_cast<std::uint16_t>(
        p[0] | static_cast<std::uint16_t>(p[1]) << 8);
}

std::uint32_t
getU32(const unsigned char *p)
{
    return static_cast<std::uint32_t>(p[0]) |
           static_cast<std::uint32_t>(p[1]) << 8 |
           static_cast<std::uint32_t>(p[2]) << 16 |
           static_cast<std::uint32_t>(p[3]) << 24;
}

std::uint64_t
getU64(const unsigned char *p)
{
    return static_cast<std::uint64_t>(getU32(p)) |
           static_cast<std::uint64_t>(getU32(p + 4)) << 32;
}

void
appendU32(std::string &out, std::uint32_t v)
{
    unsigned char bytes[4];
    putU32(bytes, v);
    out.append(reinterpret_cast<const char *>(bytes), sizeof(bytes));
}

void
appendU64(std::string &out, std::uint64_t v)
{
    unsigned char bytes[8];
    putU64(bytes, v);
    out.append(reinterpret_cast<const char *>(bytes), sizeof(bytes));
}

// ---------------------------------------------------------------------
// File header
// ---------------------------------------------------------------------

std::string
encodeFileHeader(const FileMagic &magic, std::uint32_t version,
                 std::uint64_t tag)
{
    std::string header(kFileHeaderBytes, '\0');
    auto *h = reinterpret_cast<unsigned char *>(header.data());
    std::memcpy(h, magic, sizeof(FileMagic));
    putU32(h + 8, version);
    putU64(h + 16, tag);
    putU32(h + 24, crc32(h, 24));
    return header;
}

FileHeader
checkFileHeader(std::string_view bytes, const FileMagic &magic,
                std::uint32_t version)
{
    FileHeader header;
    header.expectedVersion = version;
    if (bytes.size() < kFileHeaderBytes)
        return header;
    const auto *h = reinterpret_cast<const unsigned char *>(bytes.data());
    if (std::memcmp(h, magic, sizeof(FileMagic)) != 0) {
        header.verdict = HeaderVerdict::BadMagic;
        return header;
    }
    header.version = getU32(h + 8);
    if (header.version != version) {
        header.verdict = HeaderVerdict::BadVersion;
        return header;
    }
    header.storedCrc = getU32(h + 24);
    header.computedCrc = crc32(h, 24);
    if (header.storedCrc != header.computedCrc) {
        header.verdict = HeaderVerdict::BadCrc;
        return header;
    }
    header.tag = getU64(h + 16);
    header.verdict = HeaderVerdict::Ok;
    return header;
}

std::string
FileHeader::describe(const char *noun, const std::string &path) const
{
    switch (verdict) {
      case HeaderVerdict::Ok:
        break;
      case HeaderVerdict::Truncated:
        return strprintf("%s '%s' is truncated: shorter than the %zu-byte "
                         "header",
                         noun, path.c_str(), kFileHeaderBytes);
      case HeaderVerdict::BadMagic:
        return strprintf("'%s' is not a fo4pipe %s file", path.c_str(),
                         noun);
      case HeaderVerdict::BadVersion:
        return strprintf("%s '%s' has unsupported version %u (this build "
                         "speaks %u)",
                         noun, path.c_str(), version, expectedVersion);
      case HeaderVerdict::BadCrc:
        return strprintf("%s '%s': header CRC mismatch (stored %08x, "
                         "computed %08x)",
                         noun, path.c_str(), storedCrc, computedCrc);
    }
    return strprintf("%s '%s': header is intact", noun, path.c_str());
}

// ---------------------------------------------------------------------
// Frames
// ---------------------------------------------------------------------

void
appendFrame(std::string &out, std::string_view prefix,
            std::string_view body)
{
    const std::size_t length = prefix.size() + body.size();
    const std::size_t at = out.size();
    out.reserve(at + kFrameHeadBytes + length);
    out.resize(at + kFrameHeadBytes);
    auto *head = reinterpret_cast<unsigned char *>(out.data() + at);
    putU32(head, static_cast<std::uint32_t>(length));
    putU32(head + 4, crc32(body.data(), body.size(),
                           crc32(prefix.data(), prefix.size())));
    out.append(prefix);
    out.append(body);
}

ScannedFrame
verifyFramePayload(std::uint32_t storedCrc, std::string_view payload)
{
    ScannedFrame frame;
    frame.length = static_cast<std::uint32_t>(payload.size());
    frame.storedCrc = storedCrc;
    frame.computedCrc = crc32(payload.data(), payload.size());
    if (frame.computedCrc != storedCrc) {
        frame.verdict = FrameVerdict::Corrupt;
        return frame;
    }
    frame.verdict = FrameVerdict::Ok;
    frame.payload = payload;
    return frame;
}

ScannedFrame
scanFrame(std::string_view bytes, FrameLimits limits)
{
    ScannedFrame frame;
    if (bytes.size() < kFrameHeadBytes)
        return frame;
    const auto *head = reinterpret_cast<const unsigned char *>(bytes.data());
    frame.length = getU32(head);
    frame.storedCrc = getU32(head + 4);
    if (frame.length < limits.minBytes || frame.length > limits.maxBytes) {
        frame.verdict = FrameVerdict::Oversize;
        return frame;
    }
    if (bytes.size() - kFrameHeadBytes < frame.length)
        return frame;
    return verifyFramePayload(frame.storedCrc,
                              bytes.substr(kFrameHeadBytes, frame.length));
}

FrameRun
scanFrames(std::string_view bytes, std::size_t offset, FrameLimits limits,
           const std::function<void(std::string_view)> &onFrame)
{
    FrameRun run;
    run.stop.verdict = FrameVerdict::Ok;
    run.validBytes = offset;
    run.limits = limits;
    while (run.validBytes < bytes.size()) {
        const ScannedFrame frame =
            scanFrame(bytes.substr(run.validBytes), limits);
        if (frame.verdict != FrameVerdict::Ok) {
            run.stop = frame;
            break;
        }
        onFrame(frame.payload);
        run.validBytes += frame.size();
        ++run.frames;
    }
    return run;
}

std::string
FrameRun::describe(const char *unit) const
{
    if (stop.verdict == FrameVerdict::Oversize) {
        return strprintf("%s %zu at offset %zu declares %u payload bytes, "
                         "outside [%u, %u] — refused before allocation",
                         unit, frames, validBytes, stop.length,
                         limits.minBytes, limits.maxBytes);
    }
    if (stop.verdict == FrameVerdict::Corrupt) {
        return strprintf("%s %zu CRC mismatch at offset %zu (stored %08x, "
                         "computed %08x)",
                         unit, frames, validBytes, stop.storedCrc,
                         stop.computedCrc);
    }
    return strprintf("%s %zu at offset %zu is %s", unit, frames, validBytes,
                     stop.verdict == FrameVerdict::Ok ? "intact"
                                                      : "a torn tail");
}

// ---------------------------------------------------------------------
// Whole files
// ---------------------------------------------------------------------

WholeFile
readWholeFile(const std::string &path)
{
    WholeFile file;
    const int fd = ::open(path.c_str(), O_RDONLY | O_CLOEXEC);
    if (fd < 0) {
        file.error = errno;
        return file;
    }
    file.opened = true;
    struct stat sb;
    if (::fstat(fd, &sb) == 0 && sb.st_size > 0)
        file.bytes.reserve(static_cast<std::size_t>(sb.st_size));
    char buf[1 << 16];
    for (;;) {
        const ssize_t n = ::read(fd, buf, sizeof(buf));
        if (n < 0) {
            if (errno == EINTR)
                continue;
            file.error = errno;
            break;
        }
        if (n == 0)
            break;
        file.bytes.append(buf, static_cast<std::size_t>(n));
    }
    ::close(fd);
    return file;
}

Status
writeWholeFile(const std::string &path, std::string_view bytes)
{
    const int fd =
        ::open(path.c_str(), O_CREAT | O_TRUNC | O_WRONLY | O_CLOEXEC, 0644);
    if (fd < 0)
        return errnoStatus(path, "cannot open for writing");
    Status st = writeAllStatus(fd, bytes.data(), bytes.size(), path);
    if (::close(fd) != 0 && st.isOk())
        st = errnoStatus(path, "close failed");
    return st;
}

// ---------------------------------------------------------------------
// Atomic publication
// ---------------------------------------------------------------------

AtomicFile::AtomicFile(AtomicFile &&other) noexcept
    : fd(other.fd), path(std::move(other.path)), tmp(std::move(other.tmp)),
      tmpOwned(other.tmpOwned), writeFailed(other.writeFailed),
      published(other.published)
{
    other.fd = -1;
    other.tmpOwned = false;
}

AtomicFile &
AtomicFile::operator=(AtomicFile &&other) noexcept
{
    if (this != &other) {
        abandon();
        fd = other.fd;
        path = std::move(other.path);
        tmp = std::move(other.tmp);
        tmpOwned = other.tmpOwned;
        writeFailed = other.writeFailed;
        published = other.published;
        other.fd = -1;
        other.tmpOwned = false;
    }
    return *this;
}

Status
AtomicFile::open(std::string finalPath, std::string tmpPath)
{
    FO4_ASSERT(fd < 0, "AtomicFile opened twice");
    path = std::move(finalPath);
    tmp = std::move(tmpPath);
    writeFailed = false;
    published = false;
    fd = ::open(tmp.c_str(), O_CREAT | O_TRUNC | O_WRONLY | O_CLOEXEC,
                0644);
    if (fd < 0)
        return errnoStatus(tmp, "cannot create");
    tmpOwned = true;
    return Status::ok();
}

Status
AtomicFile::write(std::string_view bytes)
{
    if (fd < 0) {
        writeFailed = true;
        return Status(ErrorCode::JournalIo,
                      strprintf("'%s': write to a file that is not open",
                                tmp.c_str()));
    }
    const Status st = writeAllStatus(fd, bytes.data(), bytes.size(), tmp);
    if (!st.isOk())
        writeFailed = true;
    return st;
}

Status
AtomicFile::publish()
{
    if (fd < 0 || writeFailed) {
        abandon();
        return Status(ErrorCode::JournalIo,
                      strprintf("'%s': publication refused: %s",
                                path.c_str(),
                                writeFailed ? "an earlier write failed"
                                            : "the file is not open"));
    }
    if (::fsync(fd) != 0) {
        const Status st = errnoStatus(tmp, "fsync failed");
        abandon();
        return st;
    }
    const int closing = fd;
    fd = -1;
    if (::close(closing) != 0) {
        const Status st = errnoStatus(tmp, "close failed");
        abandon();
        return st;
    }
    if (std::rename(tmp.c_str(), path.c_str()) != 0) {
        const Status st = errnoStatus(path, "rename into place failed");
        abandon();
        return st;
    }
    tmpOwned = false;
    published = true;
    return fsyncParentDirectory(path);
}

void
AtomicFile::abandon() noexcept
{
    if (fd >= 0) {
        ::close(fd);
        fd = -1;
    }
    if (tmpOwned) {
        ::unlink(tmp.c_str());
        tmpOwned = false;
    }
}

} // namespace fo4::util
