#include "util/journal.hh"

#include <fcntl.h>
#include <sys/stat.h>
#include <unistd.h>

#include <cerrno>
#include <cstring>

#include "util/logging.hh"

namespace fo4::util
{

namespace
{

/** "FO4 JouRNaL" + a newline so `head` shows binary-file damage fast. */
constexpr char kMagic[8] = {'F', 'O', '4', 'J', 'R', 'N', 'L', '\n'};
constexpr FrameLimits kRecordLimits{0, kMaxJournalRecord};

[[noreturn]] void
throwErrno(ErrorCode code, const std::string &what, const std::string &path,
           int err = errno)
{
    throw JournalError(code, strprintf("journal '%s': %s: %s",
                                       path.c_str(), what.c_str(),
                                       std::strerror(err)));
}

int
openOrThrow(const std::string &path, int flags)
{
    const int fd = ::open(path.c_str(), flags | O_CLOEXEC);
    if (fd < 0)
        throwErrno(ErrorCode::JournalIo, "cannot open", path);
    return fd;
}

void
throwIfFailed(const Status &st)
{
    if (!st.isOk())
        throw JournalError(st.code(), "journal " + st.message());
}

} // namespace

bool
journalExists(const std::string &path)
{
    struct stat st;
    return ::stat(path.c_str(), &st) == 0;
}

JournalContents
readJournal(const std::string &path)
{
    const WholeFile file = readWholeFile(path);
    if (!file.ok()) {
        throwErrno(ErrorCode::JournalIo,
                   file.opened ? "read failed" : "cannot open", path,
                   file.error);
    }
    const std::string &data = file.bytes;

    const FileHeader header = checkFileHeader(data, kMagic, kJournalVersion);
    if (header.verdict != HeaderVerdict::Ok) {
        throw JournalError(header.verdict == HeaderVerdict::BadCrc
                               ? ErrorCode::JournalCorrupt
                               : ErrorCode::JournalFormat,
                           header.describe("journal", path));
    }

    JournalContents contents;
    contents.fingerprint = header.tag;
    const FrameRun run = scanFrames(
        data, kFileHeaderBytes, kRecordLimits,
        [&](std::string_view payload) {
            contents.records.emplace_back(payload);
        });
    contents.validBytes = run.validBytes;
    // An incomplete trailing frame — length/CRC words or payload cut
    // short by a crash mid-append — is the one tolerated damage: the
    // record was never acknowledged, so dropping it loses nothing.  A
    // complete frame that fails its CRC, or a length no writer produces,
    // is rot inside acknowledged data, and trusting anything after it
    // would risk wrong results.
    contents.tornTail = run.stop.verdict == FrameVerdict::TornTail;
    if (run.stop.verdict == FrameVerdict::Corrupt ||
        run.stop.verdict == FrameVerdict::Oversize) {
        throw JournalError(ErrorCode::JournalCorrupt,
                           strprintf("journal '%s': %s", path.c_str(),
                                     run.describe("record").c_str()));
    }
    return contents;
}

JournalWriter::JournalWriter(int fd, std::string path, bool syncEveryRecord)
    : fd(fd), path(std::move(path)), syncEach(syncEveryRecord)
{
}

JournalWriter
JournalWriter::create(const std::string &path, std::uint64_t fingerprint,
                      bool syncEveryRecord)
{
    // Header via tmp + rename: a crash leaves either the old state or a
    // complete new journal, never a file with a partial header.
    AtomicFile file;
    throwIfFailed(file.open(path, path + ".tmp"));
    throwIfFailed(
        file.write(encodeFileHeader(kMagic, kJournalVersion, fingerprint)));
    throwIfFailed(file.publish());

    return JournalWriter(openOrThrow(path, O_WRONLY | O_APPEND), path,
                         syncEveryRecord);
}

JournalWriter
JournalWriter::appendTo(const std::string &path,
                        const JournalContents &recovered,
                        bool syncEveryRecord)
{
    const int fd = openOrThrow(path, O_WRONLY);
    // Drop the torn tail (if any) so the file ends on a record boundary
    // before new appends land after it.
    if (::ftruncate(fd, static_cast<off_t>(recovered.validBytes)) != 0) {
        ::close(fd);
        throwErrno(ErrorCode::JournalIo, "truncate failed", path);
    }
    if (::lseek(fd, 0, SEEK_END) < 0) {
        ::close(fd);
        throwErrno(ErrorCode::JournalIo, "seek failed", path);
    }
    return JournalWriter(fd, path, syncEveryRecord);
}

JournalWriter::JournalWriter(JournalWriter &&other) noexcept
    : fd(other.fd), path(std::move(other.path)), syncEach(other.syncEach)
{
    other.fd = -1;
}

JournalWriter &
JournalWriter::operator=(JournalWriter &&other) noexcept
{
    if (this != &other) {
        if (fd >= 0)
            ::close(fd);
        fd = other.fd;
        path = std::move(other.path);
        syncEach = other.syncEach;
        other.fd = -1;
    }
    return *this;
}

JournalWriter::~JournalWriter()
{
    if (fd >= 0)
        ::close(fd);
}

void
JournalWriter::append(std::string_view payload)
{
    if (const Status st = tryAppend(payload); !st.isOk())
        throw JournalError(st.code(), st.message());
}

Status
JournalWriter::tryAppend(std::string_view payload)
{
    FO4_ASSERT(fd >= 0, "append on a closed journal");
    if (payload.size() > kMaxJournalRecord) {
        return Status(ErrorCode::JournalFormat,
                      strprintf("journal '%s': a %zu-byte record exceeds "
                                "the %u-byte record limit",
                                path.c_str(), payload.size(),
                                kMaxJournalRecord));
    }
    // One frame, one write(): the kernel may still tear it across
    // sectors on a crash, but recovery handles exactly that case.
    std::string frame;
    appendFrame(frame, {}, payload);
    if (const Status st =
            writeAllStatus(fd, frame.data(), frame.size(), path);
        !st.isOk())
        return st;
    if (syncEach)
        return trySync();
    return Status::ok();
}

void
JournalWriter::sync()
{
    throwIfFailed(trySync());
}

Status
JournalWriter::trySync()
{
    FO4_ASSERT(fd >= 0, "sync on a closed journal");
    if (::fsync(fd) != 0) {
        return Status(ErrorCode::JournalIo,
                      strprintf("'%s': fsync failed: %s", path.c_str(),
                                std::strerror(errno)));
    }
    return Status::ok();
}

void
JournalWriter::close()
{
    if (fd < 0)
        return;
    sync();
    ::close(fd);
    fd = -1;
}

} // namespace fo4::util
