/**
 * @file
 * Durable bytes: the one module that knows how fo4pipe lays out bytes
 * that outlive a process — checkpoint journals, trace captures,
 * result-store blobs and `fo4d`/`fo4coord` wire frames.
 *
 * It owns every layout primitive those formats share:
 *
 *  - little-endian integer put/get;
 *  - the 32-byte file header (magic, version, flags, a 64-bit tag and
 *    a CRC32 of the fixed fields) that journals and captures open with;
 *  - the `u32 len | u32 crc32(payload) | payload` frame: one encoder
 *    and one scanner, whose verdict ladder is ok / torn tail / corrupt /
 *    oversize, with the length bound checked before any allocation or
 *    torn-tail decision;
 *  - one whole-file reader and one checked in-place whole-file writer;
 *  - one atomic publisher (tmp → fsync → rename → directory fsync)
 *    whose writes honour the disk-fault hook;
 *  - the identity rendering and its FNV-1a hash, whose value is the
 *    journal header's tag and names result-store blobs.
 *
 * Each format keeps its own semantics on top — which verdict is a
 * typed error, which is salvage, what the payload means — but none of
 * them frames, scans, reads or publishes bytes on its own.
 */

#ifndef FO4_UTIL_FRAME_HH
#define FO4_UTIL_FRAME_HH

#include <cstddef>
#include <cstdint>
#include <functional>
#include <optional>
#include <string>
#include <string_view>

#include "util/status.hh"

namespace fo4::util
{

// ---------------------------------------------------------------------
// Disk-fault injection (test seam)
// ---------------------------------------------------------------------

/**
 * One injected disk fault: the write lands `shortWriteBytes` bytes for
 * real (modelling a partial write as the disk fills), then fails with
 * `failErrno`.  The default is an immediate ENOSPC.
 */
struct DiskFault
{
    int failErrno = 28; // ENOSPC
    std::size_t shortWriteBytes = 0;
};

/**
 * Process-wide hook consulted by every durable write (journal appends,
 * and every AtomicFile write: journal creation, captures, result-store
 * blobs, atomic CSV rows).  Return a fault to inject for writes to
 * `path`, nullopt to let the write proceed.  Test seam only; pass
 * nullptr to clear.  Not thread-safe against concurrent writers —
 * install before the writers start.
 */
using DiskFaultHook =
    std::function<std::optional<DiskFault>(const std::string &path)>;
void setDiskFaultHook(DiskFaultHook hook);

/**
 * Write all `size` bytes to `fd` (EINTR-safe), honouring the disk-fault
 * hook.  Returns Ok or a JournalIo Status naming `path`, the errno text
 * and how many bytes actually landed.
 */
Status writeAllStatus(int fd, const void *data, std::size_t size,
                      const std::string &path);

/** CRC-32 (IEEE 802.3, reflected); chainable via `crc`. */
std::uint32_t crc32(const void *data, std::size_t size,
                    std::uint32_t crc = 0);

// ---------------------------------------------------------------------
// Identity rendering
// ---------------------------------------------------------------------

/** 64-bit FNV-1a over `size` bytes; chainable via `hash`. */
inline std::uint64_t
fnv1a(const void *data, std::size_t size,
      std::uint64_t hash = 14695981039346656037ull)
{
    const auto *bytes = static_cast<const unsigned char *>(data);
    for (std::size_t k = 0; k < size; ++k) {
        hash ^= bytes[k];
        hash *= 1099511628211ull;
    }
    return hash;
}

/**
 * The canonical text of an identity: each field that can change a
 * result byte, tagged by kind — `i` signed, `u` unsigned, `d` a double
 * in hexfloat (no precision lost), `s` a length-prefixed string (no
 * concatenation can collide).  study::gridFingerprint hashes one
 * rendering of a whole grid; a profile's part of it is
 * trace::BenchmarkProfile::identityKey(), which also keys the decoded
 * traces and warm states held in memory.
 */
class IdentityHasher
{
  public:
    void i(long long v) { text += strprintf("i%lld;", v); }
    void u(unsigned long long v) { text += strprintf("u%llu;", v); }
    void d(double v) { text += strprintf("d%a;", v); }

    void
    s(const std::string &v)
    {
        text += strprintf("s%zu:", v.size());
        text += v;
        text += ';';
    }

    /** Append a rendering made by another IdentityHasher. */
    void append(const std::string &rendering) { text += rendering; }

    const std::string &rendering() const { return text; }
    std::uint64_t hash() const { return fnv1a(text.data(), text.size()); }

  private:
    std::string text;
};

// ---------------------------------------------------------------------
// Little-endian integers
// ---------------------------------------------------------------------

void putU16(unsigned char *p, std::uint16_t v);
void putU32(unsigned char *p, std::uint32_t v);
void putU64(unsigned char *p, std::uint64_t v);
std::uint16_t getU16(const unsigned char *p);
std::uint32_t getU32(const unsigned char *p);
std::uint64_t getU64(const unsigned char *p);

/** Append `v` to `out` as 4 / 8 little-endian bytes. */
void appendU32(std::string &out, std::uint32_t v);
void appendU64(std::string &out, std::uint64_t v);

// ---------------------------------------------------------------------
// The 32-byte file header
// ---------------------------------------------------------------------

/**
 * Layout (little-endian):
 *
 *     [0, 8)   magic
 *     [8, 12)  format version
 *     [12, 16) flags (zero)
 *     [16, 24) tag (the journal's identity fingerprint; zero otherwise)
 *     [24, 28) CRC32 of bytes [0, 24)
 *     [28, 32) reserved (zero)
 */
constexpr std::size_t kFileHeaderBytes = 32;

/** Eight magic bytes naming a file format. */
using FileMagic = char[8];

/** The header bytes for `magic`, `version` and `tag`. */
std::string encodeFileHeader(const FileMagic &magic, std::uint32_t version,
                             std::uint64_t tag = 0);

/** Verdict of checkFileHeader(), in the order the checks run. */
enum class HeaderVerdict
{
    Ok,
    Truncated,  ///< fewer than kFileHeaderBytes bytes
    BadMagic,   ///< not this format at all
    BadVersion, ///< this format, another version (checked before CRC)
    BadCrc,     ///< right magic and version, fixed fields rotted
};

struct FileHeader
{
    HeaderVerdict verdict = HeaderVerdict::Truncated;
    std::uint32_t version = 0;         ///< as stored (BadVersion and later)
    std::uint32_t expectedVersion = 0; ///< the version checked against
    std::uint64_t tag = 0;             ///< Ok only
    std::uint32_t storedCrc = 0;
    std::uint32_t computedCrc = 0;

    /** The verdict as an error message about the `noun` file at
     *  `path` (e.g. "capture '/x' has unsupported version 2 ..."). */
    std::string describe(const char *noun, const std::string &path) const;
};

/**
 * Check the header at the front of `bytes`: size, magic, version, then
 * CRC.  Version comes before the CRC so genuine version skew (a file
 * from another build) reads as a format mismatch, not as bit rot.
 */
FileHeader checkFileHeader(std::string_view bytes, const FileMagic &magic,
                           std::uint32_t version);

// ---------------------------------------------------------------------
// Frames: u32 len | u32 crc32(payload) | payload
// ---------------------------------------------------------------------

constexpr std::size_t kFrameHeadBytes = 8;

/** Inclusive bounds on a frame's declared payload length. */
struct FrameLimits
{
    std::uint32_t minBytes = 0;
    std::uint32_t maxBytes = 0;
};

/**
 * Append one frame whose payload is `prefix` followed by `body` to
 * `out`.  The CRC is chained across both parts and the body is copied
 * exactly once.  Callers keep the payload within their FrameLimits.
 */
void appendFrame(std::string &out, std::string_view prefix,
                 std::string_view body);

/** What a frame scan found. */
enum class FrameVerdict
{
    Ok,       ///< a complete frame whose payload matches its CRC
    TornTail, ///< the bytes end inside the frame (a crash mid-append)
    Corrupt,  ///< a complete frame whose payload fails its CRC
    Oversize, ///< the length word lies outside the FrameLimits
};

struct ScannedFrame
{
    FrameVerdict verdict = FrameVerdict::TornTail;
    /** Declared payload length and CRC; zero when the head is torn. */
    std::uint32_t length = 0;
    std::uint32_t storedCrc = 0;
    /** Set for Ok and Corrupt. */
    std::uint32_t computedCrc = 0;
    /** The payload bytes; set for Ok. */
    std::string_view payload;

    /** Bytes the frame occupies, head included. */
    std::size_t size() const { return kFrameHeadBytes + length; }
};

/**
 * The frame ladder at the front of `bytes`:
 *
 *  1. fewer than kFrameHeadBytes bytes            → TornTail;
 *  2. length outside `limits`                     → Oversize, decided
 *     before anything is allocated and before the tail is measured, so
 *     a rotted length word can never pass for a torn tail;
 *  3. fewer payload bytes than the length declares → TornTail;
 *  4. CRC mismatch                                 → Corrupt;
 *  5. otherwise                                    → Ok.
 */
ScannedFrame scanFrame(std::string_view bytes, FrameLimits limits);

/**
 * Steps 4–5 for a payload read apart from its head (a socket reads the
 * head first to learn how many bytes follow).  `payload` must be the
 * `length` bytes the head declared.
 */
ScannedFrame verifyFramePayload(std::uint32_t storedCrc,
                                std::string_view payload);

/** Where a scanFrames() walk stopped. */
struct FrameRun
{
    /** Ok when the bytes ended on a frame boundary; otherwise the
     *  verdict of the frame that stopped the walk. */
    ScannedFrame stop;
    /** Intact frames delivered to the callback. */
    std::size_t frames = 0;
    /** Offset where the intact prefix ends (and `stop` begins). */
    std::size_t validBytes = 0;
    /** The bounds the walk applied. */
    FrameLimits limits;

    /** A Corrupt or Oversize stop as an error message, naming frames
     *  `unit` (e.g. "record 3 CRC mismatch at offset 96 ..."). */
    std::string describe(const char *unit) const;
};

/**
 * Scan consecutive frames from `offset` to the end of `bytes`, handing
 * each intact payload to `onFrame` in order, and stop at the first
 * frame that is not Ok.
 */
FrameRun scanFrames(std::string_view bytes, std::size_t offset,
                    FrameLimits limits,
                    const std::function<void(std::string_view)> &onFrame);

// ---------------------------------------------------------------------
// Whole files
// ---------------------------------------------------------------------

/** What readWholeFile() got. */
struct WholeFile
{
    std::string bytes;
    /** errno of the failed step; 0 on success. */
    int error = 0;
    /** False when open() itself failed. */
    bool opened = false;

    bool ok() const { return error == 0; }
};

/** Read all of `path` (EINTR-safe). */
WholeFile readWholeFile(const std::string &path);

/**
 * Write `bytes` to `path` in place (created or truncated), checking the
 * open, every write and the close.  Writes go through writeAllStatus,
 * so the disk-fault hook reaches them.  In place rather than published
 * (see AtomicFile) so that a path such as /dev/stdout keeps working.
 * Returns Ok or a JournalIo Status naming `path` and the errno text.
 */
Status writeWholeFile(const std::string &path, std::string_view bytes);

// ---------------------------------------------------------------------
// Atomic publication
// ---------------------------------------------------------------------

/**
 * A file that becomes visible under its final name whole or not at
 * all.  Bytes go to a temporary; publish() fsyncs it, closes it,
 * renames it over the final path and fsyncs the parent directory.
 * Writes go through writeAllStatus, so the disk-fault hook reaches
 * them.  An AtomicFile destroyed (or abandoned) before its rename
 * unlinks the temporary.
 *
 * Every failure comes back as a JournalIo Status naming the file and
 * the errno text; each owner decides what a failure means for it.
 */
class AtomicFile
{
  public:
    AtomicFile() = default;
    ~AtomicFile() { abandon(); }

    AtomicFile(AtomicFile &&other) noexcept;
    AtomicFile &operator=(AtomicFile &&other) noexcept;
    AtomicFile(const AtomicFile &) = delete;
    AtomicFile &operator=(const AtomicFile &) = delete;

    /** Create (truncating) `tmpPath`, to be published as `path`. */
    Status open(std::string path, std::string tmpPath);

    Status write(std::string_view bytes);

    /**
     * fsync, close, rename, directory fsync.  Refused after a failed
     * write(): the temporary may hold a torn prefix.  A failure before
     * the rename unlinks the temporary and publishes nothing; a failure
     * of the directory fsync leaves the file in place (renamed() is
     * true) with only its power-loss durability in doubt.
     */
    Status publish();

    /** True once the rename has happened. */
    bool renamed() const { return published; }

    /** Close and unlink the temporary unless it was renamed. */
    void abandon() noexcept;

    const std::string &tempPath() const { return tmp; }

  private:
    int fd = -1;
    std::string path;
    std::string tmp;
    bool tmpOwned = false; ///< the temporary exists and is ours to unlink
    bool writeFailed = false;
    bool published = false;
};

} // namespace fo4::util

#endif // FO4_UTIL_FRAME_HH
