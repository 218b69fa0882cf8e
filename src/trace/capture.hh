#ifndef FO4_TRACE_CAPTURE_HH
#define FO4_TRACE_CAPTURE_HH

/**
 * @file
 * The versioned binary trace-capture container — the fifth durable
 * on-disk contract (after journal, checkpoint, CSV and blob store).
 *
 * A capture stores the microop stream of one recorded run plus a
 * key=value metadata block describing the run it came from.  Its bytes
 * are laid out by util/frame.hh: the 32-byte CRC-protected file header
 * followed by `u32 len | u32 crc32(payload) | payload` frames, where
 * payload[0] is a frame kind:
 *
 *   'M'  metadata — "key=value\n" text lines (first frame, written once)
 *   'O'  op batch — a whole number of packed 32-byte TraceRecords
 *   'E'  end frame — u64 record count; written by close() and marks
 *        the capture finalized
 *
 * The writer publishes through util::AtomicFile: it builds
 * `path + ".tmp"`, fsyncs, renames over the final path and fsyncs the
 * directory, so a capture is published whole-file-atomically or not at
 * all.  The end frame distinguishes a torn tail (crash before close():
 * valid prefix recoverable, reported via CaptureContents::tornTail /
 * !finalized) from bit rot inside a complete frame (typed TraceError,
 * TraceCorrupt).
 * See DESIGN.md §16 for the full corruption ladder.
 */

#include <cstdint>
#include <string>
#include <string_view>
#include <utility>
#include <vector>

#include "isa/microop.hh"
#include "trace/trace.hh"
#include "util/frame.hh"

namespace fo4::trace
{

/** Capture format version this build reads and writes. */
constexpr std::uint32_t kCaptureVersion = 1;

/**
 * Largest frame payload readCapture() will accept.  A length field
 * above this is bit rot, not a frame: it is refused (TraceCorrupt)
 * before any allocation or tail comparison, so a rotted length cannot
 * masquerade as a torn tail or drive a huge reserve.  The writer
 * flushes op batches far below this.
 */
constexpr std::uint32_t kMaxCaptureFrame = 1u << 20;

/** Ordered key=value metadata attached to a capture. */
using CaptureMeta = std::vector<std::pair<std::string, std::string>>;

/** Everything readCapture() could salvage from a capture file. */
struct CaptureContents
{
    CaptureMeta meta;
    std::vector<isa::MicroOp> ops;
    /** True iff the end frame was seen and its count matched. */
    bool finalized = false;
    /** True iff the file ends in a partial frame (crash mid-append). */
    bool tornTail = false;
};

/**
 * Reads and validates a capture file.
 *
 * Lenient about *truncation* (the journal's torn-tail rule): a file
 * cut anywhere after the header yields the valid frame prefix with
 * `tornTail`/`finalized` describing what is missing, so stats tooling
 * can recover a crashed recording.  Strict about *corruption*: a bad
 * magic/version/record size throws TraceError(TraceFormat); a CRC
 * mismatch, oversize length, unknown frame kind, frame after the end
 * frame, count mismatch or invalid record throws
 * TraceError(TraceCorrupt).  An unreadable file throws
 * TraceError(TraceIo).
 */
CaptureContents readCapture(const std::string &path);

/**
 * Streams a capture to disk.  create() opens `path + ".tmp"`; close()
 * seals the end frame, fsyncs and renames into place.  A writer
 * destroyed without close() unlinks the tmp file — an aborted
 * recording never publishes a capture.  All I/O failures throw
 * TraceError(TraceIo) — a failed fsync of the directory too, although
 * the capture is then already in place; write faults injected via
 * util::setDiskFaultHook() surface the same way.
 */
class CaptureWriter
{
  public:
    /**
     * `opsPerFrame` sets the op-batch flush threshold; tests shrink it
     * to exercise multi-frame files cheaply.
     */
    static CaptureWriter create(const std::string &path,
                                const CaptureMeta &meta = {},
                                std::size_t opsPerFrame = 2048);

    CaptureWriter(CaptureWriter &&other) noexcept = default;
    CaptureWriter &operator=(CaptureWriter &&other) noexcept = default;

    void append(const isa::MicroOp &op);

    /** Records appended so far. */
    std::uint64_t appended() const { return count; }

    /**
     * Flushes, writes the end frame, fsyncs and atomically publishes
     * the capture.  Throws ConfigError on an empty capture.
     */
    void close();

  private:
    explicit CaptureWriter(std::size_t opsPerFrame);

    void write(std::string_view bytes);
    void writeFrame(char kind, std::string_view body);
    void flushOps();

    util::AtomicFile file;
    bool active = true;
    std::size_t opsPerFrame = 2048;
    std::string pending;
    std::uint64_t count = 0;
};

/**
 * Record the first `count` instructions of `source` (after a reset) as
 * a capture with no metadata.  Throws ConfigError for count == 0 and
 * TraceError(TraceIo) on I/O failure.
 */
void recordTrace(const std::string &path, TraceSource &source,
                 std::uint64_t count);

} // namespace fo4::trace

#endif // FO4_TRACE_CAPTURE_HH
