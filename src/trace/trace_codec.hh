#ifndef FO4_TRACE_TRACE_CODEC_HH
#define FO4_TRACE_TRACE_CODEC_HH

/**
 * @file
 * The packed 32-byte instruction record and its codec.
 *
 * TraceRecord is both the on-disk record of a capture's op frames
 * (trace/capture.hh) and the in-memory layout of the DecodedTrace
 * cache, so a materialized stream is exactly what a recorder writes.
 * Every record read from an untrusted file goes through the range
 * checks here before it becomes a MicroOp.
 */

#include <cstddef>
#include <cstdint>
#include <string>
#include <vector>

#include "isa/microop.hh"

namespace fo4::trace
{

/** Fixed-size packed instruction record (little-endian on disk). */
struct TraceRecord
{
    std::uint64_t seq;
    std::uint64_t pc;
    std::uint64_t addr;
    std::int16_t src1;
    std::int16_t src2;
    std::int16_t dst;
    std::uint8_t cls;
    std::uint8_t taken;
};
static_assert(sizeof(TraceRecord) == 32, "trace record must be 32 bytes");

/** Pack a MicroOp into the record layout (no validation needed: a
 *  MicroOp is in range by construction). */
TraceRecord packTraceRecord(const isa::MicroOp &op);

/** Unpack a record assumed valid (e.g. produced by packTraceRecord).
 *  Records read from untrusted files are range-checked by
 *  checkTraceRecord before they reach this layout. */
isa::MicroOp unpackTraceRecord(const TraceRecord &r);

/**
 * Decodes one packed 32-byte record from a byte buffer.  The on-disk
 * layout is the in-memory layout of TraceRecord (packed, asserted
 * 32 bytes); this helper keeps that single memcpy in one place.
 */
TraceRecord decodeTraceRecord(const unsigned char *bytes);

/** Encodes one record into exactly sizeof(TraceRecord) bytes. */
void encodeTraceRecord(const TraceRecord &r, unsigned char *bytes);

/**
 * Range-checks a record read from an untrusted file.  Throws
 * util::TraceError(TraceCorrupt) naming `path` and the record `index`
 * when the op class or a register number is out of range.
 */
void checkTraceRecord(const TraceRecord &r, const std::string &path,
                      std::size_t index);

/**
 * Decodes, validates and appends a run of packed records to `out`.
 *
 * `size` must be a whole number of records; a remainder means the
 * container was truncated mid-record, and silently dropping the tail
 * would replay a different instruction stream than was recorded —
 * throws util::TraceError(TraceCorrupt) with the stray-byte count.
 * Record indices in error messages continue from `out.size()`, so a
 * framed container reports absolute record numbers across frames.
 */
void appendCheckedRecords(const unsigned char *bytes, std::size_t size,
                          const std::string &path,
                          std::vector<isa::MicroOp> &out);

} // namespace fo4::trace

#endif // FO4_TRACE_TRACE_CODEC_HH
