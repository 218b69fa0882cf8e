#ifndef FO4_TRACE_RECORDED_TRACE_HH
#define FO4_TRACE_RECORDED_TRACE_HH

/**
 * @file
 * trace::RecordedTrace — replays a capture file as a TraceSource, and
 * openTraceFile() — the one place a trace path is opened.
 */

#include <cstdint>
#include <memory>
#include <string>
#include <vector>

#include "trace/capture.hh"
#include "trace/trace.hh"
#include "util/status.hh"

namespace fo4::trace
{

/**
 * Replays the ops of a finalized capture, cycling when exhausted and
 * renumbering seq by stream position, like VectorTrace.
 *
 * Refuses unfinalized captures: readCapture() will happily salvage the
 * valid prefix of a torn file for inspection tooling, but *replaying*
 * a truncated stream would silently simulate different instructions
 * than the recorded run, so construction throws TraceError(TraceCorrupt)
 * instead.
 */
class RecordedTrace final : public TraceSource
{
  public:
    /** Loads and validates `path`; throws typed TraceErrors. */
    explicit RecordedTrace(const std::string &path);

    /** Non-throwing load used by batch drivers. */
    static util::Expected<RecordedTrace> load(const std::string &path);

    isa::MicroOp next() override;
    void reset() override;

    /** Number of distinct recorded instructions before cycling. */
    std::size_t recordedInstructions() const { return ops.size(); }

    /** The capture's key=value metadata, in file order. */
    const CaptureMeta &meta() const { return metaKv; }

    /** Value for `key`, or `fallback` when the capture lacks it. */
    std::string metaValue(const std::string &key,
                          const std::string &fallback = "") const;

  private:
    CaptureMeta metaKv;
    std::vector<isa::MicroOp> ops;
    std::size_t pos = 0;
    std::uint64_t seq = 0;
};

/**
 * Opens an on-disk trace.  Captures are the one trace file format: a
 * capture yields a RecordedTrace, anything else fails with the typed
 * readCapture() errors (TraceFormat for a non-capture, TraceIo for a
 * missing file).  Every consumer of trace paths — runJob, the
 * decoded-trace registry, the CLIs — goes through here.
 */
std::unique_ptr<TraceSource> openTraceFile(const std::string &path);

} // namespace fo4::trace

#endif // FO4_TRACE_RECORDED_TRACE_HH
