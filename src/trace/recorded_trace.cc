#include "trace/recorded_trace.hh"

#include "util/logging.hh"

namespace fo4::trace
{

RecordedTrace::RecordedTrace(const std::string &path)
{
    CaptureContents contents = readCapture(path);
    if (!contents.finalized) {
        throw util::TraceError(
            util::ErrorCode::TraceCorrupt,
            util::strprintf("capture '%s' was never finalized (%s "
                            "after %zu salvageable records); replaying "
                            "a truncated stream would diverge from the "
                            "recorded run — re-record it",
                            path.c_str(),
                            contents.tornTail ? "torn tail"
                                              : "missing end frame",
                            contents.ops.size()));
    }
    if (contents.ops.empty()) {
        throw util::TraceError(
            util::ErrorCode::TraceCorrupt,
            util::strprintf("trace file '%s' contains no instructions",
                            path.c_str()));
    }
    metaKv = std::move(contents.meta);
    ops = std::make_shared<const std::vector<isa::MicroOp>>(
        std::move(contents.ops));
}

util::Expected<RecordedTrace>
RecordedTrace::load(const std::string &path)
{
    try {
        return RecordedTrace(path);
    } catch (const util::SimError &e) {
        return e.toStatus();
    }
}

isa::MicroOp
RecordedTrace::next()
{
    isa::MicroOp op = (*ops)[pos];
    pos = (pos + 1) % ops->size();
    op.seq = seq++;
    return op;
}

void
RecordedTrace::reset()
{
    pos = 0;
    seq = 0;
}

std::string
RecordedTrace::metaValue(const std::string &key,
                         const std::string &fallback) const
{
    for (const auto &[k, v] : metaKv) {
        if (k == key)
            return v;
    }
    return fallback;
}

std::unique_ptr<TraceSource>
openTraceFile(const std::string &path)
{
    return std::make_unique<RecordedTrace>(path);
}

} // namespace fo4::trace
