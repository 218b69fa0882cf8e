#include "trace/decoded_trace.hh"

#include "trace/generator.hh"
#include "trace/recorded_trace.hh"
#include "util/logging.hh"
#include "util/metrics.hh"
#include "util/status.hh"

namespace fo4::trace
{

DecodedTrace::DecodedTrace(SourceFactory make, std::string key)
    : name(std::move(key)), factory(std::move(make)), base(factory()),
      chunks(std::make_unique<std::unique_ptr<TraceRecord[]>[]>(maxChunks))
{
    FO4_ASSERT(base != nullptr, "decoded trace needs a base source");
}

const TraceRecord &
DecodedTrace::materialize(std::uint64_t i)
{
    std::lock_guard<std::mutex> guard(growLock);
    std::uint64_t have = produced.load(std::memory_order_relaxed);
    if (i < have)
        return chunks[i >> chunkShift][i & chunkMask];

    if ((i >> chunkShift) >= maxChunks) {
        throw util::TraceError(
            util::ErrorCode::TraceCorrupt,
            util::strprintf("decoded trace '%s' grew past %llu records",
                            name.c_str(),
                            static_cast<unsigned long long>(
                                maxChunks << chunkShift)));
    }

    // Decode whole chunks so concurrent cells of a column rarely
    // contend: the first cell to reach a chunk pays for all of them.
    const std::uint64_t target = ((i >> chunkShift) + 1) << chunkShift;
    const std::uint64_t start = have;
    while (have < target) {
        auto &chunk = chunks[have >> chunkShift];
        if (!chunk)
            chunk = std::make_unique<TraceRecord[]>(chunkMask + 1);
        chunk[have & chunkMask] = packTraceRecord(base->next());
        ++have;
    }
    static auto &decoded =
        util::MetricsRegistry::global().counter("trace.decoded.records");
    decoded.add(have - start);
    produced.store(have, std::memory_order_release);
    return chunks[i >> chunkShift][i & chunkMask];
}

DecodedTraceRegistry &
DecodedTraceRegistry::global()
{
    static DecodedTraceRegistry registry;
    return registry;
}

std::unique_ptr<DecodedTraceView>
DecodedTraceRegistry::viewFor(const std::string &key,
                              const std::function<SourceFactory()> &load)
{
    static auto &hits =
        util::MetricsRegistry::global().counter("trace.decoded.hits");
    static auto &misses =
        util::MetricsRegistry::global().counter("trace.decoded.misses");
    bool built = false;
    auto trace = traces.get(key, [&] {
        auto made = std::make_shared<DecodedTrace>(load(), key);
        built = true;
        misses.inc();
        return made;
    });
    if (!built)
        hits.inc();
    return std::make_unique<DecodedTraceView>(std::move(trace));
}

std::unique_ptr<DecodedTraceView>
DecodedTraceRegistry::viewForProfile(const BenchmarkProfile &profile)
{
    return viewFor("profile:" + profile.identityKey(), [&profile] {
        return SourceFactory([profile] {
            return std::unique_ptr<TraceSource>(
                std::make_unique<SyntheticTraceGenerator>(profile));
        });
    });
}

std::unique_ptr<DecodedTraceView>
DecodedTraceRegistry::viewForFile(const std::string &path)
{
    return viewFor("file:" + path, [&path] {
        // Sources copy this one load, sharing its records.
        auto loaded = std::make_shared<const RecordedTrace>(path);
        return SourceFactory([loaded] {
            return std::unique_ptr<TraceSource>(
                std::make_unique<RecordedTrace>(*loaded));
        });
    });
}

std::size_t
DecodedTraceRegistry::size() const
{
    return traces.size();
}

void
DecodedTraceRegistry::clear()
{
    traces.clear();
}

} // namespace fo4::trace
