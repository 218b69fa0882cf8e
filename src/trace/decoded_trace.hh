/**
 * @file
 * One-pass trace materialization.  A DecodedTrace pulls a TraceSource's
 * MicroOp stream once and stores it as packed TraceRecords (the capture
 * record layout), so every grid cell of a sweep column can replay the
 * same benchmark without regenerating it.  Cells at different clock
 * periods walk different distances into the stream; the cache grows on
 * demand and is safe to read from many simulation threads at once.
 *
 * Only what the timed runs replay is decoded.  A trace keeps the
 * factory it was built from and hands out fresh sources of the same
 * stream, so the shared prewarm (core::WarmStartCache) streams its
 * prefix from one of those and a long prewarm costs no memory here.
 *
 * Identity: both SyntheticTraceGenerator and RecordedTrace number the ops
 * they emit by stream position (op.seq == index), so a record replayed
 * from the cache is bit-identical to one pulled live — the batched
 * simulation path cannot change bytes by construction.
 *
 * The process-wide DecodedTraceRegistry keys caches by the profile's
 * identityKey() (or by trace file path) in a util::OnceMap: each trace
 * is built once, concurrent first lookups wait for that build, and a
 * failed load is *never* cached — a trace file that is missing on one
 * attempt may reappear on a retry (RetryPolicy treats TraceIo as
 * transient), and a cached failure would turn that transient into a
 * permanent verdict.  A trace file is read once per registry entry:
 * every source of that entry replays the records of that one load, so
 * a file replaced on disk never gives one cell a prewarm from one
 * capture and a replay from another.
 */

#ifndef FO4_TRACE_DECODED_TRACE_HH
#define FO4_TRACE_DECODED_TRACE_HH

#include <atomic>
#include <cstdint>
#include <functional>
#include <memory>
#include <mutex>
#include <string>

#include "trace/profile.hh"
#include "trace/trace.hh"
#include "trace/trace_codec.hh"
#include "util/once_map.hh"

namespace fo4::trace
{

/** Makes a new source of one stream, positioned at record 0.  It owns
 *  what it captures and may be called from several threads at once. */
using SourceFactory = std::function<std::unique_ptr<TraceSource>()>;

/**
 * An append-only, chunked store of one benchmark's decoded instruction
 * stream.  record(i) materializes through index i on first demand
 * (serialized by an internal mutex) and is a wait-free array read on
 * every later call, from any thread.
 */
class DecodedTrace
{
  public:
    /** Decodes from a source made by `factory`, which it keeps; `key`
     *  names this trace in the registry (and in warm-state cache keys). */
    DecodedTrace(SourceFactory factory, std::string key);

    /** The record at stream index i, materializing it if needed. */
    const TraceRecord &record(std::uint64_t i)
    {
        if (i < produced.load(std::memory_order_acquire)) [[likely]]
            return chunks[i >> chunkShift][i & chunkMask];
        return materialize(i);
    }

    const std::string &key() const { return name; }

    /** A new source of this stream from record 0, decoding nothing into
     *  this trace. */
    std::unique_ptr<TraceSource> freshSource() const { return factory(); }

    /** Records decoded so far (monotone; for tests and metrics). */
    std::uint64_t materializedRecords() const
    {
        return produced.load(std::memory_order_acquire);
    }

  private:
    const TraceRecord &materialize(std::uint64_t i);

    // 16K records (512 KiB) per chunk; the fixed pointer directory caps
    // the stream at 256M records (8 GiB) — far beyond any sweep cell,
    // and hitting it is an internal error, not silent truncation.
    static constexpr unsigned chunkShift = 14;
    static constexpr std::uint64_t chunkMask = (1ull << chunkShift) - 1;
    static constexpr std::uint64_t maxChunks = 1ull << 14;

    std::string name;
    SourceFactory factory;
    std::unique_ptr<TraceSource> base;
    std::unique_ptr<std::unique_ptr<TraceRecord[]>[]> chunks;
    /** Published record count: stores before the release here are
     *  visible to any reader whose acquire load covers index i. */
    std::atomic<std::uint64_t> produced{0};
    std::mutex growLock;
};

/**
 * A TraceSource replaying one cursor over a shared DecodedTrace.  Each
 * grid cell owns its own view; the underlying cache is shared.  The
 * batched cores bypass next() and read packed records directly.
 */
class DecodedTraceView final : public TraceSource
{
  public:
    explicit DecodedTraceView(std::shared_ptr<DecodedTrace> trace)
        : cache(std::move(trace))
    {
    }

    isa::MicroOp next() override { return unpackTraceRecord(nextRecord()); }
    void reset() override { pos = 0; }

    /** Packed fast path for the batched cores (no virtual dispatch). */
    const TraceRecord &nextRecord() { return cache->record(pos++); }

    DecodedTrace &trace() { return *cache; }
    std::shared_ptr<DecodedTrace> share() const { return cache; }

  private:
    std::shared_ptr<DecodedTrace> cache;
    std::uint64_t pos = 0;
};

/**
 * Process-wide cache of decoded traces, one per distinct benchmark
 * identity.  The first lookup of an identity constructs the base source
 * (and rethrows its errors uncached); later lookups share the stream.
 */
class DecodedTraceRegistry
{
  public:
    static DecodedTraceRegistry &global();

    /** View over the decoded stream of a synthetic benchmark.  Throws
     *  ConfigError for an invalid profile (every call — never cached). */
    std::unique_ptr<DecodedTraceView>
    viewForProfile(const BenchmarkProfile &profile);

    /** View over the decoded stream of a recorded trace file, read
     *  once per entry.  Throws RecordedTrace's load errors (every
     *  failing call — never cached). */
    std::unique_ptr<DecodedTraceView> viewForFile(const std::string &path);

    /** Cached trace count (tests). */
    std::size_t size() const;

    /** Drop all cached traces.  Live views keep their streams alive;
     *  later lookups re-materialize.  For tests and memory pressure. */
    void clear();

  private:
    /** `load` runs only when `key` is not cached, and returns the
     *  factory of the new trace. */
    std::unique_ptr<DecodedTraceView>
    viewFor(const std::string &key, const std::function<SourceFactory()> &load);

    util::OnceMap<std::string, std::shared_ptr<DecodedTrace>> traces;
};

} // namespace fo4::trace

#endif // FO4_TRACE_DECODED_TRACE_HH
