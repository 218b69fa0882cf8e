/**
 * @file
 * The benchmark's calls into single layers, shared by the workloads:
 * one remote sweep through svc::Client, and the traced runs' timings of
 * trace decode, prewarm, study::runJob, the cell codec, the journal,
 * the blob store, planning and wire framing — each on the inputs of
 * the workload that asks for it.
 */

#ifndef FO4_PERFBENCH_LAYERS_HH
#define FO4_PERFBENCH_LAYERS_HH

#include <cstdint>
#include <map>
#include <string>
#include <vector>

#include "cacti/latency_cache.hh"
#include "perfbench.hh"
#include "spans.hh"
#include "study/checkpoint.hh"
#include "svc/client.hh"
#include "svc/sweep.hh"

namespace fo4::perfbench
{

/** What one submit -> wait -> fetch -> verify round produced. */
struct RemoteSweep
{
    bool ok = false;   ///< Done, fetched, and digest matched
    double seconds = 0; ///< submit until verified bytes
    std::uint64_t cells = 0;
    std::string bytes;
};

/**
 * Submit `request`, wait with Client::waitUntilDone at `pollMs`, fetch
 * and check the bytes against `expected`.  Never throws: a refused,
 * failed or timed-out sweep comes back with ok == false (a timed-out
 * one is cancelled).  Traced runs get spans svc.submit, svc.wait,
 * svc.fetch, check.digest and one extra svc.poll of the finished job.
 */
RemoteSweep runRemoteSweep(svc::Client &client,
                           const svc::SweepRequest &request,
                           std::uint64_t expected, int pollMs,
                           double timeoutSeconds, Tracer &tracer,
                           std::uint64_t parent, std::uint64_t sweep);

/**
 * Decode every job's stream to `depth[j]` records through
 * DecodedTraceRegistry::viewForProfile + DecodedTrace::record, on
 * `threads` threads, one trace.decode span per job.  Returns the
 * summed call seconds.
 */
double decodeTraces(const std::vector<study::BenchJob> &jobs,
                    const std::vector<std::uint64_t> &depth, int threads,
                    Tracer &tracer, std::uint64_t parent,
                    std::uint64_t sweep);

/**
 * WarmStartCache::acquire for every (point, job) cell the way the
 * batched cores call it, on `threads` threads, one core.prewarm span
 * per call.  Returns the summed call seconds.
 */
double prewarmStates(const std::vector<study::GridPoint> &points,
                     const std::vector<study::BenchJob> &jobs,
                     const study::RunSpec &spec, int threads,
                     Tracer &tracer, std::uint64_t parent,
                     std::uint64_t sweep);

/**
 * trace.decode_s and core.prewarm_s, each per sweep, and
 * trace.decoded_mb: decode and prewarm every request's plan the way the
 * batched engine would, to prewarm + warmup + instructions records.
 */
void reportDecodeAndPrewarm(const std::vector<svc::SweepRequest> &requests,
                            Tracer &tracer, RunResult &result);

/** study::runJob timed cell by cell on one thread. */
struct JobTimings
{
    double mcyclesPerSecond = 0.0;
    std::vector<double> cellMs;
};
JobTimings timeRunJob(const std::vector<study::GridPoint> &points,
                      const std::vector<study::BenchJob> &jobs,
                      const study::RunSpec &spec, Tracer &tracer,
                      std::uint64_t parent);

/** study.cell_p50_ms, study.cell_p90_ms and study.thread_busy_frac
 *  over CheckpointedRunner reports of `threads`-thread runs. */
void reportStudyCells(const std::vector<study::CheckpointReport> &reports,
                      int threads, RunResult &result);

/** Every cell of a grid as the journal stores it. */
std::vector<study::CellRecord>
cellRecords(const std::vector<study::SuiteResult> &suites);

/** Mean microseconds of encodeCellRecord + decodeCellRecord per cell. */
double cellCodecMicros(const std::vector<study::CellRecord> &cells);

/**
 * util.journal_append_ms_p50/_p90 (fsync'd JournalWriter::append) and
 * util.journal_append_nosync_us on `payloads`, in a journal under
 * `dir`.
 */
void measureJournal(const std::vector<std::string> &payloads,
                    const std::string &dir, RunResult &result);

/** util.blob_put_ms and util.blob_get_ms: medians of BlobStore::put and
 *  BlobStore::get of `payloads` in a store under `dir`. */
void measureBlobStore(const std::vector<std::string> &payloads,
                      const std::string &dir, RunResult &result);

/** Microseconds per KiB of encodeFrame + decodeFrameHeader +
 *  decodePayload over `bodies` as Results frames. */
double frameMicrosPerKiB(const std::vector<std::string> &bodies);

/** Median milliseconds of svc::planSweep + planFingerprint. */
double planMillis(const std::vector<svc::SweepRequest> &requests);

/** Share of the grid's cells whose (core parameters, job, spec) repeat
 *  an earlier cell's — simulations that only the clock tells apart. */
double duplicateShare(const std::vector<study::GridPoint> &points,
                      const std::vector<study::BenchJob> &jobs,
                      const study::RunSpec &spec);

/** Measured instructions per cell of a grid's results. */
double instructionsPerCell(const std::vector<study::SuiteResult> &suites);

/**
 * unaccounted_frac: the share of the traced passes' wall that no
 * non-group span covers; trace_overhead_frac: their wall against
 * `untracedSeconds`, the wall of the same work run untraced.  Callers
 * run untraced, traced, traced, untraced, so a steady drift in host
 * speed cancels out of the ratio.
 */
void reportAccounting(const Tracer &tracer,
                      const std::vector<std::uint64_t> &passSpans,
                      double untracedSeconds, RunResult &result);

/** A daemon's registry counters (Client::stats), by name. */
std::map<std::string, std::uint64_t>
countersOf(const svc::StatsSnapshot &stats);

/** Hits over lookups between two LatencyCache::stats() snapshots; 0
 *  when nothing was looked up. */
double hitRatio(const cacti::LatencyCacheStats &before,
                const cacti::LatencyCacheStats &after);

} // namespace fo4::perfbench

#endif // FO4_PERFBENCH_LAYERS_HH
