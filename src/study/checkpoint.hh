/**
 * @file
 * The grid executor: every sweep in the repo — the figure benches, the
 * Monte Carlo study, the structure optimizer, the service and the fleet
 * coordinator — runs its (point x job) grid through CheckpointedRunner.
 *
 * Determinism contract: each cell is simulated by study::runJobIsolated,
 * the exact code path of the serial runSuite, on a private core, trace
 * source and RNG, and writes only its own preallocated result slot.  The
 * merged results are therefore ordered by slot, never by completion
 * order — failed rows included — and are bit-for-bit identical
 * (serializeSuite-equal) to the serial runSuite at every thread count,
 * on either core implementation, and across an interrupt/resume cycle.
 *
 * Durability: with a journal, every completed cell is appended to a
 * write-ahead journal the moment it finishes, so a crash, OOM kill or
 * Ctrl-C loses at most the cells that were in flight.  A restarted run
 * replays the journal, skips the completed cells and simulates only the
 * remainder.
 *
 * Resume identity: the journal header carries a fingerprint of every
 * input that can influence a result — each grid point's CoreParams and
 * ClockModel, every job (profile fields, trace path, overrides) and the
 * RunSpec, all doubles rendered in hexfloat so no precision is lost.
 * A resume whose inputs hash differently is refused with a typed
 * ErrorCode::ResumeMismatch instead of silently merging incompatible
 * results.  Thread count and retry policy are deliberately *excluded*:
 * neither can change a cell's bytes, so neither should block a resume.
 *
 * Retry: transient-classed failures (I/O, unexpected internal errors)
 * are retried per RetryPolicy — exponential backoff with deterministic
 * jitter — before a cell is recorded as failed.  Deterministic-by-
 * construction failures (invalid configuration, corrupt trace payload,
 * tripped watchdogs) are never retried: rerunning them buys nothing.
 *
 * Cancellation: a util::CancelToken is polled at cell boundaries (via
 * util::TaskGroup) and inside each simulation's per-cycle watchdog
 * check.  On request, queued cells are skipped, in-flight cells drain
 * or abort, the journal is flushed, and CancelledError is raised — the
 * run exits resumable, and util::runTopLevel maps that to exit code
 * 130.
 */

#ifndef FO4_STUDY_CHECKPOINT_HH
#define FO4_STUDY_CHECKPOINT_HH

#include <cstdint>
#include <functional>
#include <optional>
#include <string>
#include <string_view>
#include <vector>

#include "study/runner.hh"
#include "study/scaling.hh"
#include "util/cancel.hh"
#include "util/journal.hh"
#include "util/status.hh"

namespace fo4::study
{

/** One fully-specified sweep point: a core configuration and its clock. */
struct GridPoint
{
    core::CoreParams params;
    tech::ClockModel clock;
};

/** One solved point of a scaling sweep. */
struct SweepPointResult
{
    double tUseful = 0.0;
    tech::ClockModel clock;
    SuiteResult suite;
};

/** Knobs of a scaling sweep beyond the t_useful axis. */
struct SweepOptions
{
    /** Structure capacities, memory system, window — per Section 3. */
    ScalingOptions scaling;
    /** Clocking overhead applied at every point (Table 1 default). */
    tech::OverheadModel overhead = tech::OverheadModel::paperDefault();
};

/**
 * The paper's standard grid: one point per t_useful, the pipeline
 * scaled to it (scaledCoreParams) and clocked at it (scaledClock).
 */
std::vector<GridPoint> scalingGrid(const std::vector<double> &tUseful,
                                   const SweepOptions &options);

/**
 * When and how often a failed cell is re-attempted.  Only failures
 * whose ErrorCode is transient-classed (see transientCode) are
 * retried; a ConfigError or a deterministic simulation failure is
 * final on the first attempt.
 */
struct RetryPolicy
{
    /** Total attempts per cell, including the first; 1 = no retry. */
    int maxAttempts = 1;
    /** Backoff before attempt k (k >= 2): base * factor^(k-2), capped. */
    double baseDelayMs = 0.0;
    double backoffFactor = 2.0;
    double maxDelayMs = 5000.0;
    /** Jitter width: each delay is scaled by a deterministic factor in
     *  [1 - jitterFraction/2, 1 + jitterFraction/2]. */
    double jitterFraction = 0.25;

    /**
     * Is a failure with this code worth retrying?  TraceIo (a file
     * that may reappear — NFS hiccup, racing writer) and Internal (an
     * unclassified escape) are transient; InvalidConfig / UnknownKey /
     * TraceFormat / TraceCorrupt / Deadlock are deterministic verdicts
     * and retrying them cannot change the outcome.
     */
    static bool transientCode(util::ErrorCode code);

    /**
     * Backoff before retry attempt `attempt` (2-based: the delay that
     * precedes the second attempt is attempt=2) of cell `cellKey`,
     * with deterministic jitter — a util::RandomStream split per cell
     * and per attempt, so the same (policy, cell, attempt) always waits
     * the same time and reproductions reproduce.
     */
    double delayMs(int attempt, std::uint64_t cellKey) const;

    /** Report every out-of-range field at once. */
    util::Status validate() const;
};

/**
 * One completed grid cell keyed by its slot — the unit the journal
 * stores and the sweep fabric ships between processes.
 */
struct CellRecord
{
    std::size_t point = 0;
    std::size_t job = 0;
    BenchResult result;
};

/**
 * Binary little-endian payload of one cell: slot key, simulation
 * counters, doubles as raw bit patterns — so a decoded BenchResult is
 * bit-for-bit the one encoded.  This is both the journal record format
 * (util::Journal payloads) and the wire format of a fabric CellDone.
 */
std::string encodeCellRecord(const CellRecord &cell);

/** Inverse of encodeCellRecord; `origin` names the journal file or
 *  peer for error text.  Throws JournalError(JournalCorrupt) on a
 *  truncated or oversize payload, an unknown class or error code, or an
 *  Ok code carrying a message — so every accepted payload re-encodes
 *  to itself. */
CellRecord decodeCellRecord(const std::string &payload,
                            const std::string &origin);

/**
 * Journal one cell record, or give the journal up: a failed append (a
 * full or failing disk) warns, drops `writer` and counts
 * study.journal.append_errors, and the sweep goes on without
 * crash-resume.  The intact prefix stays a valid resume point.
 */
void appendOrDisableJournal(std::optional<util::JournalWriter> &writer,
                            std::string_view record);

/** A grid's journal, created or recovered, bound for appends. */
struct GridJournal
{
    /** The cells an existing journal already held, in append order. */
    std::vector<CellRecord> cells;
    /** True if an existing journal was recovered. */
    bool resumed = false;
    /** True if recovery discarded a torn trailing record. */
    bool tornTail = false;
    std::optional<util::JournalWriter> writer;
};

/**
 * Create the journal of a `points` x `jobs` grid whose identity is
 * `fingerprint` (gridFingerprint), or recover the one already at
 * `path`.  Recovery refuses a journal of other inputs
 * (ResumeMismatch) and a record that does not decode to a cell inside
 * the grid (JournalCorrupt), then binds the writer to the end of the
 * valid prefix.  CheckpointedRunner and the fleet coordinator both
 * open their journals here.
 */
GridJournal openGridJournal(const std::string &path,
                            std::uint64_t fingerprint, std::size_t points,
                            std::size_t jobs);

/** Knobs of the checkpointed runner. */
struct CheckpointOptions
{
    /**
     * Journal file backing the run.  Empty disables durability (retry
     * and cancellation still apply).  If the file exists it is
     * recovered and the run *resumes*; otherwise it is created.
     */
    std::string journalPath;

    /** Worker threads; 1 = serial, <= 0 = hardware thread count. */
    int threads = 1;

    RetryPolicy retry;

    /** Cooperative cancellation source (e.g. a SIGINT handler);
     *  nullptr = not cancellable. */
    const util::CancelToken *cancel = nullptr;

    /**
     * Observability hook, called before each execution attempt of a
     * cell with (pointIndex, jobIndex, attempt); attempt counts from 1.
     * Called from worker threads; must be thread-safe.  Used by tests
     * to count retries and to inject cancellation at exact boundaries.
     */
    std::function<void(std::size_t point, std::size_t job, int attempt)>
        onAttempt;

    /**
     * Cells completed elsewhere (e.g. by fleet workers), landed in
     * their slots before execution exactly like replayed journal
     * records.  Slots the journal already restored win the tie — both
     * sources hold byte-identical results for a cell, so the skip is
     * an economy, not a choice.  Seeds are *not* re-journaled: the
     * process that produced them already holds their durable record.
     */
    std::vector<CellRecord> seedCells;
};

/** Wall-clock profile of one executed (not replayed) cell. */
struct CellTiming
{
    std::size_t point = 0;
    std::size_t job = 0;
    double wallMs = 0.0;
    /** Attempts this run made on the cell (>= 1; > 1 means retried). */
    int attempts = 1;
};

/** What a runGrid/sweepScaling call did (progress accounting). */
struct CheckpointReport
{
    std::size_t totalCells = 0;
    /** Cells restored from the journal instead of simulated. */
    std::size_t replayedCells = 0;
    /** Cells landed from CheckpointOptions::seedCells. */
    std::size_t seededCells = 0;
    /** Cells completed by this run, simulated or priced. */
    std::size_t executedCells = 0;
    /** Of executedCells, those priced from another cell's simulation
     *  of the same (CoreParams, job) instead of simulated (see
     *  simulationOwners); simulations run = executed - shared. */
    std::size_t sharedCells = 0;
    /** Extra attempts beyond each cell's first (retry activity). */
    std::size_t retriedAttempts = 0;
    /** True if an existing journal was recovered. */
    bool resumed = false;
    /** True if recovery discarded a torn trailing record. */
    bool tornTailDiscarded = false;

    /**
     * Per-cell wall times and attempt counts, in completion order.
     * Engineering diagnostics: scheduling-dependent, so never part of
     * the byte-identity contract (unlike everything journaled).
     */
    std::vector<CellTiming> cellTimings;
    /** Wall time of the whole runGrid call, milliseconds. */
    double wallMs = 0.0;
};

/**
 * The grid executor; see the file comment for its contracts.
 * `threads == 1` (the default) is strictly serial; `threads <= 0`
 * selects the hardware thread count.
 *
 * Each distinct simulation runs once per call: the cells of one
 * (simulationOwners class, job) form one task, whose first successful
 * simulation — or replayed or seeded success — prices every other cell
 * of the class (priceAtClock).  Failures are never shared: a failed
 * cell keeps its own attempts and retries, and the next cell of its
 * class simulates afresh.  Every cell is still announced to onAttempt,
 * journaled and reported; a grid whose points all own themselves runs
 * exactly one task per cell, in cell order.
 */
class CheckpointedRunner
{
  public:
    explicit CheckpointedRunner(CheckpointOptions options);

    /** Actual parallelism this runner fans out to (>= 1). */
    int threads() const { return nThreads; }

    /**
     * Run the (point x job) grid: one SuiteResult per GridPoint, in
     * point order, byte-identical to the serial runSuite of each point.
     * Throws ConfigError if any point's inputs are invalid (before any
     * cell simulates), JournalError (ResumeMismatch) when an existing
     * journal's identity does not match, CancelledError when
     * cancellation is requested (after flushing the journal).
     */
    std::vector<SuiteResult> runGrid(const std::vector<GridPoint> &points,
                                     const std::vector<BenchJob> &jobs,
                                     const RunSpec &spec);

    /**
     * The paper's standard experiment: run every job on the
     * scalingGrid of `tUseful` and return the points in sweep order.
     */
    std::vector<SweepPointResult>
    sweepScaling(const std::vector<double> &tUseful,
                 const SweepOptions &options,
                 const std::vector<BenchJob> &jobs, const RunSpec &spec);

    /** Convenience overload for profile lists. */
    std::vector<SweepPointResult>
    sweepScaling(const std::vector<double> &tUseful,
                 const SweepOptions &options,
                 const std::vector<trace::BenchmarkProfile> &profiles,
                 const RunSpec &spec);

    /** Accounting for the most recent runGrid/sweepScaling call. */
    const CheckpointReport &report() const { return lastReport; }

  private:
    CheckpointOptions opts;
    int nThreads = 1;
    CheckpointReport lastReport;
};

/**
 * Identity fingerprint of a grid run: FNV-1a over the canonical
 * rendering (util::IdentityHasher) of every result-influencing input,
 * doubles in hexfloat.  Two runs with equal fingerprints would
 * produce byte-identical results; a journal may only be resumed by a
 * run whose fingerprint matches its header.
 */
std::uint64_t gridFingerprint(const std::vector<GridPoint> &points,
                              const std::vector<BenchJob> &jobs,
                              const RunSpec &spec);

/**
 * The simulation each grid point shares: owners[p] is the first point
 * whose CoreParams render identically to point p's under
 * gridFingerprint's rendering, so sharing and resume agree on what
 * counts as the same simulation.  A cell's simulation reads its point's
 * CoreParams, the job and the spec; the clock only prices IPC into BIPS
 * (priceAtClock).  Cells (p, j) and (owners[p], j) therefore simulate
 * identically.  Every point of a deterministic grid owns itself; every
 * die of a Monte Carlo point is owned by die 0.  A spec carrying a
 * tracer or retire sink gets owners[p] == p throughout: observers must
 * see every simulation.
 */
std::vector<std::size_t>
simulationOwners(const std::vector<GridPoint> &points, const RunSpec &spec);

} // namespace fo4::study

#endif // FO4_STUDY_CHECKPOINT_HH
