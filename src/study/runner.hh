/**
 * @file
 * Experiment runner: simulates a benchmark suite on a core configuration
 * and aggregates per-class performance the way the paper reports it
 * (harmonic means of BIPS = IPC x frequency).
 *
 * Fault isolation: one broken benchmark (a corrupt trace file, a
 * pathological parameter override that deadlocks, an invalid profile)
 * must not take down a suite that may have hours of simulation behind
 * it.  runSuite() therefore catches SimErrors per benchmark, records
 * the typed error in that BenchResult, and aggregates the survivors;
 * only suite-level misconfiguration (no jobs, invalid base parameters)
 * throws.
 */

#ifndef FO4_STUDY_RUNNER_HH
#define FO4_STUDY_RUNNER_HH

#include <optional>
#include <ostream>
#include <string>
#include <vector>

#include "core/core.hh"
#include "tech/clocking.hh"
#include "trace/spec2000.hh"
#include "util/cancel.hh"
#include "util/status.hh"

namespace fo4::study
{

/** Which pipeline model to run. */
enum class CoreModel
{
    InOrder,
    OutOfOrder,
};

/** Parse a "ooo" / "inorder" model name; throws ConfigError. */
CoreModel coreModelFromName(const std::string &name);

/** Stable inverse of coreModelFromName. */
const char *coreModelName(CoreModel model);

/**
 * Which core implementation services a run.  Both produce byte-identical
 * results — serializeSuite-equal on every input, including failed rows
 * (DESIGN.md §14) — so the choice is purely an engineering speed knob:
 * Reference is the plain per-cycle model, Batched is the one-pass
 * throughput path (decoded-trace replay, shared prewarm state,
 * idle-span skipping).  Excluded from gridFingerprint for the same
 * reason tracers are: unable to change bytes, must not block a resume.
 */
enum class SimImpl
{
    Reference,
    Batched,
};

/** Stable name of an implementation ("reference", "batched"). */
const char *simImplName(SimImpl impl);

/** Parse a sim_impl name; throws ConfigError on unknown values. */
SimImpl simImplFromName(const std::string &name);

/** One benchmark's outcome. */
struct BenchResult
{
    std::string name;
    trace::BenchClass cls = trace::BenchClass::Integer;
    core::SimResult sim;
    double bips = 0.0;
    /** Why the benchmark produced no result; Ok when it succeeded. */
    util::Status error;

    bool failed() const { return !error.isOk(); }
};

/** A whole suite's outcome. */
struct SuiteResult
{
    std::vector<BenchResult> benchmarks;

    /** Benchmarks that failed, in run order. */
    std::vector<const BenchResult *> failures() const;

    std::size_t succeeded() const
    {
        return benchmarks.size() - failures().size();
    }

    /**
     * Harmonic mean of BIPS over one class; 0 if the class is absent.
     * Failed benchmarks are excluded from every aggregate.
     */
    double harmonicBips(trace::BenchClass cls) const;

    /** Harmonic mean of BIPS over every benchmark. */
    double harmonicBipsAll() const;

    /** Harmonic mean of IPC over one class. */
    double harmonicIpc(trace::BenchClass cls) const;

    /** Harmonic mean of IPC over every benchmark. */
    double harmonicIpcAll() const;

    /** Per-cause stall cycles summed over the succeeded benchmarks. */
    core::StallBreakdown aggregateStalls() const;

    /** Cycles simulated by the succeeded benchmarks. */
    std::uint64_t totalCycles() const;
};

/** How to run a suite. */
struct RunSpec
{
    CoreModel model = CoreModel::OutOfOrder;
    std::string predictor = "tournament";
    std::uint64_t instructions = 200000;
    /** Instructions simulated but discarded before measurement begins. */
    std::uint64_t warmup = 20000;
    /** Instructions streamed functionally through caches and predictor
     *  first (stands in for the paper's 500M-instruction skip). */
    std::uint64_t prewarm = 500000;
    /** Watchdog budget in cycles; 0 picks the core's default. */
    std::uint64_t cycleLimit = 0;

    /** Core implementation (reference or batched; identical bytes). */
    SimImpl impl = SimImpl::Reference;

    /**
     * Optional pipeline event tracer attached to the core before the
     * run.  Pure observability: excluded from gridFingerprint and
     * unable to change results.  A ring is single-writer, so a spec
     * carrying one must never be fanned out across parallel cells —
     * trace one cell serially instead (see bench/common.hh).
     */
    util::TraceEventRing *tracer = nullptr;

    /**
     * Optional retired-microop observer attached to the core before
     * the run (trace::Recorder verification, capture tooling).  Same
     * rules as `tracer`: pure observability, excluded from
     * gridFingerprint, and never fanned out across parallel cells —
     * a sink sees one core's commit stream or none.
     */
    trace::RetireSink *retireSink = nullptr;

    /** Report every problem with the spec (all at once). */
    util::Status validate() const;
};

/**
 * One unit of work in a suite: a named instruction stream plus optional
 * per-job overrides.  The stream comes from a synthetic profile or from
 * a recorded trace file; either may fail independently of its siblings.
 */
struct BenchJob
{
    std::string name;
    trace::BenchClass cls = trace::BenchClass::Integer;

    /** Synthetic source: generate the stream from this profile. */
    std::optional<trace::BenchmarkProfile> profile;
    /** File source: replay this recorded trace (used when no profile). */
    std::string tracePath;

    /** Per-job core parameters (otherwise the suite's base params). */
    std::optional<core::CoreParams> params;
    /** Per-job watchdog budget (otherwise the spec's). */
    std::optional<std::uint64_t> cycleLimit;

    static BenchJob fromProfile(const trace::BenchmarkProfile &profile);
    static BenchJob fromTraceFile(const std::string &name,
                                  trace::BenchClass cls,
                                  const std::string &path);
};

/** One plain job per profile, in profile order. */
std::vector<BenchJob>
jobsFromProfiles(const std::vector<trace::BenchmarkProfile> &profiles);

/**
 * Run every job on a fresh core built from `params`, converting IPC to
 * BIPS with `clock`.  A job that raises a SimError is recorded as a
 * failure in its BenchResult and the suite continues; see failures().
 * Throws ConfigError if the job list is empty or params/spec/clock are
 * themselves invalid.
 */
SuiteResult runSuite(const core::CoreParams &params,
                     const tech::ClockModel &clock,
                     const std::vector<BenchJob> &jobs,
                     const RunSpec &spec);

/** Convenience overload: every profile becomes a plain job. */
SuiteResult runSuite(const core::CoreParams &params,
                     const tech::ClockModel &clock,
                     const std::vector<trace::BenchmarkProfile> &profiles,
                     const RunSpec &spec);

/** A fresh core of `spec`'s model and implementation, built from
 *  `params` with `spec.predictor`. */
std::unique_ptr<core::Core> makeCore(const core::CoreParams &params,
                                     const RunSpec &spec);

/**
 * Run one job; throws SimError on failure instead of recording it.
 * `cancel` (optional) is polled by the core's per-cycle watchdog check;
 * a cancellation request aborts the simulation with CancelledError.
 */
BenchResult runJob(const core::CoreParams &params,
                   const tech::ClockModel &clock, const BenchJob &job,
                   const RunSpec &spec,
                   const util::CancelToken *cancel = nullptr);

/**
 * Set `result.bips` from its simulated IPC at `clock`'s frequency.  The
 * one place a cell's clock reaches its result: runJob prices every
 * simulation through it, and the grid executors price a Monte Carlo
 * die through it from another die's simulation of the same CoreParams
 * (DESIGN.md §17), so a priced cell cannot drift from a simulated one.
 */
void priceAtClock(BenchResult &result, const tech::ClockModel &clock);

/**
 * Run one job with the suite's fault isolation: any SimError (or other
 * exception) is captured in the returned BenchResult instead of
 * propagating.  This is the one per-job code path shared by the serial
 * runSuite and the grid executor (study::CheckpointedRunner), which
 * is what makes their results bit-for-bit identical.
 *
 * CancelledError is the one deliberate exception to the isolation: a
 * cancelled job produced no result *by request*, which is not a fault
 * of the job, so it propagates instead of being recorded as a failed
 * row — otherwise an interrupted sweep would write rows that an
 * uninterrupted sweep would not, breaking resume byte-identity.
 */
BenchResult runJobIsolated(const core::CoreParams &params,
                           const tech::ClockModel &clock,
                           const BenchJob &job, const RunSpec &spec,
                           const util::CancelToken *cancel = nullptr);

/**
 * Validate the suite-level inputs of runSuite (job list, spec, params,
 * clock), throwing ConfigError exactly as runSuite would.  Exposed so
 * the grid executor can fail fast before fanning out.
 */
void validateSuiteInputs(const core::CoreParams &params,
                         const tech::ClockModel &clock,
                         const std::vector<BenchJob> &jobs,
                         const RunSpec &spec);

/**
 * Canonical byte-exact rendering of a suite: every field of every row,
 * doubles in hexfloat so no precision is lost.  Two SuiteResults are
 * bit-for-bit identical iff their serializations compare equal — the
 * determinism contract of the grid executor is stated (and tested) in
 * terms of this string.
 */
std::string serializeSuite(const SuiteResult &suite);

/** Run one profile; throws SimError on failure. */
BenchResult runBenchmark(const core::CoreParams &params,
                         const tech::ClockModel &clock,
                         const trace::BenchmarkProfile &profile,
                         const RunSpec &spec);

/**
 * Print the per-benchmark table (failed rows show their error code),
 * failure details, and harmonic means over the survivors.
 */
void printSuite(std::ostream &os, const SuiteResult &suite);

} // namespace fo4::study

#endif // FO4_STUDY_RUNNER_HH
