/**
 * @file
 * The one code path from a wire SweepRequest to canonical result bytes.
 *
 * Identity guarantee: the daemon and `fo4ctl local` both call
 * planSweep + runSweep + renderResults here, so a sweep fetched over
 * the wire is byte-identical to the same sweep run locally — at any
 * thread count, including the position and typed error of failed rows
 * (the grid executor's determinism contract, see study/checkpoint.hh,
 * extended across the socket).
 *
 * A plan is validated eagerly at submit time (planSweep throws
 * ConfigError on nonsense before the request enters the queue), which
 * is what lets admission control reject bad requests synchronously
 * instead of failing them minutes later.
 */

#ifndef FO4_SVC_SWEEP_HH
#define FO4_SVC_SWEEP_HH

#include <cstdint>
#include <functional>
#include <string>
#include <vector>

#include "study/checkpoint.hh"
#include "svc/protocol.hh"
#include "util/cancel.hh"

namespace fo4::svc
{

/** A validated, fully-derived sweep: the grid CheckpointedRunner runs. */
struct SweepPlan
{
    std::vector<study::GridPoint> points;
    std::vector<study::BenchJob> jobs;
    study::RunSpec spec;
    /** The request's t_useful axis, in request order (for rendering). */
    std::vector<double> tUseful;

    /** Grid cells = points x jobs (the Poll progress denominator). */
    std::uint64_t cells() const { return points.size() * jobs.size(); }
};

/**
 * Derive and validate the plan for a request: scaled core parameters
 * and clock per t_useful (study::scaledCoreParams / scaledClock with
 * OverheadModel::uniform(request.overheadFo4)), one BenchJob per wire
 * job.  Throws ConfigError on invalid requests (unknown profile name,
 * bad model, empty axis, invalid derived parameters) — trace *paths*
 * are not probed here; a missing file fails its cell at run time, like
 * everywhere else.
 */
SweepPlan planSweep(const SweepRequest &request);

/**
 * Identity of a plan: study::gridFingerprint over its grid.  The
 * daemon keys each request's checkpoint journal by this, so
 * resubmitting a sweep after a daemon restart resumes it.
 */
std::uint64_t planFingerprint(const SweepPlan &plan);

/**
 * Execute a plan through study::CheckpointedRunner and return the
 * canonical result bytes.  `journalPath` empty disables durability;
 * `cancel` and `onAttempt` are passed through to CheckpointOptions.
 * Throws what the runner throws (CancelledError on cancellation,
 * after the journal is flushed — the run stays resumable).
 *
 * `anyFailed`, if given, reports whether any cell carries a per-row
 * typed failure.  Failed rows are part of the canonical bytes (the
 * identity contract covers them), but a result containing one must not
 * enter the persistent cache — a transient fault would otherwise be
 * replayed to every later submission of the same sweep.
 */
std::string runSweep(const SweepPlan &plan, int threads,
                     const std::string &journalPath,
                     const util::CancelToken *cancel,
                     std::function<void(std::size_t point, std::size_t job,
                                        int attempt)>
                         onAttempt,
                     bool *anyFailed = nullptr);

/** runSweep with every CheckpointOptions knob — the fleet coordinator
 *  assembles its sweeps through this, seeded with the merged cells. */
std::string runSweep(const SweepPlan &plan,
                     study::CheckpointOptions options,
                     bool *anyFailed = nullptr);

/**
 * Canonical rendering shared by the service and local execution: a
 * versioned header, then per sweep point one hexfloat point line and
 * the suite's study::serializeSuite bytes.  Everything downstream of
 * the simulator is this pure function of (plan, suites).
 */
std::string renderResults(const SweepPlan &plan,
                          const std::vector<study::SuiteResult> &suites);

} // namespace fo4::svc

#endif // FO4_SVC_SWEEP_HH
