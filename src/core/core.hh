/**
 * @file
 * The abstract processor-core interface and the simulation result record
 * shared by the in-order and out-of-order pipeline models.
 */

#ifndef FO4_CORE_CORE_HH
#define FO4_CORE_CORE_HH

#include <array>
#include <cstdint>
#include <memory>

#include "core/params.hh"
#include "trace/trace.hh"
#include "util/cancel.hh"
#include "util/metrics.hh"

namespace fo4::core
{

/**
 * Why a cycle retired nothing.  Exactly one cause is charged per stall
 * cycle (priority: the oldest unretired instruction's blocker), so the
 * per-cause counts sum *exactly* to SimResult::stallCycles — the
 * invariant tests assert against.
 *
 * Two causes are structural zeros in the current model and kept for
 * schema stability: IcacheMiss (fetch hits an ideal I-side; a fetch
 * starved for any non-mispredict reason lands in FrontEnd) and, on the
 * in-order core, WindowFull (a scoreboarded pipeline has no window; the
 * first instruction each cycle always has a functional unit).
 */
enum class StallCause : int
{
    BranchMispredict, ///< unresolved mispredict, or its refill shadow
    IcacheMiss,       ///< reserved: no I-cache in the model (always 0)
    DcacheMiss,       ///< oldest op blocked by a DL1/L2-missing load
    WindowFull,       ///< oldest op ready but unselected (wakeup/select)
    RawLoadUse,       ///< load-use latency of a DL1 *hit* blocks retirement
    Execute,          ///< oldest op mid-execution (non-load latency)
    FrontEnd,         ///< nothing to retire; fetch bubbles / cold start
    Other,            ///< RAW on a non-load producer, WAW, spill-over
};

constexpr int numStallCauses = 8;

/** Stable name of a cause ("branch-mispredict", ...); never null. */
const char *stallCauseName(StallCause cause);

/** Per-cause stall-cycle counts; an exact partition of stallCycles. */
struct StallBreakdown
{
    std::array<std::uint64_t, numStallCauses> byCause{};

    std::uint64_t &
    operator[](StallCause cause)
    {
        return byCause[static_cast<int>(cause)];
    }

    std::uint64_t
    operator[](StallCause cause) const
    {
        return byCause[static_cast<int>(cause)];
    }

    /** Sum over every cause (== SimResult::stallCycles). */
    std::uint64_t total() const;

    StallBreakdown &operator+=(const StallBreakdown &other);
};

/**
 * Per-stage occupancy accumulators, sampled once per simulated cycle.
 * Sums (not means) are stored so warm-up subtraction and cross-cell
 * aggregation stay exact integer arithmetic; divide by `cycles` for the
 * mean.  The in-order core populates only frontSum (its issue queue).
 */
struct OccupancySample
{
    std::uint64_t cycles = 0;   ///< cycles observed
    std::uint64_t frontSum = 0; ///< fetched but not dispatched / queued
    std::uint64_t windowSum = 0; ///< issue-window entries (ooo)
    std::uint64_t robSum = 0;    ///< dispatched but not committed (ooo)
    std::uint64_t lsqSum = 0;    ///< loads/stores in flight (ooo)

    double
    mean(std::uint64_t sum) const
    {
        return cycles ? static_cast<double>(sum) /
                            static_cast<double>(cycles)
                      : 0.0;
    }
};

/** Aggregate outcome of one simulation run. */
struct SimResult
{
    std::uint64_t instructions = 0;
    std::uint64_t cycles = 0;
    std::uint64_t branches = 0;
    std::uint64_t mispredicts = 0;
    std::uint64_t loads = 0;
    std::uint64_t stores = 0;
    std::uint64_t dl1Misses = 0;
    std::uint64_t l2Misses = 0;

    // --- observability (deterministic; part of the byte-identity
    //     contract like the counters above) ---

    /** Cycles in which the retire stage (commit for the out-of-order
     *  core, issue for the in-order core) made zero progress. */
    std::uint64_t stallCycles = 0;
    /** Exact per-cause partition of stallCycles. */
    StallBreakdown stalls;
    /** Dispatch-blocked cycles by structural cause (ooo only). */
    std::uint64_t dispatchWindowFull = 0;
    std::uint64_t dispatchRobFull = 0;
    std::uint64_t dispatchLsqFull = 0;
    /** Per-structure occupancy, sampled every cycle. */
    OccupancySample occupancy;

    double
    ipc() const
    {
        return cycles ? static_cast<double>(instructions) /
                            static_cast<double>(cycles)
                      : 0.0;
    }

    double
    mispredictRate() const
    {
        return branches ? static_cast<double>(mispredicts) /
                              static_cast<double>(branches)
                        : 0.0;
    }

    double
    dl1MissRate() const
    {
        const auto refs = loads + stores;
        return refs ? static_cast<double>(dl1Misses) /
                          static_cast<double>(refs)
                    : 0.0;
    }

    /** Counter-wise difference; used to discard warm-up statistics. */
    SimResult operator-(const SimResult &other) const;
};

/**
 * The one ordered list of SimResult's counters: the 8 run counters,
 * stallCycles and its 8 causes, the 3 dispatch counters and the 5
 * occupancy fields.  Calls `f` once per counter, in that order, with
 * the same counter of every result in `rs`.  The warm-up subtraction,
 * study::serializeSuite's rendering and the journal's cell record walk
 * this list, so its order is the order of those bytes.  A new counter
 * joins the list (the assert below insists) and raises
 * util::kJournalVersion.
 */
template <class F, class... R>
constexpr void
forEachCounter(F &&f, R &...rs)
{
    f(rs.instructions...);
    f(rs.cycles...);
    f(rs.branches...);
    f(rs.mispredicts...);
    f(rs.loads...);
    f(rs.stores...);
    f(rs.dl1Misses...);
    f(rs.l2Misses...);
    f(rs.stallCycles...);
    for (int c = 0; c < numStallCauses; ++c)
        f(rs.stalls.byCause[c]...);
    f(rs.dispatchWindowFull...);
    f(rs.dispatchRobFull...);
    f(rs.dispatchLsqFull...);
    f(rs.occupancy.cycles...);
    f(rs.occupancy.frontSum...);
    f(rs.occupancy.windowSum...);
    f(rs.occupancy.robSum...);
    f(rs.occupancy.lsqSum...);
}

static_assert(
    [] {
        SimResult r;
        std::size_t n = 0;
        forEachCounter([&n](std::uint64_t) { ++n; }, r);
        return n * sizeof(std::uint64_t);
    }() == sizeof(SimResult),
    "every SimResult field must be in forEachCounter's list");

/** A cycle-level processor model. */
class Core
{
  public:
    virtual ~Core() = default;

    /**
     * Simulate until `warmup + instructions` have committed, pulling from
     * the trace source; statistics cover only the instructions after the
     * warm-up (caches and predictors stay warm).  The trace is reset
     * first, so repeated runs (and runs of differently-configured cores)
     * see identical streams.
     *
     * `prewarm` instructions are first streamed *functionally* through
     * the caches and branch predictor (no timing), then the trace is
     * reset again before the timed simulation.  This stands in for the
     * hundreds of millions of instructions the paper executes before its
     * measurement window: the measured region starts with warm caches.
     *
     * `cycleLimit` is the watchdog budget: a run that has not committed
     * its target within that many cycles throws a DeadlockError carrying
     * a pipeline-state diagnostic dump.  0 selects the default budget of
     * 1000 cycles per instruction plus 100k slack.  Invalid arguments
     * (zero instructions) throw ConfigError.
     *
     * `cancel` hooks the simulation into cooperative cancellation: the
     * token is polled alongside the per-cycle watchdog check, and a
     * cancellation request makes the run throw util::CancelledError at
     * the next cycle boundary — mid-simulation, not just between jobs,
     * so a Ctrl-C never waits behind a multi-second cell.  nullptr
     * (the default) disables the check.
     */
    virtual SimResult run(trace::TraceSource &trace,
                          std::uint64_t instructions,
                          std::uint64_t warmup = 0,
                          std::uint64_t prewarm = 0,
                          std::uint64_t cycleLimit = 0,
                          const util::CancelToken *cancel = nullptr) = 0;

    virtual const CoreParams &params() const = 0;

    /**
     * Attach (or detach, with nullptr) a pipeline event tracer.  The
     * ring must outlive the run; it is single-writer, so a ring is
     * never shared between cores running concurrently.  Tracing is
     * pure observability: it does not perturb timing or results.
     */
    virtual void setTracer(util::TraceEventRing *ring) = 0;

    /**
     * Attach (or detach, with nullptr) a retired-microop observer.  The
     * sink must outlive the run and is called once per committed
     * instruction, in commit order, with the op fetched for that stream
     * position.  Like the tracer this is pure observability — it must
     * not change any simulation result — and a sink is never shared
     * between cores running concurrently.
     */
    virtual void setRetireSink(trace::RetireSink *sink) = 0;
};

/** Build the dynamically-scheduled (Alpha 21264-like) core. */
std::unique_ptr<Core> makeOooCore(const CoreParams &params,
                                  const std::string &predictor =
                                      "tournament");

/** Build the in-order variant (paper Section 4.1). */
std::unique_ptr<Core> makeInorderCore(const CoreParams &params,
                                      const std::string &predictor =
                                          "tournament");

/**
 * Throughput-optimized variants (`sim_impl=batched`): the same models,
 * byte-identical results (DESIGN.md §14), restructured for speed —
 * struct-of-arrays state, devirtualized decoded-trace reads, shared
 * prewarm state, and idle-span skipping.
 */
std::unique_ptr<Core> makeBatchedOooCore(const CoreParams &params,
                                         const std::string &predictor =
                                             "tournament");
std::unique_ptr<Core> makeBatchedInorderCore(const CoreParams &params,
                                             const std::string &predictor =
                                                 "tournament");

} // namespace fo4::core

#endif // FO4_CORE_CORE_HH
