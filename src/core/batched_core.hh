/**
 * @file
 * The batched engine's one run loop (`sim_impl=batched`).
 *
 * Every curve the paper plots comes from one measurement protocol:
 * prewarm the caches and predictor, discard a warm-up window, then
 * count a measured window under a cycle budget.  BatchedCore<Model>
 * implements it once for both batched models — the argument check,
 * trace reset, shared warm start (core::WarmStartCache) or a per-run
 * prewarm, idle-span skipping, the warm-up snapshot, the watchdog and
 * cancellation checks, tail cycles and miss deltas — and owns the state
 * they share: parameters, predictor, memory, cycle counter, tracer,
 * retire sink and the trace being replayed.
 *
 * A model supplies only its pipeline, as members the run loop calls
 * statically (CRTP), so the per-cycle calls inline as if written in
 * place:
 *
 *   void resetState();                      per-run pipeline reset
 *   std::int64_t skipIdleSpan(SimResult &, OccupancySample &,
 *                             std::uint64_t limit);
 *                                           bulk-charge an idle span;
 *                                           returns the cycles skipped
 *   void retireStage(SimResult &);          in-order issue, OoO commit
 *   StallCause stallCause() const;          why a cycle retired nothing
 *   void sampleOccupancy(OccupancySample &) const;
 *   void frontStages(SimResult &);          every stage behind retire
 *   std::int64_t tailCycles() const;        drain after the last retire
 *   void watchdogDump(util::DeadlockDump &) const;
 *   static constexpr const char *modelName; "in-order", "out-of-order"
 *
 * The reference InorderCore and OooCore keep their own loops on
 * purpose: they are the oracle this run loop is checked against
 * (tests/test_core_differential.cc, DESIGN.md §14).
 */

#ifndef FO4_CORE_BATCHED_CORE_HH
#define FO4_CORE_BATCHED_CORE_HH

#include <memory>
#include <string>

#include "bp/predictors.hh"
#include "core/core.hh"
#include "core/prewarm.hh"
#include "core/warm_start.hh"
#include "mem/hierarchy.hh"
#include "trace/decoded_trace.hh"
#include "util/logging.hh"
#include "util/status.hh"

namespace fo4::core
{

template <class Model>
class BatchedCore : public Core
{
  public:
    SimResult run(trace::TraceSource &trace, std::uint64_t instructions,
                  std::uint64_t warmup = 0, std::uint64_t prewarm = 0,
                  std::uint64_t cycleLimit = 0,
                  const util::CancelToken *cancel = nullptr) override;

    const CoreParams &params() const override { return prm; }

    void setTracer(util::TraceEventRing *ring) override { tracer = ring; }

    void setRetireSink(trace::RetireSink *sink) override { retireSink = sink; }

  protected:
    /** `predictor` is the predictor's factory name (bp::makePredictor);
     *  it also keys the shared warm-state cache. */
    BatchedCore(const CoreParams &params, const std::string &predictor)
        : prm(validated(params)), bpred(bp::makePredictor(predictor)),
          bpredKey(predictor),
          memory(params.dl1, params.l2, params.memLatencies,
                 params.memoryMode)
    {
    }

    /** The run's next op.  The decoded fast path skips the virtual
     *  TraceSource dispatch; both paths yield identical op streams. */
    isa::MicroOp nextOp()
    {
        if (view != nullptr)
            return trace::unpackTraceRecord(view->nextRecord());
        return source->next();
    }

    CoreParams prm;
    std::unique_ptr<bp::BranchPredictor> bpred;
    std::string bpredKey;
    mem::MemoryHierarchy memory;
    std::int64_t now = 0;
    util::TraceEventRing *tracer = nullptr;
    trace::RetireSink *retireSink = nullptr;

  private:
    /** Reject invalid parameters before any member is constructed. */
    static const CoreParams &validated(const CoreParams &params)
    {
        params.validateOrThrow();
        return params;
    }

    Model &model() { return static_cast<Model &>(*this); }

    trace::TraceSource *source = nullptr;
    trace::DecodedTraceView *view = nullptr;
};

template <class Model>
SimResult
BatchedCore<Model>::run(trace::TraceSource &trace,
                        std::uint64_t instructions, std::uint64_t warmup,
                        std::uint64_t prewarm, std::uint64_t cycleLimit,
                        const util::CancelToken *cancel)
{
    if (instructions == 0)
        throw util::ConfigError("nothing to simulate (instructions=0)");
    trace.reset();
    now = 0;
    model().resetState();

    // The run never outlives its trace: detach on every exit, returned
    // or thrown.
    struct Detach
    {
        BatchedCore &core;
        ~Detach()
        {
            core.source = nullptr;
            core.view = nullptr;
        }
    } detach{*this};

    view = dynamic_cast<trace::DecodedTraceView *>(&trace);
    if (prewarm > 0 && view != nullptr) {
        // One shared prewarm per sweep column instead of one per cell.
        const auto warm = WarmStartCache::global().acquire(
            view->trace(), prewarm, prm, *bpred, bpredKey);
        memory.adoptWarmState(warm->memory);
        bpred = warm->bpred->clone();
    } else {
        memory.reset();
        bpred->reset();
        if (prewarm > 0)
            prewarmState(trace, prewarm, memory, *bpred);
    }
    source = &trace;

    const std::uint64_t total = warmup + instructions;
    const std::uint64_t limit =
        cycleLimit ? cycleLimit : total * 1000 + 100000;
    const std::uint64_t dl1Miss0 = memory.dl1().misses();
    const std::uint64_t l2Miss0 = memory.l2().misses();
    SimResult result;
    SimResult atWarmup;
    bool warmupDone = warmup == 0;
    OccupancySample occ;

    // Polled after every advance of `now`, walked or skipped: the
    // watchdog first, then cancellation, as the reference cores do.
    const auto checkBudget = [&] {
        if (static_cast<std::uint64_t>(now) >= limit) {
            util::DeadlockDump dump;
            dump.model = Model::modelName;
            dump.cycle = now;
            dump.cycleLimit = limit;
            dump.committed = result.instructions;
            dump.target = total;
            model().watchdogDump(dump);
            throw util::DeadlockError(std::move(dump));
        }
        if (cancel && cancel->cancelled()) {
            throw util::CancelledError(util::strprintf(
                "%s simulation cancelled at cycle %lld after %llu of %llu "
                "instructions",
                Model::modelName, static_cast<long long>(now),
                static_cast<unsigned long long>(result.instructions),
                static_cast<unsigned long long>(total)));
        }
    };

    while (result.instructions < total) {
        // The warmup snapshot can never land inside a skipped span: the
        // retired count is constant there and the snapshot condition
        // was already false when the preceding cycle checked it.
        if (model().skipIdleSpan(result, occ, limit) > 0) {
            checkBudget();
            continue;
        }
        const std::uint64_t retiredBefore = result.instructions;
        model().retireStage(result);
        if (result.instructions == retiredBefore) {
            ++result.stallCycles;
            ++result.stalls[model().stallCause()];
        }
        model().sampleOccupancy(occ);
        ++occ.cycles;
        if (!warmupDone && result.instructions >= warmup) {
            result.occupancy = occ;
            atWarmup = result;
            atWarmup.cycles = static_cast<std::uint64_t>(now);
            atWarmup.dl1Misses = memory.dl1().misses() - dl1Miss0;
            atWarmup.l2Misses = memory.l2().misses() - l2Miss0;
            warmupDone = true;
        }
        if (result.instructions >= total)
            break;
        model().frontStages(result);
        ++now;
        checkBudget();
    }

    result.occupancy = occ;
    result.cycles = static_cast<std::uint64_t>(now + model().tailCycles());
    result.dl1Misses = memory.dl1().misses() - dl1Miss0;
    result.l2Misses = memory.l2().misses() - l2Miss0;
    return result - atWarmup;
}

} // namespace fo4::core

#endif // FO4_CORE_BATCHED_CORE_HH
