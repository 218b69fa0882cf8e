/**
 * @file
 * Functional cache/predictor prewarming shared by the pipeline models:
 * streams a prefix of the trace through the memory hierarchy and branch
 * predictor with no timing, standing in for the instructions the paper
 * executes before its measurement window.
 */

#ifndef FO4_CORE_PREWARM_HH
#define FO4_CORE_PREWARM_HH

#include "bp/predictor.hh"
#include "mem/hierarchy.hh"
#include "trace/trace.hh"

namespace fo4::core
{

/**
 * Stream `count` instructions through caches and predictor, then rewind
 * the trace.  The one prewarm procedure of both engines: the reference
 * cores, a batched core without a shared warm state and WarmStartCache
 * (over a decoded trace's fresh source) all call it.
 */
inline void
prewarmState(trace::TraceSource &trace, std::uint64_t count,
             mem::MemoryHierarchy &memory, bp::BranchPredictor &bpred)
{
    for (std::uint64_t i = 0; i < count; ++i) {
        const isa::MicroOp op = trace.next();
        if (op.isLoad()) {
            memory.loadLatency(op.addr, static_cast<std::int64_t>(i));
        } else if (op.isStore()) {
            memory.storeLatency(op.addr, static_cast<std::int64_t>(i));
        } else if (op.isBranch()) {
            bpred.predict(op);
            bpred.update(op, op.taken);
        }
    }
    memory.resetContention();
    trace.reset();
}

} // namespace fo4::core

#endif // FO4_CORE_PREWARM_HH
