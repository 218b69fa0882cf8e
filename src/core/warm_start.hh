/**
 * @file
 * Shared prewarm state for one-pass batched sweeps.  Every clock-period
 * cell of a sweep column prewarms the same caches and predictor with
 * the same instruction prefix: cache contents depend only on geometry
 * and the access order (never on latencies, which the prewarm streams
 * without timing), and predictor training depends only on the branch
 * stream.  This cache computes that state once per (trace, prewarm,
 * geometry, predictor) key and hands each cell a copy, replacing an
 * O(prewarm) replay per cell with an O(cache size) copy.
 *
 * The prefix streams from a fresh source of the trace
 * (DecodedTrace::freshSource), not from its decoded records, so the
 * decoded trace keeps only what the timed runs replay and a long
 * prewarm costs no memory.
 *
 * The states live in a util::OnceMap: each key's state is computed
 * exactly once, cells wanting it meanwhile wait for that one
 * computation, and one that throws caches nothing.
 *
 * Byte-identity: the donor state is produced by exactly the reference
 * prewarm procedure (core/prewarm.hh) from a cold hierarchy and a
 * reset predictor, so an adopting core starts from bit-identical state
 * — including hit/miss counters, which the cores subtract as deltas.
 */

#ifndef FO4_CORE_WARM_START_HH
#define FO4_CORE_WARM_START_HH

#include <memory>
#include <string>

#include "bp/predictor.hh"
#include "core/params.hh"
#include "mem/hierarchy.hh"
#include "trace/decoded_trace.hh"
#include "util/once_map.hh"

namespace fo4::core
{

/** Prewarmed machine state shared (read-only) by the cells of a sweep
 *  column. */
struct WarmState
{
    mem::MemoryHierarchy memory;
    std::unique_ptr<bp::BranchPredictor> bpred;
};

/** Process-wide cache of prewarmed states, served as shared
 *  references. */
class WarmStartCache
{
  public:
    static WarmStartCache &global();

    /**
     * The warm state after streaming `prewarm` records of a fresh
     * source of `trace` through a cold hierarchy with `params`' cache
     * geometry and a reset clone of `prototype`.  `predictorKey` names
     * the prototype's configuration (factory name); states are shared
     * only between cores whose predictors are interchangeable under
     * that key.
     */
    std::shared_ptr<const WarmState>
    acquire(trace::DecodedTrace &trace, std::uint64_t prewarm,
            const CoreParams &params, const bp::BranchPredictor &prototype,
            const std::string &predictorKey);

    void clear();

  private:
    util::OnceMap<std::string, std::shared_ptr<const WarmState>> states;
};

} // namespace fo4::core

#endif // FO4_CORE_WARM_START_HH
