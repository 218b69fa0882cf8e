/**
 * @file
 * Throughput-optimized in-order core (`sim_impl=batched`): the same
 * cycle-level model as InorderCore — byte-identical results, pinned by
 * tests/test_core_differential.cc — restructured for raw speed:
 *
 *  - struct-of-arrays issue queue (the hot per-cycle scalars live in
 *    dense arrays, not an array of structs);
 *  - idle-span skipping: stall spans whose per-cycle accounting is
 *    provably constant (empty-queue refill shadows, scoreboard stalls
 *    under a full queue) are charged in bulk instead of walked.
 *
 * The run itself — decoded-trace replay, shared prewarm state, the
 * warm-up window, watchdog and cancellation — is the batched engine's
 * one run loop, core/batched_core.hh.  DESIGN.md §14 is the contract:
 * none of this may change bytes.
 */

#ifndef FO4_CORE_BATCHED_INORDER_CORE_HH
#define FO4_CORE_BATCHED_INORDER_CORE_HH

#include <array>
#include <memory>
#include <vector>

#include "core/batched_core.hh"

namespace fo4::core
{

/** The batched in-order pipeline model; BatchedCore runs it. */
class BatchedInorderCore : public BatchedCore<BatchedInorderCore>
{
  public:
    BatchedInorderCore(const CoreParams &params, const std::string &predictor);

  private:
    friend class BatchedCore<BatchedInorderCore>;
    static constexpr const char *modelName = "in-order";

    // The run loop's hooks (core/batched_core.hh).
    void resetState();
    std::int64_t skipIdleSpan(SimResult &result, OccupancySample &occ,
                              std::uint64_t limit);
    void retireStage(SimResult &result) { doIssue(result); }
    StallCause stallCause() const { return stallReason; }
    void sampleOccupancy(OccupancySample &occ) const
    {
        occ.frontSum += qSize;
    }
    void frontStages(SimResult &result) { doFetch(result); }
    /** The final instruction still traverses register read, execute,
     *  write back and commit. */
    std::int64_t tailCycles() const
    {
        return prm.regReadStages + 1 + prm.commitStages;
    }
    void watchdogDump(util::DeadlockDump &dump) const;

    void doIssue(SimResult &result);
    void doFetch(SimResult &result);

    // Issue queue, struct-of-arrays over a fixed ring.
    std::vector<isa::MicroOp> qOp;
    std::vector<std::int64_t> qIssueReady;
    std::vector<std::uint8_t> qMispredicted;
    std::size_t qHead = 0;
    std::size_t qSize = 0;
    std::size_t qCap = 0;

    std::size_t qAt(std::size_t i) const
    {
        const std::size_t p = qHead + i;
        return p >= qCap ? p - qCap : p;
    }

    std::array<std::int64_t, isa::numArchRegs> regEarliestUse{};
    std::array<StallCause, isa::numArchRegs> regPendingKind{};

    std::int64_t fetchResumeCycle = 0;
    bool fetchHalted = false;
    int frontDepth = 2;
    std::int64_t mispredictShadowEnd = 0;
    StallCause stallReason = StallCause::FrontEnd;
};

extern template class BatchedCore<BatchedInorderCore>;

} // namespace fo4::core

#endif // FO4_CORE_BATCHED_INORDER_CORE_HH
