/**
 * @file
 * Throughput-optimized out-of-order core (`sim_impl=batched`): the same
 * cycle-level model as OooCore — byte-identical results, pinned by
 * tests/test_core_differential.cc — restructured for raw speed:
 *
 *  - struct-of-arrays in-flight arena (the per-cycle hot scalars live in
 *    dense typed arrays indexed by sequence slot, not an array of
 *    DynInst structs);
 *  - an event-driven issue window: each entry carries one wake cycle,
 *    fixed once, so an entry is awake exactly when `wakeAt <= now` and
 *    no pass re-derives readiness.  A source freezes at dispatch if its
 *    producer has issued, otherwise at the end of the cycle the producer
 *    issues, at the segment stage of the entry's post-compaction
 *    position: the cycle and stage at which the reference window's next
 *    wakeup pass first sees the broadcast.  A per-slot flag limits the
 *    post-issue freeze walk to cycles in which an issued op has a
 *    waiting consumer;
 *  - idle-span skipping: spans where commit, issue, dispatch and fetch
 *    are all provably inert (no window entry's wake cycle reached, every
 *    stage blocked on a known future event) are charged in bulk instead
 *    of walked.
 *
 * The run itself — decoded-trace replay, shared prewarm state, the
 * warm-up window, watchdog and cancellation — is the batched engine's
 * one run loop, core/batched_core.hh.  DESIGN.md §14 is the contract:
 * none of this may change bytes.
 */

#ifndef FO4_CORE_BATCHED_OOO_CORE_HH
#define FO4_CORE_BATCHED_OOO_CORE_HH

#include <array>
#include <memory>
#include <vector>

#include "core/batched_core.hh"
#include "core/window.hh"
#include "isa/microop.hh"

namespace fo4::core
{

/** The batched out-of-order pipeline model; BatchedCore runs it. */
class BatchedOooCore : public BatchedCore<BatchedOooCore>
{
  public:
    BatchedOooCore(const CoreParams &params, const std::string &predictor);

    void setRetireSink(trace::RetireSink *sink) override
    {
        BatchedCore::setRetireSink(sink);
        // The side array of full ops exists only while observed, so the
        // no-sink hot path stays untouched (DESIGN.md §14).
        if (sink != nullptr && aOp.size() != aCls.size())
            aOp.resize(aCls.size());
    }

  private:
    /** One issue-window entry: the window.cc state, with each source's
     *  wakeup cycle frozen into `readyAt` once its producer issues. */
    struct WinEntry
    {
        InflightRef ref;
        bool fp;
        bool mem;
        bool preselected;
        /** Producers not yet issued; invalidRef once frozen. */
        std::array<InflightRef, 2> producers;
        std::int64_t readyAt; ///< latest frozen source wakeup cycle
        std::int64_t wakeAt;  ///< readyAt once no producer is pending
    };

    friend class BatchedCore<BatchedOooCore>;
    static constexpr const char *modelName = "out-of-order";

    // The run loop's hooks (core/batched_core.hh).
    void resetState();
    std::int64_t skipIdleSpan(SimResult &result, OccupancySample &occ,
                              std::uint64_t limit);
    void retireStage(SimResult &result) { doCommit(result); }
    StallCause stallCause() const;
    void sampleOccupancy(OccupancySample &occ) const
    {
        occ.robSum += dispatchSeq - commitSeq;
        occ.windowSum += win.size();
        occ.frontSum += fetchSeq - dispatchSeq;
        occ.lsqSum += static_cast<std::uint64_t>(lsqOccupancy);
    }
    void frontStages(SimResult &result)
    {
        doIssue();
        doDispatch(result);
        doFetch(result);
    }
    std::int64_t tailCycles() const { return 0; }
    void watchdogDump(util::DeadlockDump &dump) const;

    void doCommit(SimResult &result);
    void doIssue();
    void doDispatch(SimResult &result);
    void doFetch(SimResult &result);

    // Inlined issue-window algorithm (window.cc semantics, devirtualized
    // wakeup, stats omitted — they are not part of SimResult).
    void freezeIssued(WinEntry &entry, std::size_t position) const;
    void selectAndRemove();

    std::size_t slotIx(std::uint64_t seq) const { return seq & slotMask; }

    // In-flight arena, struct-of-arrays over sequence slots.
    std::vector<std::int64_t> aDispatchReady;
    std::vector<std::int64_t> aIssueCycle;
    std::vector<std::int64_t> aDoneCycle;
    std::vector<int> aExecLat;
    std::vector<int> aDepLat;
    std::vector<std::uint64_t> aAddr;
    std::vector<isa::OpClass> aCls;
    std::vector<std::int16_t> aSrc1;
    std::vector<std::int16_t> aSrc2;
    std::vector<std::int16_t> aDst;
    std::vector<std::uint8_t> aMispredicted;
    std::vector<std::uint8_t> aLoadMiss;
    /** Set when a window entry waits on this unissued producer. */
    std::vector<std::uint8_t> aWaited;
    /** Full fetched ops by slot; filled only while a retire sink is
     *  attached, so the hot no-sink path never touches it. */
    std::vector<isa::MicroOp> aOp;
    std::uint64_t slotMask = 0;

    // Issue window (age order, oldest first).
    std::vector<WinEntry> win;
    std::size_t perStage = 1; ///< window entries per wakeup stage
    std::vector<InflightRef> issuedScratch;

    std::uint64_t fetchSeq = 0;
    std::uint64_t dispatchSeq = 0;
    std::uint64_t commitSeq = 0;

    std::int64_t fetchResumeCycle = 0;
    std::uint64_t haltingBranch = ~0ull;
    /** Fetched-but-undispatched ops the front end can hold. */
    std::uint64_t frontCap = 0;
    int frontDepth = 3;
    int lsqOccupancy = 0;
    std::int64_t mispredictShadowEnd = 0;

    std::array<std::uint64_t, isa::numArchRegs> renameMap{};
};

extern template class BatchedCore<BatchedOooCore>;

} // namespace fo4::core

#endif // FO4_CORE_BATCHED_OOO_CORE_HH
