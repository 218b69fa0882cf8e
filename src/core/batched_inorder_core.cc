#include "core/batched_inorder_core.hh"

#include <algorithm>

#include "isa/opclass.hh"

namespace fo4::core
{

BatchedInorderCore::BatchedInorderCore(const CoreParams &params,
                                       const std::string &predictor)
    : BatchedCore(params, predictor),
      // Same queue sizing as the reference InorderCore: the classic
      // pipeline holds fetch/decode contents plus one issue buffer.
      qCap(static_cast<std::size_t>(params.fetchStages +
                                    params.decodeStages + 2) *
           params.fetchWidth)
{
    frontDepth = prm.fetchStages + prm.decodeStages;
    qOp.resize(qCap);
    qIssueReady.resize(qCap);
    qMispredicted.resize(qCap);
}

void
BatchedInorderCore::resetState()
{
    fetchResumeCycle = 0;
    fetchHalted = false;
    mispredictShadowEnd = 0;
    stallReason = StallCause::FrontEnd;
    regEarliestUse.fill(0);
    regPendingKind.fill(StallCause::Other);
    qHead = 0;
    qSize = 0;
}

void
BatchedInorderCore::doIssue(SimResult &result)
{
    int intLeft = prm.intIssueWidth;
    int fpLeft = prm.fpIssueWidth;
    int memLeft = prm.memIssueWidth;

    for (int i = 0; i < prm.renameWidth; ++i) {
        // Stall attribution covers only the *first* slot each cycle, as
        // in the reference model.
        if (qSize == 0) {
            if (i == 0)
                stallReason = (fetchHalted || now < mispredictShadowEnd)
                                  ? StallCause::BranchMispredict
                                  : StallCause::FrontEnd;
            return;
        }
        const std::size_t f = qAt(0);
        const isa::MicroOp &op = qOp[f];
        if (qIssueReady[f] > now) {
            if (i == 0)
                stallReason = now < mispredictShadowEnd
                                  ? StallCause::BranchMispredict
                                  : StallCause::FrontEnd;
            return;
        }

        // Scoreboard: sources bypassable, destination free (WAW).
        for (const std::int16_t src : {op.src1, op.src2}) {
            if (src != isa::noReg && regEarliestUse[src] > now) {
                if (i == 0)
                    stallReason = regPendingKind[src];
                return;
            }
        }
        if (op.dst != isa::noReg && regEarliestUse[op.dst] > now) {
            if (i == 0)
                stallReason = StallCause::Other;
            return;
        }

        // Structural: one functional-unit slot per cycle per op.
        const bool fp = isa::isFloat(op.cls);
        const bool memOp = isa::isMemory(op.cls);
        if (i == 0)
            stallReason = StallCause::WindowFull;
        if (fp) {
            if (fpLeft <= 0)
                return;
            --fpLeft;
        } else if (memOp) {
            if (memLeft <= 0 || intLeft <= 0)
                return;
            --memLeft;
            --intLeft;
        } else {
            if (intLeft <= 0)
                return;
            --intLeft;
        }

        // Issue.
        int depLat = prm.execLatency(op.cls);
        bool dl1Missed = false;
        if (op.isLoad()) {
            const std::uint64_t missesBefore = memory.dl1().misses();
            depLat = memory.loadLatency(op.addr, now) + prm.extraLoadUse;
            dl1Missed = memory.dl1().misses() != missesBefore;
        } else if (op.isStore()) {
            memory.storeLatency(op.addr, now);
        }

        if (op.dst != isa::noReg) {
            regEarliestUse[op.dst] = now + depLat;
            regPendingKind[op.dst] =
                op.isLoad() ? (dl1Missed ? StallCause::DcacheMiss
                                         : StallCause::RawLoadUse)
                            : StallCause::Other;
        }

        if (op.isBranch() && qMispredicted[f]) {
            const std::int64_t resolve =
                now + prm.regReadStages + prm.execLatency(op.cls) +
                prm.extraMispredictPenalty;
            fetchResumeCycle = resolve + 1;
            fetchHalted = false;
            mispredictShadowEnd = fetchResumeCycle + frontDepth;
        }

        if (tracer != nullptr && tracer->wants(now)) {
            const char *name = isa::opClassName(op.cls);
            tracer->emit({name, "pipeline", 0, qIssueReady[f] - frontDepth,
                          frontDepth, op.seq});
            if (now > qIssueReady[f])
                tracer->emit({name, "pipeline", 1, qIssueReady[f],
                              now - qIssueReady[f], op.seq});
            tracer->emit({name, "pipeline", 2, now, depLat, op.seq});
        }

        if (retireSink != nullptr)
            retireSink->onRetire(qOp[f]);

        qHead = qHead + 1 == qCap ? 0 : qHead + 1;
        --qSize;
        ++result.instructions;
    }
}

void
BatchedInorderCore::doFetch(SimResult &result)
{
    if (fetchHalted || now < fetchResumeCycle)
        return;

    for (int i = 0; i < prm.fetchWidth; ++i) {
        if (qSize == qCap)
            return;
        const isa::MicroOp op = nextOp();

        const std::size_t b = qAt(qSize);
        qOp[b] = op;
        qIssueReady[b] = now + frontDepth;
        qMispredicted[b] = 0;

        if (op.isBranch()) {
            ++result.branches;
            const bool predicted = bpred->predict(op);
            bpred->update(op, op.taken);
            if (predicted != op.taken) {
                ++result.mispredicts;
                qMispredicted[b] = 1;
                ++qSize;
                fetchHalted = true;
                return;
            }
            ++qSize;
            if (op.taken) {
                // Redirect bubble on correctly predicted taken branches.
                fetchResumeCycle = now + 2;
                return;
            }
            continue;
        }

        if (op.isLoad())
            ++result.loads;
        else if (op.isStore())
            ++result.stores;
        ++qSize;
    }
}

std::int64_t
BatchedInorderCore::skipIdleSpan(SimResult &result, OccupancySample &occ,
                                 std::uint64_t limit)
{
    // A span may be skipped only when every stage is provably inert for
    // every cycle of the span; the bulk accounting below then charges
    // exactly what the reference per-cycle walk would have.  The span
    // ends at `event`, charged to one `cause` or, for a shadow split,
    // to mispredict-shadow cycles first and front-end cycles after.
    std::int64_t event = -1;
    StallCause cause = StallCause::Other;
    bool shadowSplit = false;

    if (qSize == 0 && now < fetchResumeCycle) {
        // Case A: empty queue, fetch redirected — nothing moves until
        // the fetch resumes.  Attribution matches the reference
        // empty-queue rule.  (An empty queue implies !fetchHalted: the
        // halting branch sits in the queue until it issues, which is
        // what clears the halt.)
        event = fetchResumeCycle;
        shadowSplit = true;
    } else if (qSize == qCap) {
        // Case B: full queue (fetch is a no-op regardless of its
        // redirect state) with a blocked head.  The head's first
        // failing check — the one the reference charges — is constant
        // up to the blocking event's cycle, so the walk resumes exactly
        // at the event.
        const std::size_t f = qAt(0);
        const isa::MicroOp &op = qOp[f];
        if (qIssueReady[f] > now) {
            event = qIssueReady[f];
            shadowSplit = true;
        } else {
            for (const std::int16_t src : {op.src1, op.src2}) {
                if (src != isa::noReg && regEarliestUse[src] > now) {
                    event = regEarliestUse[src];
                    cause = regPendingKind[src];
                    break;
                }
            }
            if (event < 0 && op.dst != isa::noReg &&
                regEarliestUse[op.dst] > now) {
                event = regEarliestUse[op.dst];
                cause = StallCause::Other;
            }
            if (event < 0 && isa::isFloat(op.cls) && prm.fpIssueWidth <= 0) {
                // No FP slot will ever open: the reference spins on a
                // structural stall until the watchdog fires.
                event = static_cast<std::int64_t>(limit);
                cause = StallCause::WindowFull;
            }
        }
    }
    if (event < 0)
        return 0; // the head can issue (or fetch can run) this cycle

    const std::int64_t end =
        std::min<std::int64_t>(event, static_cast<std::int64_t>(limit));
    const std::int64_t n = end - now;
    if (n <= 0)
        return 0;
    if (shadowSplit) {
        const std::int64_t shadow =
            std::clamp<std::int64_t>(mispredictShadowEnd - now, 0, n);
        result.stalls[StallCause::BranchMispredict] +=
            static_cast<std::uint64_t>(shadow);
        result.stalls[StallCause::FrontEnd] +=
            static_cast<std::uint64_t>(n - shadow);
    } else {
        result.stalls[cause] += static_cast<std::uint64_t>(n);
    }
    result.stallCycles += static_cast<std::uint64_t>(n);
    occ.frontSum += static_cast<std::uint64_t>(n) * qSize;
    occ.cycles += static_cast<std::uint64_t>(n);
    now = end;
    return n;
}

void
BatchedInorderCore::watchdogDump(util::DeadlockDump &dump) const
{
    dump.queueOccupancy = qSize;
    if (qSize != 0) {
        const std::size_t f = qAt(0);
        dump.oldestStalled = util::strprintf(
            "%s issueReady=%lld%s (fetch %s, resumes cycle %lld)",
            isa::opClassName(qOp[f].cls),
            static_cast<long long>(qIssueReady[f]),
            qMispredicted[f] ? " [mispredicted]" : "",
            fetchHalted ? "halted" : "running",
            static_cast<long long>(fetchResumeCycle));
    }
}

template class BatchedCore<BatchedInorderCore>;

std::unique_ptr<Core>
makeBatchedInorderCore(const CoreParams &params,
                       const std::string &predictor)
{
    return std::make_unique<BatchedInorderCore>(params, predictor);
}

} // namespace fo4::core
