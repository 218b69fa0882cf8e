#include "core/batched_ooo_core.hh"

#include <algorithm>
#include <limits>

#include "isa/opclass.hh"

namespace fo4::core
{

namespace
{

constexpr std::uint64_t noProducer = ~0ull;

/** Wake cycle of an entry still waiting on an unissued producer. */
constexpr std::int64_t kNever = std::numeric_limits<std::int64_t>::max();

std::uint64_t
nextPowerOfTwo(std::uint64_t v)
{
    std::uint64_t p = 1;
    while (p < v)
        p <<= 1;
    return p;
}

} // namespace

BatchedOooCore::BatchedOooCore(const CoreParams &params,
                               const std::string &predictor)
    : BatchedCore(params, predictor)
{
    frontDepth = prm.fetchStages + prm.decodeStages + prm.renameStages;
    frontCap = prm.fetchQueueSize +
               static_cast<std::uint64_t>(frontDepth) * prm.fetchWidth;

    // Same arena sizing as the reference OooCore: slots must outlive
    // every consumer that can still query a producer.
    const std::uint64_t needed =
        prm.robSize + prm.fetchQueueSize +
        static_cast<std::uint64_t>(frontDepth + 4) * prm.fetchWidth + 64;
    const std::uint64_t size =
        std::max<std::uint64_t>(4096, nextPowerOfTwo(needed * 2));
    aDispatchReady.resize(size);
    aIssueCycle.resize(size);
    aDoneCycle.resize(size);
    aExecLat.resize(size);
    aDepLat.resize(size);
    aAddr.resize(size);
    aCls.resize(size);
    aSrc1.resize(size);
    aSrc2.resize(size);
    aDst.resize(size);
    aMispredicted.resize(size);
    aLoadMiss.resize(size);
    aWaited.resize(size);
    slotMask = size - 1;

    win.reserve(prm.window.capacity);
    perStage = static_cast<std::size_t>(prm.window.entriesPerStage());
    issuedScratch.reserve(16);
}

void
BatchedOooCore::freezeIssued(WinEntry &entry, std::size_t position) const
{
    // The reference WakeupOracle::dependentReadyCycle, devirtualized, at
    // the stage of the position where the reference window's wakeup pass
    // first sees the producer's broadcast.  A position is always below
    // the capacity, so its stage never passes the last one.
    for (InflightRef &producer : entry.producers) {
        if (producer == invalidRef || aIssueCycle[producer] < 0)
            continue;
        const int stage = static_cast<int>(position / perStage);
        const int wakeup = prm.issueLatency + prm.extraWakeup + stage;
        const int spacing =
            aDepLat[producer] > wakeup ? aDepLat[producer] : wakeup;
        entry.readyAt =
            std::max(entry.readyAt, aIssueCycle[producer] + spacing);
        producer = invalidRef;
    }
    if (entry.producers[0] == invalidRef && entry.producers[1] == invalidRef)
        entry.wakeAt = entry.readyAt;
}

void
BatchedOooCore::selectAndRemove()
{
    const bool partitioned =
        prm.window.select == SelectModel::Partitioned;
    int intLeft = prm.intIssueWidth;
    int fpLeft = prm.fpIssueWidth;
    int memLeft = prm.memIssueWidth;
    issuedScratch.clear();
    std::size_t out = 0;
    for (std::size_t i = 0; i < win.size(); ++i) {
        const WinEntry &e = win[i];
        bool take = e.wakeAt <= now &&
                    (!partitioned || i < perStage || e.preselected);
        if (take) {
            if (e.fp) {
                take = fpLeft > 0;
                fpLeft -= take;
            } else if (e.mem) {
                take = memLeft > 0 && intLeft > 0;
                memLeft -= take;
                intLeft -= take;
            } else {
                take = intLeft > 0;
                intLeft -= take;
            }
        }
        if (take) {
            issuedScratch.push_back(e.ref);
        } else {
            win[out++] = e;
        }
    }
    win.resize(out);

    // Preselect for next cycle at the compacted positions, one stage
    // at a time.  First-stage entries stay there, and select sees them
    // all without a latch.
    if (partitioned) {
        std::size_t capIdx = 0;
        for (std::size_t begin = perStage; begin < win.size();
             begin += perStage, ++capIdx) {
            int capLeft = capIdx < prm.window.preselectCap.size()
                              ? prm.window.preselectCap[capIdx]
                              : 0;
            const std::size_t end = std::min(begin + perStage, win.size());
            for (std::size_t i = begin; i < end; ++i) {
                WinEntry &e = win[i];
                e.preselected = capLeft > 0 && e.wakeAt <= now;
                capLeft -= e.preselected;
            }
        }
    }
}

void
BatchedOooCore::resetState()
{
    fetchSeq = 0;
    dispatchSeq = 0;
    commitSeq = 0;
    fetchResumeCycle = 0;
    haltingBranch = ~0ull;
    lsqOccupancy = 0;
    mispredictShadowEnd = 0;
    renameMap.fill(noProducer);
    win.clear();
}

void
BatchedOooCore::doCommit(SimResult &result)
{
    for (int i = 0; i < prm.commitWidth; ++i) {
        if (commitSeq == dispatchSeq)
            return;
        const std::size_t h = slotIx(commitSeq);
        if (aIssueCycle[h] < 0 ||
            aDoneCycle[h] + (prm.commitStages - 1) > now) {
            return;
        }
        if (isa::isMemory(aCls[h]))
            --lsqOccupancy;
        if (tracer != nullptr && tracer->wants(now)) {
            const char *name = isa::opClassName(aCls[h]);
            const std::uint64_t seq = commitSeq;
            tracer->emit({name, "pipeline", 0,
                          aDispatchReady[h] - frontDepth, frontDepth, seq});
            if (aIssueCycle[h] > aDispatchReady[h])
                tracer->emit({name, "pipeline", 1, aDispatchReady[h],
                              aIssueCycle[h] - aDispatchReady[h], seq});
            tracer->emit({name, "pipeline", 2, aIssueCycle[h],
                          aDoneCycle[h] - aIssueCycle[h], seq});
            tracer->emit({name, "pipeline", 3, now, 1, seq});
        }
        if (retireSink != nullptr)
            retireSink->onRetire(aOp[h]);
        ++result.instructions;
        ++commitSeq;
    }
}

void
BatchedOooCore::doIssue()
{
    selectAndRemove();
    bool broadcast = false;
    for (const InflightRef ref : issuedScratch) {
        broadcast |= aWaited[ref] != 0;
        aIssueCycle[ref] = now;
        aDoneCycle[ref] = now + prm.regReadStages + aExecLat[ref];
        if (aMispredicted[ref] &&
            (haltingBranch & slotMask) == ref && haltingBranch != ~0ull) {
            fetchResumeCycle =
                aDoneCycle[ref] + prm.extraMispredictPenalty + 1;
            haltingBranch = ~0ull;
            mispredictShadowEnd = fetchResumeCycle + frontDepth;
        }
    }
    // Consumers of this cycle's issues freeze at their post-compaction
    // positions, which they keep until the next cycle's select.
    if (broadcast) {
        for (std::size_t i = 0; i < win.size(); ++i) {
            if (win[i].wakeAt == kNever)
                freezeIssued(win[i], i);
        }
    }
}

void
BatchedOooCore::doDispatch(SimResult &result)
{
    for (int i = 0; i < prm.renameWidth; ++i) {
        if (dispatchSeq == fetchSeq)
            return;
        const std::size_t h = slotIx(dispatchSeq);
        if (aDispatchReady[h] > now)
            return;
        if (win.size() >= static_cast<std::size_t>(prm.window.capacity)) {
            if (i == 0)
                ++result.dispatchWindowFull;
            return;
        }
        if (dispatchSeq - commitSeq >=
            static_cast<std::uint64_t>(prm.robSize)) {
            if (i == 0)
                ++result.dispatchRobFull;
            return;
        }
        const bool memOp = isa::isMemory(aCls[h]);
        if (memOp && lsqOccupancy >= prm.lsqSize) {
            if (i == 0)
                ++result.dispatchLsqFull;
            return;
        }

        WinEntry e;
        e.ref = static_cast<InflightRef>(dispatchSeq & slotMask);
        e.fp = isa::isFloat(aCls[h]);
        e.mem = memOp;
        e.preselected = false;
        e.producers = {invalidRef, invalidRef};
        e.readyAt = 0;
        e.wakeAt = kNever;
        int nsrc = 0;
        for (const std::int16_t src : {aSrc1[h], aSrc2[h]}) {
            if (src == isa::noReg)
                continue;
            const std::uint64_t pseq = renameMap[src];
            if (pseq != noProducer && pseq >= commitSeq) {
                const auto producer =
                    static_cast<InflightRef>(pseq & slotMask);
                e.producers[nsrc++] = producer;
                if (aIssueCycle[producer] < 0)
                    aWaited[producer] = 1;
            }
        }
        // Sources whose producers already issued freeze at the position
        // the entry takes, which it keeps until the next cycle's select.
        freezeIssued(e, win.size());

        aExecLat[h] = prm.execLatency(aCls[h]);
        aDepLat[h] = aExecLat[h];
        if (aCls[h] == isa::OpClass::Load) {
            const std::uint64_t missesBefore = memory.dl1().misses();
            aDepLat[h] =
                memory.loadLatency(aAddr[h], now) + prm.extraLoadUse;
            aExecLat[h] = aDepLat[h];
            aLoadMiss[h] = memory.dl1().misses() != missesBefore;
        } else if (aCls[h] == isa::OpClass::Store) {
            memory.storeLatency(aAddr[h], now);
        }

        if (aDst[h] != isa::noReg)
            renameMap[aDst[h]] = dispatchSeq;
        if (memOp)
            ++lsqOccupancy;

        win.push_back(e);
        ++dispatchSeq;
    }
}

void
BatchedOooCore::doFetch(SimResult &result)
{
    if (now < fetchResumeCycle || haltingBranch != ~0ull)
        return;

    for (int i = 0; i < prm.fetchWidth; ++i) {
        if (fetchSeq - dispatchSeq >= frontCap)
            return;
        const isa::MicroOp op = nextOp();

        const std::size_t h = slotIx(fetchSeq);
        if (retireSink != nullptr)
            aOp[h] = op;
        aDispatchReady[h] = now + frontDepth;
        aIssueCycle[h] = -1;
        aDoneCycle[h] = -1;
        aExecLat[h] = 1;
        aDepLat[h] = 1;
        aAddr[h] = op.addr;
        aCls[h] = op.cls;
        aSrc1[h] = op.src1;
        aSrc2[h] = op.src2;
        aDst[h] = op.dst;
        aMispredicted[h] = 0;
        aLoadMiss[h] = 0;
        aWaited[h] = 0;
        const std::uint64_t seq = fetchSeq;
        ++fetchSeq;

        if (op.isBranch()) {
            ++result.branches;
            const bool predicted = bpred->predict(op);
            bpred->update(op, op.taken);
            if (predicted != op.taken) {
                ++result.mispredicts;
                aMispredicted[h] = 1;
                haltingBranch = seq;
                return; // fetch halts until the branch resolves
            }
            if (op.taken) {
                // Redirect bubble on correctly predicted taken branches.
                fetchResumeCycle = now + 2;
                return;
            }
        } else if (op.isLoad()) {
            ++result.loads;
        } else if (op.isStore()) {
            ++result.stores;
        }
    }
}

StallCause
BatchedOooCore::stallCause() const
{
    if (commitSeq == dispatchSeq) {
        return (haltingBranch != ~0ull || now < mispredictShadowEnd)
                   ? StallCause::BranchMispredict
                   : StallCause::FrontEnd;
    }
    const std::size_t h = slotIx(commitSeq);
    if (aIssueCycle[h] >= 0) {
        if (aCls[h] == isa::OpClass::Load)
            return aLoadMiss[h] ? StallCause::DcacheMiss
                                : StallCause::RawLoadUse;
        return StallCause::Execute;
    }
    return StallCause::WindowFull;
}

std::int64_t
BatchedOooCore::skipIdleSpan(SimResult &result, OccupancySample &occ,
                             std::uint64_t limit)
{
    // A span may be skipped only when commit, issue, dispatch and fetch
    // are all provably inert for every cycle of the span.  Each stage
    // either proves it cannot act before a known event cycle (which
    // bounds the span) or forces a normal per-cycle walk.
    std::int64_t event = std::numeric_limits<std::int64_t>::max();

    // Commit: the head either retires this cycle (bail) or pins the
    // span's stall cause and, if issued, bounds the span at the cycle
    // its commit-stage traversal completes.
    const bool robEmpty = commitSeq == dispatchSeq;
    if (!robEmpty) {
        const std::size_t h = slotIx(commitSeq);
        if (aIssueCycle[h] >= 0) {
            const std::int64_t commitAt =
                aDoneCycle[h] + (prm.commitStages - 1);
            if (commitAt <= now)
                return 0;
            event = std::min(event, commitAt);
        }
        // An unissued head wakes no earlier than the window's first
        // wake event, folded in below.
    }

    // Issue: an awake entry can be selected (or latched by preselect),
    // so the span ends at the window's first wake cycle.  Entries
    // waiting on an unissued producer (kNever) cannot wake before some
    // other entry issues, which needs a wake cycle of its own.
    std::int64_t firstWake = kNever;
    for (const WinEntry &e : win)
        firstWake = std::min(firstWake, e.wakeAt);
    if (firstWake <= now)
        return 0;
    event = std::min(event, firstWake);

    // Dispatch: blocked on a future ready cycle (bounds the span) or on
    // a structural limit that cannot clear while nothing commits or
    // issues (charged per cycle, reference check order).
    std::uint64_t *dispatchCounter = nullptr;
    if (dispatchSeq != fetchSeq) {
        const std::size_t h = slotIx(dispatchSeq);
        if (aDispatchReady[h] > now) {
            event = std::min(event, aDispatchReady[h]);
        } else if (win.size() >=
                   static_cast<std::size_t>(prm.window.capacity)) {
            dispatchCounter = &result.dispatchWindowFull;
        } else if (dispatchSeq - commitSeq >=
                   static_cast<std::uint64_t>(prm.robSize)) {
            dispatchCounter = &result.dispatchRobFull;
        } else if (isa::isMemory(aCls[h]) &&
                   lsqOccupancy >= prm.lsqSize) {
            dispatchCounter = &result.dispatchLsqFull;
        } else {
            return 0; // the head would dispatch this cycle
        }
    }

    // Fetch: halted on an unresolved mispredict (cleared only by issue,
    // which cannot happen in the span), redirected until a future cycle
    // (bounds the span), or stopped at the front-end capacity (constant
    // while nothing dispatches).
    if (haltingBranch == ~0ull) {
        if (now < fetchResumeCycle) {
            event = std::min(event, fetchResumeCycle);
        } else if (fetchSeq - dispatchSeq < frontCap) {
            return 0; // fetch would run this cycle
        }
    }

    // Stall cause, constant across the span.  The only time-dependent
    // classification — empty ROB leaving the mispredict shadow — bounds
    // the span at the shadow's end instead.
    StallCause cause;
    if (robEmpty) {
        if (haltingBranch != ~0ull) {
            cause = StallCause::BranchMispredict;
        } else if (now < mispredictShadowEnd) {
            cause = StallCause::BranchMispredict;
            event = std::min(event, mispredictShadowEnd);
        } else {
            cause = StallCause::FrontEnd;
        }
    } else {
        cause = stallCause();
    }

    const std::int64_t end =
        std::min(event, static_cast<std::int64_t>(limit));
    const std::int64_t n = end - now;
    if (n <= 0)
        return 0;

    // Bulk accounting: exactly what n reference zero-commit cycles
    // would have charged.
    result.stallCycles += static_cast<std::uint64_t>(n);
    result.stalls[cause] += static_cast<std::uint64_t>(n);
    if (dispatchCounter != nullptr)
        *dispatchCounter += static_cast<std::uint64_t>(n);
    occ.robSum += (dispatchSeq - commitSeq) * static_cast<std::uint64_t>(n);
    occ.windowSum += win.size() * static_cast<std::uint64_t>(n);
    occ.frontSum += (fetchSeq - dispatchSeq) * static_cast<std::uint64_t>(n);
    occ.lsqSum += static_cast<std::uint64_t>(lsqOccupancy) *
                  static_cast<std::uint64_t>(n);
    occ.cycles += static_cast<std::uint64_t>(n);
    now = end;
    return n;
}

void
BatchedOooCore::watchdogDump(util::DeadlockDump &dump) const
{
    dump.robOccupancy = dispatchSeq - commitSeq;
    dump.windowOccupancy = win.size();
    dump.frontEndOccupancy = fetchSeq - dispatchSeq;
    dump.lsqOccupancy = lsqOccupancy;
    if (commitSeq != dispatchSeq) {
        const std::size_t h = slotIx(commitSeq);
        dump.oldestStalled = util::strprintf(
            "%s seq=%llu dispatchReady=%lld issue=%lld done=%lld",
            isa::opClassName(aCls[h]),
            static_cast<unsigned long long>(commitSeq),
            static_cast<long long>(aDispatchReady[h]),
            static_cast<long long>(aIssueCycle[h]),
            static_cast<long long>(aDoneCycle[h]));
    } else if (dispatchSeq != fetchSeq) {
        const std::size_t h = slotIx(dispatchSeq);
        dump.oldestStalled = util::strprintf(
            "%s seq=%llu waiting to dispatch (ready cycle %lld)",
            isa::opClassName(aCls[h]),
            static_cast<unsigned long long>(dispatchSeq),
            static_cast<long long>(aDispatchReady[h]));
    }
}

template class BatchedCore<BatchedOooCore>;

std::unique_ptr<Core>
makeBatchedOooCore(const CoreParams &params, const std::string &predictor)
{
    return std::make_unique<BatchedOooCore>(params, predictor);
}

} // namespace fo4::core
