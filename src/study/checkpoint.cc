#include "study/checkpoint.hh"

#include <chrono>
#include <cmath>
#include <cstring>
#include <mutex>
#include <numeric>
#include <optional>
#include <thread>
#include <unordered_map>

#include "util/journal.hh"
#include "util/logging.hh"
#include "util/metrics.hh"
#include "util/random.hh"
#include "util/thread_pool.hh"

namespace fo4::study
{

namespace
{

// ---------------------------------------------------------------------
// Identity fingerprint.
//
// Every input that can influence a result byte is rendered into one
// canonical text (util::IdentityHasher) and hashed with FNV-1a.
// Anything *not* rendered here — thread count, retry policy, journal
// path — is asserted by the determinism contract to be unable to
// change results, and therefore must not block a resume.
// ---------------------------------------------------------------------

using util::IdentityHasher;

void
hashCacheParams(IdentityHasher &h, const mem::CacheParams &c)
{
    h.u(c.capacityBytes);
    h.u(c.lineBytes);
    h.u(c.associativity);
}

void
hashCoreParams(IdentityHasher &h, const core::CoreParams &p)
{
    h.i(p.fetchWidth);
    h.i(p.renameWidth);
    h.i(p.commitWidth);
    h.i(p.intIssueWidth);
    h.i(p.fpIssueWidth);
    h.i(p.memIssueWidth);
    h.i(p.robSize);
    h.i(p.lsqSize);
    h.i(p.fetchQueueSize);
    h.i(p.window.capacity);
    h.i(p.window.wakeupStages);
    h.i(static_cast<int>(p.window.select));
    for (const int cap : p.window.preselectCap)
        h.i(cap);
    h.i(p.fetchStages);
    h.i(p.decodeStages);
    h.i(p.renameStages);
    h.i(p.regReadStages);
    h.i(p.commitStages);
    h.i(p.issueLatency);
    for (const int cycles : p.execCycles)
        h.i(cycles);
    h.i(p.memLatencies.dl1);
    h.i(p.memLatencies.l2);
    h.i(p.memLatencies.memory);
    h.i(p.memLatencies.flat);
    h.i(p.memLatencies.l2BusCycles);
    h.i(p.memLatencies.memBusCycles);
    h.i(static_cast<int>(p.memoryMode));
    hashCacheParams(h, p.dl1);
    hashCacheParams(h, p.l2);
    h.i(p.extraMispredictPenalty);
    h.i(p.extraLoadUse);
    h.i(p.extraWakeup);
}

void
hashClock(IdentityHasher &h, const tech::ClockModel &c)
{
    h.d(c.tech.drawnGateLengthNm);
    h.d(c.tUsefulFo4);
    h.d(c.overhead.latchFo4);
    h.d(c.overhead.skewFo4);
    h.d(c.overhead.jitterFo4);
}

void
hashJob(IdentityHasher &h, const BenchJob &job)
{
    h.s(job.name);
    h.i(static_cast<int>(job.cls));
    h.i(job.profile.has_value());
    if (job.profile)
        h.append(job.profile->identityKey());
    h.s(job.tracePath);
    h.i(job.params.has_value());
    if (job.params)
        hashCoreParams(h, *job.params);
    h.i(job.cycleLimit.has_value());
    if (job.cycleLimit)
        h.u(*job.cycleLimit);
}

void
hashSpec(IdentityHasher &h, const RunSpec &spec)
{
    // spec.tracer is deliberately absent: tracing observes a run
    // without changing its bytes, so it must not block a resume.
    // spec.impl is absent for the same reason: the batched and
    // reference implementations are byte-identical by contract
    // (DESIGN.md §14), so a sweep may be resumed under either.
    h.i(static_cast<int>(spec.model));
    h.s(spec.predictor);
    h.u(spec.instructions);
    h.u(spec.warmup);
    h.u(spec.prewarm);
    h.u(spec.cycleLimit);
}

// ---------------------------------------------------------------------
// Cell record encoding (journal payloads).
//
// Binary little-endian; doubles as raw bit patterns so a replayed
// BenchResult is bit-for-bit the one that was journaled.
// ---------------------------------------------------------------------

void
putStr(std::string &out, const std::string &s)
{
    util::appendU32(out, static_cast<std::uint32_t>(s.size()));
    out += s;
}

/** Bounds-checked reader over a record payload. */
class Cursor
{
  public:
    Cursor(const std::string &data, const std::string &path)
        : p(reinterpret_cast<const unsigned char *>(data.data())),
          remaining(data.size()), path(path)
    {
    }

    std::uint32_t
    u32()
    {
        need(4);
        const std::uint32_t v = util::getU32(p);
        p += 4;
        remaining -= 4;
        return v;
    }

    std::uint64_t
    u64()
    {
        need(8);
        const std::uint64_t v = util::getU64(p);
        p += 8;
        remaining -= 8;
        return v;
    }

    std::string
    str()
    {
        const std::uint32_t n = u32();
        need(n);
        std::string s(reinterpret_cast<const char *>(p), n);
        p += n;
        remaining -= n;
        return s;
    }

    void
    done() const
    {
        if (remaining != 0)
            refuse(util::strprintf("%zu trailing bytes", remaining));
    }

    /** Refuse the record as corrupt, naming why. */
    [[noreturn]] void
    refuse(const std::string &why) const
    {
        throw util::JournalError(
            util::ErrorCode::JournalCorrupt,
            util::strprintf("journal '%s': cell record has %s",
                            path.c_str(), why.c_str()));
    }

  private:
    void
    need(std::size_t n) const
    {
        if (remaining < n) {
            throw util::JournalError(
                util::ErrorCode::JournalCorrupt,
                util::strprintf("journal '%s': cell record truncated "
                                "(need %zu bytes, have %zu)",
                                path.c_str(), n, remaining));
        }
    }

    const unsigned char *p;
    std::size_t remaining;
    const std::string &path;
};

std::uint64_t
doubleBits(double v)
{
    std::uint64_t bits;
    std::memcpy(&bits, &v, sizeof(bits));
    return bits;
}

double
doubleFromBits(std::uint64_t bits)
{
    double v;
    std::memcpy(&v, &bits, sizeof(v));
    return v;
}

} // namespace

std::vector<GridPoint>
scalingGrid(const std::vector<double> &tUseful, const SweepOptions &options)
{
    std::vector<GridPoint> points;
    points.reserve(tUseful.size());
    for (const double u : tUseful) {
        points.push_back({scaledCoreParams(u, options.scaling),
                          scaledClock(u, options.overhead)});
    }
    return points;
}

std::string
encodeCellRecord(const CellRecord &cell)
{
    const BenchResult &r = cell.result;
    std::string out;
    out.reserve(240 + r.name.size() + r.error.message().size());
    util::appendU32(out, static_cast<std::uint32_t>(cell.point));
    util::appendU32(out, static_cast<std::uint32_t>(cell.job));
    putStr(out, r.name);
    util::appendU32(out, static_cast<std::uint32_t>(r.cls));
    // Every counter, in core::forEachCounter's order, so a replayed
    // cell restores them bit-for-bit.
    core::forEachCounter([&out](std::uint64_t v) { util::appendU64(out, v); },
                         r.sim);
    util::appendU64(out, doubleBits(r.bips));
    util::appendU32(out, static_cast<std::uint32_t>(r.error.code()));
    putStr(out, r.error.message());
    return out;
}

CellRecord
decodeCellRecord(const std::string &payload, const std::string &origin)
{
    Cursor c(payload, origin);
    CellRecord cell;
    cell.point = c.u32();
    cell.job = c.u32();
    cell.result.name = c.str();
    const std::uint32_t cls = c.u32();
    if (cls > static_cast<std::uint32_t>(trace::BenchClass::NonVectorFp))
        c.refuse(util::strprintf("unknown benchmark class %u", cls));
    cell.result.cls = static_cast<trace::BenchClass>(cls);
    core::forEachCounter([&c](std::uint64_t &v) { v = c.u64(); },
                         cell.result.sim);
    cell.result.bips = doubleFromBits(c.u64());
    const std::uint32_t code = c.u32();
    const std::string message = c.str();
    c.done();
    if (code > static_cast<std::uint32_t>(util::ErrorCode::Internal))
        c.refuse(util::strprintf("unknown error code %u", code));
    const auto error = static_cast<util::ErrorCode>(code);
    if (error == util::ErrorCode::Ok && !message.empty())
        c.refuse("an Ok code carrying a message");
    cell.result.error = error == util::ErrorCode::Ok
                            ? util::Status::ok()
                            : util::Status(error, message);
    return cell;
}

void
appendOrDisableJournal(std::optional<util::JournalWriter> &writer,
                       std::string_view record)
{
    if (!writer)
        return;
    const util::Status st = writer->tryAppend(record);
    if (st.isOk())
        return;
    util::warn("checkpoint journal disabled, sweep continues without "
               "crash-resume: %s",
               st.message().c_str());
    writer.reset();
    static util::MetricCounter &appendErrors =
        util::MetricsRegistry::global().counter(
            "study.journal.append_errors");
    appendErrors.inc();
}

GridJournal
openGridJournal(const std::string &path, std::uint64_t fingerprint,
                std::size_t points, std::size_t jobs)
{
    GridJournal journal;
    if (!util::journalExists(path)) {
        journal.writer.emplace(util::JournalWriter::create(path, fingerprint));
        return journal;
    }
    const util::JournalContents recovered = util::readJournal(path);
    if (recovered.fingerprint != fingerprint) {
        throw util::JournalError(
            util::ErrorCode::ResumeMismatch,
            util::strprintf(
                "journal '%s' was written by a run with different inputs "
                "(journal identity %016llx, this run %016llx); refusing "
                "to merge — delete the journal or restore the original "
                "parameters",
                path.c_str(),
                static_cast<unsigned long long>(recovered.fingerprint),
                static_cast<unsigned long long>(fingerprint)));
    }
    journal.resumed = true;
    journal.tornTail = recovered.tornTail;
    journal.cells.reserve(recovered.records.size());
    for (const auto &record : recovered.records) {
        CellRecord cell = decodeCellRecord(record, path);
        if (cell.point >= points || cell.job >= jobs) {
            throw util::JournalError(
                util::ErrorCode::JournalCorrupt,
                util::strprintf("journal '%s': cell (%zu, %zu) outside "
                                "the %zux%zu grid",
                                path.c_str(), cell.point, cell.job, points,
                                jobs));
        }
        journal.cells.push_back(std::move(cell));
    }
    journal.writer.emplace(util::JournalWriter::appendTo(path, recovered));
    return journal;
}

std::uint64_t
gridFingerprint(const std::vector<GridPoint> &points,
                const std::vector<BenchJob> &jobs, const RunSpec &spec)
{
    IdentityHasher h;
    h.u(points.size());
    for (const auto &point : points) {
        hashCoreParams(h, point.params);
        hashClock(h, point.clock);
    }
    h.u(jobs.size());
    for (const auto &job : jobs)
        hashJob(h, job);
    hashSpec(h, spec);
    return h.hash();
}

std::vector<std::size_t>
simulationOwners(const std::vector<GridPoint> &points, const RunSpec &spec)
{
    std::vector<std::size_t> owners(points.size());
    std::iota(owners.begin(), owners.end(), std::size_t{0});
    if (spec.tracer != nullptr || spec.retireSink != nullptr)
        return owners;
    std::unordered_map<std::string, std::size_t> first;
    for (std::size_t p = 0; p < points.size(); ++p) {
        IdentityHasher h;
        hashCoreParams(h, points[p].params);
        owners[p] = first.emplace(h.rendering(), p).first->second;
    }
    return owners;
}

bool
RetryPolicy::transientCode(util::ErrorCode code)
{
    return code == util::ErrorCode::TraceIo ||
           code == util::ErrorCode::Internal;
}

double
RetryPolicy::delayMs(int attempt, std::uint64_t cellKey) const
{
    FO4_ASSERT(attempt >= 2, "delayMs precedes a *re*try (attempt >= 2)");
    double delay = baseDelayMs;
    for (int k = 2; k < attempt; ++k)
        delay *= backoffFactor;
    delay = std::min(delay, maxDelayMs);

    // Deterministic jitter: the same (seed, cell, attempt) always draws
    // the same factor, so a reproduction of a retried run backs off
    // identically.  The draw is a counter-based util::RandomStream —
    // the same splittable-stream discipline the Monte Carlo sampler
    // uses — keyed by one fixed seed and split per cell, per attempt.
    const util::RandomStream jitter =
        util::RandomStream::root(0xf04)
            .child(cellKey)
            .child(static_cast<std::uint64_t>(attempt));
    const double factor = 1.0 + jitterFraction * (jitter.uniform(0) - 0.5);
    return delay * factor;
}

util::Status
RetryPolicy::validate() const
{
    util::ErrorCollector errs;
    if (maxAttempts < 1)
        errs.addf("maxAttempts must be >= 1 (got %d)", maxAttempts);
    if (baseDelayMs < 0.0)
        errs.addf("baseDelayMs must be >= 0 (got %g)", baseDelayMs);
    if (backoffFactor < 1.0)
        errs.addf("backoffFactor must be >= 1 (got %g)", backoffFactor);
    if (maxDelayMs < 0.0)
        errs.addf("maxDelayMs must be >= 0 (got %g)", maxDelayMs);
    if (jitterFraction < 0.0 || jitterFraction > 1.0)
        errs.addf("jitterFraction must be in [0, 1] (got %g)",
                  jitterFraction);
    return errs.status(util::ErrorCode::InvalidConfig);
}

CheckpointedRunner::CheckpointedRunner(CheckpointOptions options)
    : opts(std::move(options)),
      nThreads(opts.threads <= 0 ? util::ThreadPool::hardwareThreads()
                                 : opts.threads)
{
}

std::vector<SuiteResult>
CheckpointedRunner::runGrid(const std::vector<GridPoint> &points,
                            const std::vector<BenchJob> &jobs,
                            const RunSpec &spec)
{
    // Same fail-fast validation as the plain engine, plus the policy.
    for (const auto &point : points)
        validateSuiteInputs(point.params, point.clock, jobs, spec);
    if (const auto st = opts.retry.validate(); !st.isOk())
        throw util::ConfigError("retry policy: " + st.message());

    const std::size_t nJobs = jobs.size();
    lastReport = CheckpointReport{};
    lastReport.totalCells = points.size() * nJobs;
    const auto runStart = std::chrono::steady_clock::now();
    const auto finishReport = [&] {
        lastReport.wallMs =
            std::chrono::duration<double, std::milli>(
                std::chrono::steady_clock::now() - runStart)
                .count();
    };

    std::vector<SuiteResult> results(points.size());
    for (auto &suite : results)
        suite.benchmarks.resize(nJobs);
    std::vector<char> done(points.size() * nJobs, 0);

    // --- recovery: replay the journal, bind to it for appends ---
    std::optional<util::JournalWriter> writer;
    std::mutex journalMutex;
    if (!opts.journalPath.empty()) {
        GridJournal journal = openGridJournal(
            opts.journalPath, gridFingerprint(points, jobs, spec),
            points.size(), nJobs);
        lastReport.resumed = journal.resumed;
        lastReport.tornTailDiscarded = journal.tornTail;
        for (auto &cell : journal.cells) {
            auto &slot = done[cell.point * nJobs + cell.job];
            if (!slot) {
                slot = 1;
                ++lastReport.replayedCells;
            }
            results[cell.point].benchmarks[cell.job] =
                std::move(cell.result);
        }
        writer = std::move(journal.writer);
    }

    // --- fabric seeds: cells completed elsewhere land in their slots
    // exactly like replayed records.  Journal-restored slots win the
    // tie — both sources hold byte-identical results for a cell.
    for (const auto &cell : opts.seedCells) {
        if (cell.point >= points.size() || cell.job >= nJobs) {
            throw util::ConfigError(util::strprintf(
                "seed cell (%zu, %zu) outside the %zux%zu grid",
                cell.point, cell.job, points.size(), nJobs));
        }
        auto &slot = done[cell.point * nJobs + cell.job];
        if (slot)
            continue;
        slot = 1;
        ++lastReport.seededCells;
        results[cell.point].benchmarks[cell.job] = cell.result;
    }

    std::mutex reportMutex;
    const auto flushJournal = [&] {
        std::lock_guard<std::mutex> lock(journalMutex);
        if (writer)
            writer->close();
    };
    // The user-facing cancellation story: how much is on disk and how
    // to get the rest.  Thrown from both cancel exits so the resume
    // hint survives no matter which cell noticed the request first.
    const auto cancelSummary = [&] {
        const std::size_t complete = lastReport.replayedCells +
                                     lastReport.seededCells +
                                     lastReport.executedCells;
        return util::strprintf(
            "sweep cancelled with %zu of %zu cells complete%s",
            complete, lastReport.totalCells,
            opts.journalPath.empty()
                ? ""
                : "; rerun with the same checkpoint to resume");
    };

    // --- complete one cell: simulate it, or price it from `shared`, a
    // success of the same simulation (see runClass) ---
    const auto runCell = [&](std::size_t p, std::size_t j,
                             const BenchResult *shared) {
        const std::uint64_t cellKey = p * nJobs + j;
        const auto cellStart = std::chrono::steady_clock::now();
        BenchResult result;
        int attempts = 0;
        for (int attempt = 1;; ++attempt) {
            attempts = attempt;
            if (opts.onAttempt)
                opts.onAttempt(p, j, attempt);
            if (shared) {
                result = *shared;
                priceAtClock(result, points[p].clock);
                break;
            }
            result = runJobIsolated(points[p].params, points[p].clock,
                                    jobs[j], spec, opts.cancel);
            if (!result.failed() ||
                attempt >= opts.retry.maxAttempts ||
                !RetryPolicy::transientCode(result.error.code()))
                break;
            {
                std::lock_guard<std::mutex> lock(reportMutex);
                ++lastReport.retriedAttempts;
            }
            static util::MetricCounter &cellsRetried =
                util::MetricsRegistry::global().counter(
                    "study.cells.retried");
            cellsRetried.inc();
            const double delay =
                opts.retry.delayMs(attempt + 1, cellKey);
            if (delay > 0.0) {
                std::this_thread::sleep_for(
                    std::chrono::duration<double, std::milli>(delay));
            }
            if (opts.cancel && opts.cancel->cancelled()) {
                throw util::CancelledError(util::strprintf(
                    "cell (%zu, %zu) cancelled during retry backoff",
                    p, j));
            }
        }
        results[p].benchmarks[j] = std::move(result);
        // Journal *after* the slot write: the record is the durable
        // acknowledgement, so a crash between the two just reruns the
        // cell.  Append order is completion order — irrelevant, because
        // replay lands each record back in its keyed slot.
        {
            std::lock_guard<std::mutex> lock(journalMutex);
            if (writer)
                appendOrDisableJournal(
                    writer,
                    encodeCellRecord({p, j, results[p].benchmarks[j]}));
        }
        static util::MetricCounter &cellsExecuted =
            util::MetricsRegistry::global().counter(
                "study.cells.executed");
        static util::MetricCounter &cellsShared =
            util::MetricsRegistry::global().counter("study.cells.shared");
        cellsExecuted.inc();
        if (shared)
            cellsShared.inc();
        const double cellMs =
            std::chrono::duration<double, std::milli>(
                std::chrono::steady_clock::now() - cellStart)
                .count();
        std::lock_guard<std::mutex> lock(reportMutex);
        ++lastReport.executedCells;
        if (shared)
            ++lastReport.sharedCells;
        lastReport.cellTimings.push_back({p, j, cellMs, attempts});
    };

    // --- run one simulation class: the cells of `members` at job j ---
    // The first success — replayed, seeded or simulated here — prices
    // every later cell of the class.  A failure is never shared: once a
    // cell fails with no success in hand, the rest of the class has no
    // price to wait for, so its cells go back to the pool as separate
    // tasks and simulate in parallel, each with its own attempts.
    const auto runClass = [&](util::TaskGroup &group,
                              const std::vector<std::size_t> &members,
                              std::size_t j) {
        const BenchResult *simulated = nullptr;
        for (const std::size_t p : members) {
            if (done[p * nJobs + j] && !results[p].benchmarks[j].failed()) {
                simulated = &results[p].benchmarks[j];
                break;
            }
        }
        for (std::size_t k = 0; k < members.size(); ++k) {
            const std::size_t p = members[k];
            if (done[p * nJobs + j])
                continue;
            // The class is one task; its later cells honour a
            // cancellation request as queued tasks would.
            if (opts.cancel && opts.cancel->cancelled())
                return;
            runCell(p, j, simulated);
            if (simulated)
                continue;
            if (!results[p].benchmarks[j].failed()) {
                simulated = &results[p].benchmarks[j];
                continue;
            }
            for (std::size_t r = k + 1; r < members.size(); ++r) {
                const std::size_t q = members[r];
                if (!done[q * nJobs + j])
                    group.submit([&runCell, q, j] {
                        runCell(q, j, nullptr);
                    });
            }
            return;
        }
    };

    // --- fan out one task per class with an incomplete cell ---
    // Classes go in owner order, so a grid whose points all own
    // themselves keeps one task per cell, in cell order.
    const std::vector<std::size_t> owners = simulationOwners(points, spec);
    std::vector<std::vector<std::size_t>> members(points.size());
    for (std::size_t p = 0; p < points.size(); ++p)
        members[owners[p]].push_back(p);
    {
        util::ThreadPool pool(nThreads);
        util::TaskGroup group(pool, opts.cancel);
        for (std::size_t o = 0; o < points.size(); ++o) {
            for (std::size_t j = 0; j < nJobs; ++j) {
                bool incomplete = false;
                for (const std::size_t p : members[o])
                    incomplete |= !done[p * nJobs + j];
                if (incomplete)
                    group.submit([&runClass, &group, &members, o, j] {
                        runClass(group, members[o], j);
                    });
            }
        }
        try {
            group.wait();
        } catch (const util::CancelledError &) {
            // A cell aborted mid-simulation; everything acknowledged is
            // already on disk — make it durable and report resumable.
            finishReport();
            flushJournal();
            throw util::CancelledError(cancelSummary());
        }
    }

    if (opts.cancel && opts.cancel->cancelled()) {
        finishReport();
        flushJournal();
        throw util::CancelledError(cancelSummary());
    }

    finishReport();
    flushJournal();
    return results;
}

std::vector<SweepPointResult>
CheckpointedRunner::sweepScaling(const std::vector<double> &tUseful,
                                 const SweepOptions &options,
                                 const std::vector<BenchJob> &jobs,
                                 const RunSpec &spec)
{
    const std::vector<GridPoint> points = scalingGrid(tUseful, options);
    auto suites = runGrid(points, jobs, spec);
    std::vector<SweepPointResult> out;
    out.reserve(points.size());
    for (std::size_t i = 0; i < points.size(); ++i)
        out.push_back({tUseful[i], points[i].clock, std::move(suites[i])});
    return out;
}

std::vector<SweepPointResult>
CheckpointedRunner::sweepScaling(
    const std::vector<double> &tUseful, const SweepOptions &options,
    const std::vector<trace::BenchmarkProfile> &profiles,
    const RunSpec &spec)
{
    return sweepScaling(tUseful, options, jobsFromProfiles(profiles),
                        spec);
}

} // namespace fo4::study
