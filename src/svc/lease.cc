#include "svc/lease.hh"

#include <numeric>

#include "util/logging.hh"

namespace fo4::svc
{

namespace
{

std::vector<std::size_t>
identityOwners(std::size_t points)
{
    std::vector<std::size_t> owners(points);
    std::iota(owners.begin(), owners.end(), std::size_t{0});
    return owners;
}

} // namespace

CellScheduler::CellScheduler(const std::vector<std::size_t> &owners,
                             std::size_t jobs)
    : nJobs(jobs), states(owners.size() * jobs, State::Pending),
      classOf(states.size())
{
    FO4_ASSERT(!owners.empty() && jobs >= 1,
               "a sweep grid has at least one cell");
    // Classes are numbered in order of their first cell, so the first
    // grants walk the grid in FIFO order, one class at a time.  An
    // owner is the first point of its class, so its cell at the same
    // job is always numbered before the cells it owns.
    for (std::size_t i = 0; i < states.size(); ++i) {
        pending.push_back(i);
        const std::size_t point = i / nJobs;
        const std::size_t owner = owners[point];
        FO4_ASSERT(owner <= point && owners[owner] == owner,
                   "point %zu's owner %zu is not the first point of its "
                   "class", point, owner);
        if (owner == point) {
            classOf[i] = classes.size();
            unclaimed.push_back(classes.size());
            classes.emplace_back();
        } else {
            classOf[i] = classOf[owner * nJobs + i % nJobs];
        }
        classes[classOf[i]].cells.push_back(i);
    }
}

CellScheduler::CellScheduler(std::size_t points, std::size_t jobs)
    : CellScheduler(identityOwners(points), jobs)
{
}

std::size_t
CellScheduler::index(std::size_t point, std::size_t job) const
{
    FO4_ASSERT(job < nJobs && point * nJobs + job < states.size(),
               "cell (%zu, %zu) outside the grid", point, job);
    return point * nJobs + job;
}

void
CellScheduler::markDone(std::size_t point, std::size_t job)
{
    const std::size_t i = index(point, job);
    if (states[i] == State::Done)
        return;
    FO4_ASSERT(states[i] == State::Pending,
               "markDone on a leased cell (%zu, %zu)", point, job);
    // Lazy removal: grant() skips non-pending queue entries, so the
    // stale index left in `pending` costs one pop, not an O(n) erase.
    states[i] = State::Done;
    ++nDone;
}

CellScheduler::CellKey
CellScheduler::lease(std::size_t i, std::uint64_t workerId,
                     FabricTime expiry)
{
    states[i] = State::Leased;
    leases[i] = Lease{workerId, expiry};
    return CellKey{i / nJobs, i % nJobs};
}

std::optional<std::size_t>
CellScheduler::takeFrom(CellClass &c)
{
    while (c.next < c.cells.size()) {
        const std::size_t i = c.cells[c.next++];
        if (states[i] == State::Pending)
            return i;
    }
    return std::nullopt;
}

std::optional<CellScheduler::CellKey>
CellScheduler::grant(std::uint64_t workerId, FabricTime expiry)
{
    // The worker's own class first, then a fresh claim.
    if (const auto it = claims.find(workerId); it != claims.end()) {
        if (const auto i = takeFrom(classes[it->second]))
            return lease(*i, workerId, expiry);
        classes[it->second].claimant = 0;
        claims.erase(it);
    }
    while (!unclaimed.empty()) {
        const std::size_t c = unclaimed.front();
        unclaimed.pop_front();
        if (classes[c].claimant != 0)
            continue; // lazily-removed (claimed since it was queued)
        if (const auto i = takeFrom(classes[c])) {
            classes[c].claimant = workerId;
            claims[workerId] = c;
            return lease(*i, workerId, expiry);
        }
    }
    // The FIFO: every pending cell is here, whichever class holds it.
    while (!pending.empty()) {
        const std::size_t i = pending.front();
        pending.pop_front();
        if (states[i] != State::Pending)
            continue; // lazily-removed (markDone raced the queue)
        return lease(i, workerId, expiry);
    }
    return std::nullopt;
}

bool
CellScheduler::complete(std::size_t point, std::size_t job)
{
    const std::size_t i = index(point, job);
    if (states[i] == State::Done)
        return false; // duplicate: a lease raced its re-dispatch
    states[i] = State::Done;
    ++nDone;
    leases.erase(i); // no-op for a revoked (re-pended) lease
    return true;
}

void
CellScheduler::requeue(std::size_t i)
{
    states[i] = State::Pending;
    pending.push_back(i);
    CellClass &c = classes[classOf[i]];
    c.cells.push_back(i);
    if (c.claimant == 0)
        unclaimed.push_front(classOf[i]);
}

std::size_t
CellScheduler::reclaimExpired(FabricTime now)
{
    std::size_t reclaimed = 0;
    for (auto it = leases.begin(); it != leases.end();) {
        if (it->second.expiry <= now) {
            requeue(it->first);
            it = leases.erase(it);
            ++reclaimed;
        } else {
            ++it;
        }
    }
    return reclaimed;
}

std::size_t
CellScheduler::reclaimWorker(std::uint64_t workerId)
{
    // Release the dead worker's class first, so its reclaimed cells
    // queue it for the survivors ahead of any fresh class.
    if (const auto it = claims.find(workerId); it != claims.end()) {
        classes[it->second].claimant = 0;
        unclaimed.push_front(it->second);
        claims.erase(it);
    }
    std::size_t reclaimed = 0;
    for (auto it = leases.begin(); it != leases.end();) {
        if (it->second.workerId == workerId) {
            requeue(it->first);
            it = leases.erase(it);
            ++reclaimed;
        } else {
            ++it;
        }
    }
    return reclaimed;
}

std::uint64_t
CellScheduler::activeLeases(std::uint64_t workerId) const
{
    std::uint64_t n = 0;
    for (const auto &[i, lease] : leases) {
        if (lease.workerId == workerId)
            ++n;
    }
    return n;
}

WorkerTable::WorkerTable(Timing timing) : times(timing)
{
    FO4_ASSERT(times.suspectAfterMs <= times.deadAfterMs,
               "a worker must turn Suspect no later than Dead");
}

std::uint64_t
WorkerTable::registerWorker(std::string name, std::uint64_t threads,
                            FabricTime now)
{
    const std::uint64_t id = nextId++;
    Worker w;
    w.name = std::move(name);
    w.threads = threads;
    w.lastSeen = now;
    workers.emplace(id, std::move(w));
    return id;
}

bool
WorkerTable::touch(std::uint64_t id, FabricTime now)
{
    const auto it = workers.find(id);
    if (it == workers.end() || it->second.state == WorkerState::Dead)
        return false;
    it->second.lastSeen = now;
    it->second.state = WorkerState::Live; // a late suspect revives
    return true;
}

std::vector<std::uint64_t>
WorkerTable::newlyDead(FabricTime now)
{
    std::vector<std::uint64_t> died;
    for (auto &[id, w] : workers) {
        if (w.state == WorkerState::Dead)
            continue;
        const auto silence =
            std::chrono::duration_cast<std::chrono::milliseconds>(
                now - w.lastSeen)
                .count();
        if (silence >= static_cast<long long>(times.deadAfterMs)) {
            w.state = WorkerState::Dead;
            died.push_back(id);
        } else if (silence >=
                   static_cast<long long>(times.suspectAfterMs)) {
            w.state = WorkerState::Suspect;
        }
    }
    return died;
}

std::size_t
WorkerTable::liveCount() const
{
    std::size_t n = 0;
    for (const auto &[id, w] : workers) {
        if (w.state != WorkerState::Dead)
            ++n;
    }
    return n;
}

void
WorkerTable::recordCompletion(std::uint64_t id)
{
    const auto it = workers.find(id);
    if (it != workers.end())
        ++it->second.cellsCompleted;
}

} // namespace fo4::svc
