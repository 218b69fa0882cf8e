/**
 * @file
 * The sweep fabric under test, from pure bookkeeping to full chaos.
 *
 * Unit layer (fabricated clocks, no sockets, no sleeps): CellScheduler
 * lease lifecycle — grant, first-wins completion, expiry and
 * dead-worker reclaim — its class-affine grants over Monte Carlo dice
 * (a class is never split while an unclaimed one remains, singleton
 * classes keep the FIFO order, a dead worker's class passes to the
 * survivor, and grant() always reaches a pending cell), and the
 * WorkerTable failure detector's Live -> Suspect -> Dead ladder.
 *
 * Integration layer (real coordinator, real in-process workers, real
 * loopback sockets): the headline identity guarantee — a sweep sharded
 * across a fleet is byte-identical to the same sweep run locally,
 * *no matter what the fleet does*.  The chaos test is the acceptance
 * criterion: one worker SIGKILLed mid-sweep (in-process kill(): the
 * cell dies unreported), another frozen behind a black-holed proxy,
 * their cells re-dispatched, the remainder finished by local fallback
 * — and the fetched bytes still cmp-equal a plain local run.
 *
 * Also here: zero-worker fleets complete via local fallback, a failing
 * journal disk costs the coordinator durability but not the sweep, a
 * worker frozen until it is declared dead re-registers over its own
 * connection, unknown worker ids are refused NotFound without costing
 * the session, a client with reconnect enabled survives a daemon
 * restart on the same port, and client timeout validation refuses
 * non-positive deadlines.
 */

#include <gtest/gtest.h>

#include <chrono>
#include <cstdio>
#include <map>
#include <optional>
#include <random>
#include <set>
#include <string>
#include <thread>
#include <vector>

#include "chaos_proxy.hh"
#include "scratch_dir.hh"
#include "svc/client.hh"
#include "svc/coordinator.hh"
#include "svc/lease.hh"
#include "svc/server.hh"
#include "svc/sweep.hh"
#include "svc/worker.hh"
#include "util/frame.hh"
#include "util/metrics.hh"
#include "util/status.hh"

using namespace fo4;
using util::ErrorCode;
using util::SvcError;

namespace
{

svc::FabricTime
t0()
{
    return svc::FabricClock::now();
}

svc::FabricTime
plus(svc::FabricTime base, std::uint64_t msOffset)
{
    return base + std::chrono::milliseconds(msOffset);
}

/** A modest grid: 2 depths x 2 benchmarks = 4 cells. */
svc::SweepRequest
smallRequest()
{
    svc::SweepRequest req;
    req.instructions = 6000;
    req.warmup = 500;
    req.prewarm = 20000;
    req.tUseful = {8.0, 6.0};
    for (const char *name : {"164.gzip", "181.mcf"}) {
        svc::WireJob job;
        job.name = name;
        req.jobs.push_back(std::move(job));
    }
    return req;
}

/** A bigger grid (8 cells, heavier cells) so chaos lands mid-sweep. */
svc::SweepRequest
chaosRequest()
{
    svc::SweepRequest req;
    req.instructions = 30000;
    req.warmup = 2000;
    req.prewarm = 50000;
    req.tUseful = {10.0, 8.0, 6.0, 4.6};
    for (const char *name : {"164.gzip", "256.bzip2"}) {
        svc::WireJob job;
        job.name = name;
        req.jobs.push_back(std::move(job));
    }
    return req;
}

/** Simulation owners of a Monte Carlo grid of `basePoints` x `dice`,
 *  sample-major: die s of base point p is point s * basePoints + p. */
std::vector<std::size_t>
mcOwners(std::size_t basePoints, std::size_t dice)
{
    std::vector<std::size_t> owners;
    for (std::size_t s = 0; s < dice; ++s) {
        for (std::size_t p = 0; p < basePoints; ++p)
            owners.push_back(p);
    }
    return owners;
}

/** Latch and die variation over `request`'s grid. */
svc::SweepRequest
withDice(svc::SweepRequest request, std::uint64_t dice)
{
    request.mcSamples = dice;
    request.mcDist = "normal";
    request.mcSigmaLatch = 0.08;
    request.mcSigmaDie = 0.05;
    request.mcSeed = 42;
    return request;
}

std::string
localBytes(const svc::SweepRequest &request)
{
    // Round-trip through the wire codec first, exactly like the
    // coordinator will, so both sides plan from identical inputs.
    const svc::SweepRequest decoded =
        svc::SweepRequest::decode(request.encode());
    return svc::runSweep(svc::planSweep(decoded), 1, "", nullptr, {});
}

svc::CoordinatorOptions
fastCoordinator()
{
    svc::CoordinatorOptions opts;
    opts.port = 0;
    opts.detector.heartbeatMs = 50;
    opts.detector.suspectAfterMs = 150;
    opts.detector.deadAfterMs = 400;
    opts.leaseTimeoutMs = 2000;
    opts.tickMs = 20;
    opts.localFallback = true;
    opts.fallbackGraceMs = 300;
    return opts;
}

svc::WorkerOptions
workerFor(std::uint16_t port, const std::string &name,
          int ioTimeoutMs = 2000)
{
    svc::WorkerOptions opts;
    opts.port = port;
    opts.name = name;
    opts.connectTimeoutMs = 2000;
    opts.ioTimeoutMs = ioTimeoutMs;
    return opts;
}

} // namespace

// ---------------------------------------------------------------------
// CellScheduler (pure, fabricated time)
// ---------------------------------------------------------------------

TEST(CellScheduler, GrantsEveryCellExactlyOnceThenNoWork)
{
    svc::CellScheduler sched(2, 3);
    const auto now = t0();
    std::size_t granted = 0;
    while (sched.grant(1, plus(now, 1000)))
        ++granted;
    EXPECT_EQ(6u, granted);
    EXPECT_EQ(6u, sched.leasedCount());
    EXPECT_EQ(0u, sched.pendingCount());
    EXPECT_FALSE(sched.grant(1, plus(now, 1000)).has_value());
}

TEST(CellScheduler, FirstCompletionWinsDuplicatesAreDropped)
{
    svc::CellScheduler sched(1, 2);
    const auto now = t0();
    ASSERT_TRUE(sched.grant(1, plus(now, 1000)).has_value());
    EXPECT_TRUE(sched.complete(0, 0));
    EXPECT_FALSE(sched.complete(0, 0)) << "duplicate must be dropped";
    EXPECT_EQ(1u, sched.doneCount());
    EXPECT_FALSE(sched.finished());
    EXPECT_TRUE(sched.complete(0, 1));
    EXPECT_TRUE(sched.finished());
}

TEST(CellScheduler, ExpiredLeasesReturnToPendingAndRegrant)
{
    svc::CellScheduler sched(1, 2);
    const auto now = t0();
    ASSERT_TRUE(sched.grant(7, plus(now, 100)).has_value());
    ASSERT_TRUE(sched.grant(7, plus(now, 5000)).has_value());

    // Only the first lease is past its expiry at +200ms.
    EXPECT_EQ(1u, sched.reclaimExpired(plus(now, 200)));
    EXPECT_EQ(1u, sched.pendingCount());
    EXPECT_EQ(1u, sched.leasedCount());

    // The reclaimed cell can be granted again — to another worker.
    const auto key = sched.grant(9, plus(now, 9000));
    ASSERT_TRUE(key.has_value());
    EXPECT_EQ(0u, sched.pendingCount());
}

TEST(CellScheduler, DeadWorkersLeasesAreReclaimedTogether)
{
    svc::CellScheduler sched(2, 2);
    const auto now = t0();
    ASSERT_TRUE(sched.grant(1, plus(now, 1000)).has_value());
    ASSERT_TRUE(sched.grant(2, plus(now, 1000)).has_value());
    ASSERT_TRUE(sched.grant(1, plus(now, 1000)).has_value());
    EXPECT_EQ(2u, sched.activeLeases(1));
    EXPECT_EQ(1u, sched.activeLeases(2));

    EXPECT_EQ(2u, sched.reclaimWorker(1));
    EXPECT_EQ(0u, sched.activeLeases(1));
    // 1 never-granted cell + 2 reclaimed; worker 2's lease survives.
    EXPECT_EQ(3u, sched.pendingCount());
    EXPECT_EQ(1u, sched.leasedCount());
}

TEST(CellScheduler, CompletionFromRevokedLeaseStillCounts)
{
    svc::CellScheduler sched(1, 1);
    const auto now = t0();
    ASSERT_TRUE(sched.grant(1, plus(now, 100)).has_value());
    EXPECT_EQ(1u, sched.reclaimExpired(plus(now, 200)));
    // The original owner finishes anyway (it was slow, not dead):
    // purity makes its bytes just as good, so the completion lands.
    EXPECT_TRUE(sched.complete(0, 0));
    EXPECT_TRUE(sched.finished());
    // The re-dispatched grant is skipped lazily.
    EXPECT_FALSE(sched.grant(2, plus(now, 9000)).has_value());
}

TEST(CellScheduler, ReplayedCellsAreNeverGranted)
{
    svc::CellScheduler sched(2, 2);
    sched.markDone(0, 0);
    sched.markDone(1, 1);
    sched.markDone(1, 1); // idempotent
    EXPECT_EQ(2u, sched.doneCount());
    const auto now = t0();
    std::size_t granted = 0;
    while (sched.grant(1, plus(now, 1000)))
        ++granted;
    EXPECT_EQ(2u, granted) << "only the two unreplayed cells remain";
}

TEST(CellScheduler, AlternatingWorkersNeverSplitAClassWhileOneIsUnclaimed)
{
    // 3 points x 4 dice x 2 jobs: 6 classes of 4 cells.  Worker 1 asks
    // twice as often as worker 2, so their classes run out at
    // different times.
    const std::size_t jobs = 2;
    const auto owners = mcOwners(3, 4);
    svc::CellScheduler sched(owners, jobs);
    const auto now = t0();
    std::map<std::size_t, std::uint64_t> firstWorker; // class -> worker
    std::map<std::size_t, int> granted;               // class -> cells
    std::map<std::uint64_t, std::size_t> lastClass;   // worker -> class
    const std::uint64_t turns[] = {1, 1, 2};
    for (std::size_t n = 0;; ++n) {
        const std::uint64_t worker = turns[n % 3];
        const bool unclaimedRemains = firstWorker.size() < 6;
        const auto key = sched.grant(worker, plus(now, 1000));
        if (!key)
            break;
        const std::size_t cls = owners[key->point] * jobs + key->job;
        const auto first = firstWorker.emplace(cls, worker).first;
        if (unclaimedRemains) {
            EXPECT_EQ(first->second, worker)
                << "grant " << n << " split class " << cls
                << " while a class was still unclaimed";
            const auto last = lastClass.find(worker);
            if (last != lastClass.end() && granted[last->second] < 4) {
                EXPECT_EQ(cls, last->second)
                    << "grant " << n << " moved worker " << worker
                    << " off a class with cells left";
            }
        }
        ++granted[cls];
        lastClass[worker] = cls;
        EXPECT_TRUE(sched.complete(key->point, key->job));
    }
    EXPECT_EQ(firstWorker.size(), 6u);
    EXPECT_TRUE(sched.finished());
}

TEST(CellScheduler, ReclaimedWorkersClassStaysGrantableToTheSurvivor)
{
    // 3 points x 4 dice x 1 job: class A = points {0,3,6,9}, B =
    // {1,4,7,10}, C = {2,5,8,11}.  Worker 1 dies two cells into A.
    const auto owners = mcOwners(3, 4);
    svc::CellScheduler sched(owners, 1);
    const auto now = t0();
    for (int i = 0; i < 2; ++i) {
        const auto key = sched.grant(1, plus(now, 1000));
        ASSERT_TRUE(key.has_value());
        EXPECT_EQ(owners[key->point], 0u);
    }
    const auto first = sched.grant(2, plus(now, 1000));
    ASSERT_TRUE(first.has_value());
    EXPECT_EQ(owners[first->point], 1u);
    EXPECT_TRUE(sched.complete(first->point, first->job));

    EXPECT_EQ(sched.reclaimWorker(1), 2u);
    // The survivor finishes its own class, then inherits class A whole
    // — the two reclaimed cells and the two never granted — before it
    // claims the untouched class C.
    std::set<std::size_t> inherited;
    for (int i = 0; i < 11; ++i) {
        const auto key = sched.grant(2, plus(now, 1000));
        ASSERT_TRUE(key.has_value());
        const std::size_t want = i < 3 ? 1 : i < 7 ? 0 : 2;
        EXPECT_EQ(owners[key->point], want) << "grant " << i;
        if (want == 0)
            inherited.insert(key->point);
        EXPECT_TRUE(sched.complete(key->point, key->job));
    }
    EXPECT_EQ(inherited, (std::set<std::size_t>{0, 3, 6, 9}));
    EXPECT_FALSE(sched.grant(2, plus(now, 1000)).has_value());
    EXPECT_TRUE(sched.finished());
}

TEST(CellScheduler, GrantNeverReturnsNothingWhileACellIsPending)
{
    // Random grants, completions, expiries and deaths over a Monte
    // Carlo grid, checked against a model of every cell's state: the
    // scheduler must grant whenever the model holds a pending cell.
    enum CellState { Pending, Leased, Done };
    const std::size_t jobs = 2;
    const auto owners = mcOwners(3, 4);
    const std::size_t cells = owners.size() * jobs;
    std::mt19937 rng(20260417);
    for (int round = 0; round < 20; ++round) {
        svc::CellScheduler sched(owners, jobs);
        std::vector<CellState> model(cells, Pending);
        std::vector<std::uint64_t> holder(cells, 0);
        std::vector<std::uint64_t> expiry(cells, 0);
        std::uint64_t clock = 0;
        const auto now = t0();
        const auto pendingInModel = [&] {
            std::size_t n = 0;
            for (const CellState st : model)
                n += st == Pending;
            return n;
        };
        for (int step = 0; step < 400 && !sched.finished(); ++step) {
            clock += 10;
            const int op = static_cast<int>(rng() % 10);
            if (op < 6) {
                const std::uint64_t worker = 1 + rng() % 3;
                const std::uint64_t until = clock + 20 + rng() % 200;
                const bool expectGrant = pendingInModel() > 0;
                const auto key = sched.grant(worker, plus(now, until));
                ASSERT_EQ(key.has_value(), expectGrant)
                    << "round " << round << " step " << step;
                if (key) {
                    const std::size_t i = key->point * jobs + key->job;
                    ASSERT_EQ(model[i], Pending);
                    model[i] = Leased;
                    holder[i] = worker;
                    expiry[i] = until;
                }
            } else if (op < 8) {
                const std::size_t i = rng() % cells;
                EXPECT_EQ(sched.complete(i / jobs, i % jobs),
                          model[i] != Done);
                model[i] = Done;
            } else if (op < 9) {
                std::size_t expired = 0;
                for (std::size_t i = 0; i < cells; ++i) {
                    if (model[i] == Leased && expiry[i] <= clock) {
                        model[i] = Pending;
                        ++expired;
                    }
                }
                EXPECT_EQ(sched.reclaimExpired(plus(now, clock)), expired);
            } else {
                const std::uint64_t dead = 1 + rng() % 3;
                std::size_t held = 0;
                for (std::size_t i = 0; i < cells; ++i) {
                    if (model[i] == Leased && holder[i] == dead) {
                        model[i] = Pending;
                        ++held;
                    }
                }
                EXPECT_EQ(sched.reclaimWorker(dead), held);
            }
            ASSERT_EQ(sched.pendingCount(), pendingInModel());
        }
    }
}

// ---------------------------------------------------------------------
// WorkerTable failure detector (pure, fabricated time)
// ---------------------------------------------------------------------

TEST(WorkerTable, SilenceDegradesLiveToSuspectToDead)
{
    svc::WorkerTable fleet({50, 150, 400});
    const auto now = t0();
    const auto id = fleet.registerWorker("w", 1, now);
    EXPECT_EQ(1u, fleet.liveCount());

    EXPECT_TRUE(fleet.newlyDead(plus(now, 100)).empty());
    auto rows = fleet.snapshot(plus(now, 100),
                               [](std::uint64_t) { return 0u; });
    EXPECT_EQ(svc::WorkerState::Live, rows[0].state);

    EXPECT_TRUE(fleet.newlyDead(plus(now, 200)).empty());
    rows = fleet.snapshot(plus(now, 200),
                          [](std::uint64_t) { return 0u; });
    EXPECT_EQ(svc::WorkerState::Suspect, rows[0].state);
    EXPECT_EQ(1u, fleet.liveCount()) << "a suspect still counts";

    const auto died = fleet.newlyDead(plus(now, 500));
    ASSERT_EQ(1u, died.size());
    EXPECT_EQ(id, died[0]);
    EXPECT_EQ(0u, fleet.liveCount());
    EXPECT_TRUE(fleet.newlyDead(plus(now, 600)).empty())
        << "a worker dies exactly once";
}

TEST(WorkerTable, LateHeartbeatRevivesASuspectButNeverTheDead)
{
    svc::WorkerTable fleet({50, 150, 400});
    const auto now = t0();
    const auto id = fleet.registerWorker("w", 1, now);

    fleet.newlyDead(plus(now, 200)); // -> Suspect
    EXPECT_TRUE(fleet.touch(id, plus(now, 250)));
    const auto rows = fleet.snapshot(plus(now, 250),
                                     [](std::uint64_t) { return 0u; });
    EXPECT_EQ(svc::WorkerState::Live, rows[0].state);

    fleet.newlyDead(plus(now, 1000)); // -> Dead
    EXPECT_FALSE(fleet.touch(id, plus(now, 1001)))
        << "dead ids are final; the worker must re-register";
    EXPECT_FALSE(fleet.touch(9999, plus(now, 1001)))
        << "unknown ids are refused";
}

TEST(WorkerTable, FreshIdsAreNeverReused)
{
    svc::WorkerTable fleet({50, 150, 400});
    const auto now = t0();
    const auto a = fleet.registerWorker("w", 1, now);
    fleet.newlyDead(plus(now, 1000)); // a dies
    const auto b = fleet.registerWorker("w", 1, plus(now, 1000));
    EXPECT_NE(a, b);
    EXPECT_EQ(2u, fleet.registeredCount());
    EXPECT_EQ(1u, fleet.liveCount());
}

// ---------------------------------------------------------------------
// Fleet integration (real sockets, real workers)
// ---------------------------------------------------------------------

TEST(Fabric, FleetSweepIsByteIdenticalToLocal)
{
    const svc::SweepRequest request = smallRequest();
    const std::string expected = localBytes(request);

    svc::Coordinator coord(fastCoordinator());
    svc::Worker w1(workerFor(coord.port(), "w1"));
    svc::Worker w2(workerFor(coord.port(), "w2"));

    svc::Client client("127.0.0.1", coord.port());
    const auto [id, cells] = client.submit(request);
    EXPECT_EQ(4u, cells);
    const auto status = client.waitUntilDone(id, 50);
    ASSERT_EQ(svc::JobState::Done, status.state);
    EXPECT_EQ(expected, client.fetchResults(id));

    // Both workers visible in the roster; every cell worker-computed.
    const auto fleet = client.workers();
    EXPECT_EQ(2u, fleet.size());
    w1.stop();
    w2.stop();
    w1.join();
    w2.join();
    EXPECT_EQ(4u, w1.cellsExecuted() + w2.cellsExecuted());

    coord.stop();
    coord.join();
}

TEST(Fabric, MonteCarloFleetSweepIsByteIdenticalToLocal)
{
    // A sampled grid is just more cells: workers re-derive the sampled
    // clocks from the request body alone (counter-based streams), so a
    // fleet-sharded Monte Carlo sweep must be byte-identical to the
    // local serial run.
    // The wire nominal is uniform(overhead_fo4) — skew and jitter
    // decompose to zero — so the variation rides the latch component.
    svc::SweepRequest request = smallRequest();
    request.mcSamples = 2;
    request.mcDist = "normal";
    request.mcSigmaLatch = 0.08;
    request.mcSigmaDie = 0.05;
    request.mcSeed = 42;
    const std::string expected = localBytes(request);

    svc::Coordinator coord(fastCoordinator());
    svc::Worker w1(workerFor(coord.port(), "w1"));
    svc::Worker w2(workerFor(coord.port(), "w2"));

    svc::Client client("127.0.0.1", coord.port());
    const auto [id, cells] = client.submit(request);
    EXPECT_EQ(8u, cells); // 2 dice x 2 depths x 2 benchmarks
    const auto status = client.waitUntilDone(id, 50);
    ASSERT_EQ(svc::JobState::Done, status.state);
    EXPECT_EQ(expected, client.fetchResults(id));

    w1.stop();
    w2.stop();
    w1.join();
    w2.join();
    EXPECT_EQ(8u, w1.cellsExecuted() + w2.cellsExecuted());

    coord.stop();
    coord.join();
}

TEST(Fabric, MonteCarloSweepWithAWorkerKilledMidSweepStaysByteIdentical)
{
    // 8 dice: each class's first die is simulated, the other seven are
    // priced from the worker's memo.  Killing a worker mid-class hands
    // its class to the survivor, whose memo starts empty; the bytes
    // must not notice.
    const svc::SweepRequest request = withDice(chaosRequest(), 8);
    const std::string expected = localBytes(request);

    auto opts = fastCoordinator();
    opts.localFallback = false; // the survivor must finish it all
    svc::Coordinator coord(opts);
    svc::Worker victim(workerFor(coord.port(), "victim"));
    svc::Worker survivor(workerFor(coord.port(), "survivor"));

    svc::Client client("127.0.0.1", coord.port());
    const auto [id, cells] = client.submit(request);
    EXPECT_EQ(64u, cells); // 8 dice x 4 depths x 2 benchmarks
    while (client.poll(id).cellsDone < 1)
        std::this_thread::sleep_for(std::chrono::milliseconds(5));
    victim.kill();
    victim.join();

    const auto status = client.waitUntilDone(id, 50);
    ASSERT_EQ(svc::JobState::Done, status.state);
    EXPECT_EQ(expected, client.fetchResults(id));

    survivor.stop();
    survivor.join();
    EXPECT_GE(survivor.cellsExecuted() + victim.cellsExecuted(), 64u);
    EXPECT_GT(survivor.cellsShared(), 0u)
        << "the survivor priced dice from its memo";
    coord.stop();
    coord.join();
}

TEST(Fabric, WorkerKeepsOnlyThePlanOfTheSweepItServes)
{
    svc::Coordinator coord(fastCoordinator());
    svc::Worker worker(workerFor(coord.port(), "w"));
    svc::Client client("127.0.0.1", coord.port());
    for (const double t : {8.0, 6.0, 4.6}) {
        svc::SweepRequest request = smallRequest();
        request.tUseful = {t};
        const auto [id, cells] = client.submit(request);
        (void)cells;
        ASSERT_EQ(svc::JobState::Done, client.waitUntilDone(id, 20).state);
        EXPECT_EQ(localBytes(request), client.fetchResults(id));
    }
    worker.stop();
    worker.join();
    EXPECT_EQ(6u, worker.cellsExecuted());
    EXPECT_EQ(1u, worker.plansHeld())
        << "three sweeps served, one plan held";
    coord.stop();
    coord.join();
}

TEST(Fabric, ZeroWorkerFleetCompletesViaLocalFallback)
{
    const svc::SweepRequest request = smallRequest();
    const std::string expected = localBytes(request);

    auto opts = fastCoordinator();
    opts.fallbackGraceMs = 100; // no worker is coming; don't dawdle
    svc::Coordinator coord(opts);

    svc::Client client("127.0.0.1", coord.port());
    const auto [id, cells] = client.submit(request);
    (void)cells;
    const auto status = client.waitUntilDone(id, 50);
    ASSERT_EQ(svc::JobState::Done, status.state);
    EXPECT_EQ(expected, client.fetchResults(id));
    EXPECT_TRUE(client.workers().empty());

    coord.stop();
    coord.join();
}

TEST(Fabric, FailingJournalDiskCostsDurabilityNotTheSweep)
{
    // Every append to the coordinator's checkpoint journal fails, as on
    // a full disk.  The coordinator must give the journal up the way a
    // local sweep does (warn, drop it, count the error) and still serve
    // the fleet's bytes — never take the session thread down.
    const bool wasEnabled = util::setMetricsEnabled(true);
    const svc::SweepRequest request = smallRequest();
    const std::string expected = localBytes(request);
    const tests::ScratchDir scratch("fabric_failing_journal");
    const std::string &dir = scratch.path();
    // The header lands via <journal>.tmp, so only the appends fail.
    util::setDiskFaultHook(
        [](const std::string &path) -> std::optional<util::DiskFault> {
            const std::string suffix = ".journal";
            if (path.size() > suffix.size() &&
                path.compare(path.size() - suffix.size(), suffix.size(),
                             suffix) == 0)
                return util::DiskFault{};
            return std::nullopt;
        });
    const std::uint64_t errs0 = util::MetricsRegistry::global().value(
        "study.journal.append_errors");

    auto opts = fastCoordinator();
    opts.checkpointDir = dir;
    opts.localFallback = false; // every cell merges through the fleet
    svc::Coordinator coord(opts);
    svc::Worker worker(workerFor(coord.port(), "w1"));

    svc::Client client("127.0.0.1", coord.port());
    const auto [id, cells] = client.submit(request);
    (void)cells;
    const auto status = client.waitUntilDone(id, 50);
    EXPECT_EQ(svc::JobState::Done, status.state);
    EXPECT_EQ(expected, client.fetchResults(id));
    const auto stats = client.stats();
    EXPECT_EQ(1u, stats.completed);
    EXPECT_GE(util::MetricsRegistry::global().value(
                  "study.journal.append_errors") -
                  errs0,
              1u);

    worker.stop();
    worker.join();
    EXPECT_GE(worker.cellsExecuted(), 4u);
    coord.stop();
    coord.join();
    util::setDiskFaultHook(nullptr);
    util::setMetricsEnabled(wasEnabled);
}

TEST(Fabric, RedispatchAfterWorkerDeathWithASurvivor)
{
    const svc::SweepRequest request = chaosRequest();
    const std::string expected = localBytes(request);

    auto opts = fastCoordinator();
    opts.localFallback = false; // force the survivor to finish it all
    svc::Coordinator coord(opts);

    svc::Worker victim(workerFor(coord.port(), "victim"));
    svc::Worker survivor(workerFor(coord.port(), "survivor"));

    svc::Client client("127.0.0.1", coord.port());
    const auto [id, cells] = client.submit(request);
    (void)cells;

    // Let the fleet make progress, then SIGKILL the victim: its
    // in-flight cell dies unreported and must be re-dispatched.
    while (client.poll(id).cellsDone < 1)
        std::this_thread::sleep_for(std::chrono::milliseconds(20));
    victim.kill();
    victim.join();

    const auto status = client.waitUntilDone(id, 50);
    ASSERT_EQ(svc::JobState::Done, status.state);
    EXPECT_EQ(expected, client.fetchResults(id));

    // The roster must show the death — possibly a detector tick after
    // the survivor finished (the idle tick keeps judging the fleet).
    bool sawDead = false;
    for (int i = 0; i < 200 && !sawDead; ++i) {
        for (const auto &row : client.workers())
            sawDead |= row.state == svc::WorkerState::Dead;
        if (!sawDead)
            std::this_thread::sleep_for(std::chrono::milliseconds(25));
    }
    EXPECT_TRUE(sawDead);

    survivor.stop();
    survivor.join();
    EXPECT_GE(survivor.cellsExecuted() + victim.cellsExecuted(), 8u)
        << "re-dispatch means the fleet ran at least every cell";
    coord.stop();
    coord.join();
}

/**
 * The acceptance test: worker A SIGKILLed mid-sweep, worker B frozen
 * behind a black-holed proxy (connection open, no bytes moving — the
 * failure detector's hardest case), every orphaned cell re-dispatched,
 * the remainder finished locally — and the result bytes still equal an
 * uninterrupted local run exactly.
 */
TEST(Fabric, ChaosWorkersDieAndFreezeResultStaysByteIdentical)
{
    const svc::SweepRequest request = chaosRequest();
    const std::string expected = localBytes(request);

    svc::Coordinator coord(fastCoordinator());

    // Worker B dials through the chaos proxy; worker A is direct.
    // Short I/O deadline so the frozen B cycles its reconnect loop
    // instead of wedging inside one RPC for the whole test.
    tests::ChaosProxy proxy(coord.port());
    svc::Worker workerA(workerFor(coord.port(), "doomed"));
    svc::Worker workerB(workerFor(proxy.port(), "frozen", 500));

    svc::Client client("127.0.0.1", coord.port());
    const auto [id, cells] = client.submit(request);
    (void)cells;

    // Wait until both workers have registered and real progress exists,
    // so the chaos lands mid-sweep, not before it.
    while (client.poll(id).cellsDone < 2)
        std::this_thread::sleep_for(std::chrono::milliseconds(20));

    proxy.blackHole(); // B freezes: alive-looking socket, no bytes
    workerA.kill();    // A dies: leased cell evaporates unreported
    workerA.join();

    // The coordinator must now: declare A and B dead (silence), reclaim
    // their leases, see zero live workers, and fall back to finishing
    // the remainder locally.  No help is coming.
    const auto status = client.waitUntilDone(id, 50);
    ASSERT_EQ(svc::JobState::Done, status.state);
    EXPECT_EQ(expected, client.fetchResults(id))
        << "chaos must never change result bytes";

    bool sawDead = false;
    for (const auto &row : client.workers())
        sawDead |= row.state == svc::WorkerState::Dead;
    EXPECT_TRUE(sawDead);

    workerB.stop();
    workerB.join();
    proxy.stop();
    coord.stop();
    coord.join();
}

TEST(Fabric, WorkerDeclaredDeadReregistersUnderFreshId)
{
    auto opts = fastCoordinator();
    svc::Coordinator coord(opts);
    svc::Worker worker(workerFor(coord.port(), "lazarus", 300));
    svc::Client client("127.0.0.1", coord.port());

    // Wait for first registration.
    while (client.workers().empty())
        std::this_thread::sleep_for(std::chrono::milliseconds(10));
    const auto firstId = client.workers()[0].id;

    // Freeze the worker's world long enough to be declared dead —
    // cheaply simulated by just waiting: the worker only heartbeats
    // every 50ms, so instead we can't starve it that way.  Submit no
    // work and wait past deadAfterMs with the worker stopped.
    worker.stop();
    worker.join();
    std::this_thread::sleep_for(std::chrono::milliseconds(600));

    // A new worker process re-registers; the old id stays Dead.
    svc::Worker reborn(workerFor(coord.port(), "lazarus", 300));
    bool sawFreshLive = false;
    for (int i = 0; i < 100 && !sawFreshLive; ++i) {
        for (const auto &row : client.workers()) {
            sawFreshLive |= row.id != firstId &&
                            row.state == svc::WorkerState::Live;
        }
        std::this_thread::sleep_for(std::chrono::milliseconds(10));
    }
    EXPECT_TRUE(sawFreshLive);

    reborn.stop();
    reborn.join();
    coord.stop();
    coord.join();
}

/**
 * The path the test above cannot reach: a worker that is alive but
 * silent long enough to be declared dead.  Frozen behind a black-holed
 * proxy for longer than deadAfterMs but shorter than its I/O deadline,
 * it keeps both connections; once bytes move again its next request is
 * answered NotFound, and it registers again under a fresh id over the
 * same connection.
 */
TEST(Fabric, FrozenWorkerDeclaredDeadReregistersOverItsConnection)
{
    const svc::SweepRequest request = smallRequest();
    const std::string expected = localBytes(request);

    svc::Coordinator coord(fastCoordinator());
    tests::ChaosProxy proxy(coord.port());
    svc::Worker worker(workerFor(proxy.port(), "lazarus", 10000));
    svc::Client client("127.0.0.1", coord.port());

    // Registered, and both loops connected through the proxy.
    while (worker.workerId() == 0 || proxy.accepted() < 2)
        std::this_thread::sleep_for(std::chrono::milliseconds(10));
    const std::uint64_t firstId = worker.workerId();

    const auto rowOf = [&](std::uint64_t id) {
        std::optional<svc::WorkerSnapshot> found;
        for (const auto &row : client.workers()) {
            if (row.id == id)
                found = row;
        }
        return found;
    };

    proxy.blackHole();
    const auto deadline =
        std::chrono::steady_clock::now() + std::chrono::seconds(5);
    std::optional<svc::WorkerSnapshot> old;
    while ((!(old = rowOf(firstId)) ||
            old->state != svc::WorkerState::Dead) &&
           std::chrono::steady_clock::now() < deadline)
        std::this_thread::sleep_for(std::chrono::milliseconds(20));
    ASSERT_TRUE(old.has_value());
    ASSERT_EQ(svc::WorkerState::Dead, old->state)
        << "a silent worker must be declared dead";
    proxy.setMode(tests::ChaosProxy::Mode::Forward);

    std::optional<svc::WorkerSnapshot> fresh;
    for (int i = 0; i < 500 && !fresh; ++i) {
        if (worker.workerId() != firstId)
            fresh = rowOf(worker.workerId());
        if (!fresh)
            std::this_thread::sleep_for(std::chrono::milliseconds(10));
    }
    ASSERT_TRUE(fresh.has_value()) << "the worker never re-registered";
    EXPECT_EQ(svc::WorkerState::Live, fresh->state);
    EXPECT_EQ("lazarus", fresh->name);
    old = rowOf(firstId);
    ASSERT_TRUE(old.has_value());
    EXPECT_EQ(svc::WorkerState::Dead, old->state) << "a dead id stays dead";
    EXPECT_EQ(2u, proxy.accepted())
        << "re-registration must ride the work loop's connection, not "
           "a reconnect";

    const auto [id, cells] = client.submit(request);
    EXPECT_EQ(4u, cells);
    ASSERT_EQ(svc::JobState::Done, client.waitUntilDone(id, 50).state);
    EXPECT_EQ(expected, client.fetchResults(id));

    worker.stop();
    worker.join();
    proxy.stop();
    coord.stop();
    coord.join();
}

// ---------------------------------------------------------------------
// Client resilience
// ---------------------------------------------------------------------

TEST(ClientReconnect, PollSurvivesDaemonRestartOnSamePort)
{
    std::uint16_t port = 0;
    auto server = std::make_unique<svc::Server>(svc::ServerOptions{});
    port = server->port();

    svc::Client::Options copts;
    copts.ioTimeoutMs = 2000;
    copts.connectTimeoutMs = 2000;
    copts.retry.maxAttempts = 20;
    copts.retry.baseDelayMs = 50.0;
    copts.retry.maxDelayMs = 200.0;
    svc::Client client("127.0.0.1", port, copts);
    EXPECT_EQ(0u, client.stats().runningJobs);

    // Restart the daemon on the same port: the client's next call hits
    // a dead connection, reconnects with backoff, and completes.
    server->stop();
    server->join();
    server.reset();
    svc::ServerOptions sopts;
    sopts.port = port;
    server = std::make_unique<svc::Server>(std::move(sopts));

    EXPECT_EQ(0u, client.stats().runningJobs)
        << "the restart must cost a reconnect, not the call";

    // Polling a job the fresh daemon never saw is NotFound — a remote
    // verdict, proving the conversation reached the new daemon.
    EXPECT_THROW(
        {
            try {
                client.poll(12345);
            } catch (const SvcError &e) {
                EXPECT_EQ(ErrorCode::NotFound, e.code());
                throw;
            }
        },
        SvcError);

    server->stop();
    server->join();
}

TEST(ClientReconnect, DisabledReconnectFailsFastOnRestart)
{
    auto server = std::make_unique<svc::Server>(svc::ServerOptions{});
    const std::uint16_t port = server->port();

    svc::Client::Options copts;
    copts.reconnect = false;
    svc::Client client("127.0.0.1", port, copts);
    EXPECT_EQ(0u, client.stats().runningJobs);

    server->stop();
    server->join();
    server.reset();

    EXPECT_THROW(
        {
            try {
                client.stats();
            } catch (const SvcError &e) {
                EXPECT_EQ(ErrorCode::NetIo, e.code());
                throw;
            }
        },
        SvcError);
}

TEST(ClientOptions, NonPositiveTimeoutsAreRefused)
{
    svc::Client::Options zero;
    zero.ioTimeoutMs = 0;
    EXPECT_THROW(svc::Client("127.0.0.1", 1, zero), util::ConfigError);

    svc::Client::Options negative;
    negative.connectTimeoutMs = -5;
    EXPECT_THROW(svc::Client("127.0.0.1", 1, negative),
                 util::ConfigError);
}

TEST(Coordinator, AnswersTheSameClientProtocolAsAPlainDaemon)
{
    svc::Coordinator coord(fastCoordinator());
    svc::Client client("127.0.0.1", coord.port());

    // Unknown job id: NotFound, exactly like fo4d.
    EXPECT_THROW(
        {
            try {
                client.poll(42);
            } catch (const SvcError &e) {
                EXPECT_EQ(ErrorCode::NotFound, e.code());
                throw;
            }
        },
        SvcError);

    // Stats serves the coordinator's gauges over the same record.
    const auto stats = client.stats();
    EXPECT_EQ(0u, stats.queueDepth);

    coord.stop();
    coord.join();
}

TEST(Coordinator, UnknownWorkerIdsAreNotFoundAndTheSessionGoesOn)
{
    svc::Coordinator coord(fastCoordinator());
    // Reconnect off: if a NotFound cost the session, the last call on
    // this connection would fail with NetIo.
    svc::Client::Options copts;
    copts.reconnect = false;
    svc::Client client("127.0.0.1", coord.port(), copts);
    const std::uint64_t stranger = 4242;

    const auto expectNotFound = [](const auto &call) {
        try {
            call();
            ADD_FAILURE() << "expected NotFound";
        } catch (const SvcError &e) {
            EXPECT_EQ(ErrorCode::NotFound, e.code()) << e.what();
        }
    };
    std::uint64_t retryMs = 0;
    expectNotFound([&] { client.requestLease(stranger, retryMs); });
    svc::CellDoneInfo done;
    done.workerId = stranger;
    done.sweep = 1;
    done.cellPayload = study::encodeCellRecord({0, 0, {}});
    expectNotFound([&] { client.cellDone(done); });
    EXPECT_FALSE(client.heartbeat(stranger));

    EXPECT_TRUE(client.workers().empty());

    coord.stop();
    coord.join();
}
