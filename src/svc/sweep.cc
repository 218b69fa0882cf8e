#include "svc/sweep.hh"

#include "study/montecarlo.hh"
#include "trace/spec2000.hh"
#include "util/logging.hh"

namespace fo4::svc
{

SweepPlan
planSweep(const SweepRequest &request)
{
    SweepPlan plan;
    plan.tUseful = request.tUseful;

    if (request.tUseful.empty())
        throw util::ConfigError("sweep request has an empty t_useful axis");
    if (request.jobs.empty())
        throw util::ConfigError("sweep request has no jobs");

    plan.spec.model = study::coreModelFromName(request.model);
    plan.spec.predictor = request.predictor;
    plan.spec.instructions = request.instructions;
    plan.spec.warmup = request.warmup;
    plan.spec.prewarm = request.prewarm;
    plan.spec.cycleLimit = request.cycleLimit;

    study::SweepOptions sweep; // paper Section 3 scaling
    sweep.overhead = tech::OverheadModel::uniform(request.overheadFo4);
    plan.points = study::scalingGrid(request.tUseful, sweep);

    // Monte Carlo requests expand the planned grid sample-major: die s
    // of base point p lands at slot s*nBase+p (study::expandMonteCarloGrid).
    // Every sampled clock is derived here, from the request alone, so a
    // fleet worker plans bit-identically the grid the coordinator did —
    // same points, same fingerprint — and the whole fabric / checkpoint
    // machinery applies to sampled cells unchanged.
    if (request.mcSamples > 0) {
        study::VariationModel variation;
        variation.dist = study::mcDistFromName(request.mcDist);
        variation.sigmaLatch = request.mcSigmaLatch;
        variation.sigmaSkew = request.mcSigmaSkew;
        variation.sigmaJitter = request.mcSigmaJitter;
        variation.sigmaDie = request.mcSigmaDie;
        variation.seed = request.mcSeed;
        variation.samples = static_cast<int>(request.mcSamples);
        if (request.mcSamples > 100000) {
            throw util::ConfigError(util::strprintf(
                "mc_samples %llu is beyond the service bound of 100000",
                static_cast<unsigned long long>(request.mcSamples)));
        }
        plan.points = study::expandMonteCarloGrid(plan.points, variation);
        std::vector<double> expandedUseful;
        expandedUseful.reserve(plan.points.size());
        for (std::uint64_t s = 0; s < request.mcSamples; ++s) {
            for (const double t : request.tUseful)
                expandedUseful.push_back(t);
        }
        plan.tUseful = std::move(expandedUseful);
    }

    for (const auto &wire : request.jobs) {
        study::BenchJob job;
        if (wire.fromTrace) {
            job = study::BenchJob::fromTraceFile(wire.name, wire.cls,
                                                 wire.tracePath);
        } else {
            // Throws ConfigError on an unknown profile name — the
            // submit-time rejection the file comment promises.
            job = study::BenchJob::fromProfile(
                trace::spec2000Profile(wire.name));
        }
        if (wire.cycleLimit != 0)
            job.cycleLimit = wire.cycleLimit;
        plan.jobs.push_back(std::move(job));
    }

    // The runner would reject these too, but only once the request is
    // dequeued; validating every point here keeps rejection synchronous.
    for (const auto &point : plan.points)
        study::validateSuiteInputs(point.params, point.clock, plan.jobs,
                                   plan.spec);
    return plan;
}

std::uint64_t
planFingerprint(const SweepPlan &plan)
{
    return study::gridFingerprint(plan.points, plan.jobs, plan.spec);
}

std::string
runSweep(const SweepPlan &plan, int threads,
         const std::string &journalPath, const util::CancelToken *cancel,
         std::function<void(std::size_t, std::size_t, int)> onAttempt,
         bool *anyFailed)
{
    study::CheckpointOptions options;
    options.journalPath = journalPath;
    options.threads = threads;
    options.cancel = cancel;
    options.onAttempt = std::move(onAttempt);
    return runSweep(plan, std::move(options), anyFailed);
}

std::string
runSweep(const SweepPlan &plan, study::CheckpointOptions options,
         bool *anyFailed)
{
    study::CheckpointedRunner runner(std::move(options));
    const std::vector<study::SuiteResult> suites =
        runner.runGrid(plan.points, plan.jobs, plan.spec);
    if (anyFailed) {
        *anyFailed = false;
        for (const auto &suite : suites) {
            for (const auto &bench : suite.benchmarks) {
                if (bench.failed())
                    *anyFailed = true;
            }
        }
    }
    return renderResults(plan, suites);
}

std::string
renderResults(const SweepPlan &plan,
              const std::vector<study::SuiteResult> &suites)
{
    FO4_ASSERT(suites.size() == plan.points.size(),
               "render: %zu suites for %zu points", suites.size(),
               plan.points.size());
    std::string out = "fo4-sweep-results v1\n";
    out += util::strprintf("points=%zu jobs=%zu\n", plan.points.size(),
                           plan.jobs.size());
    for (std::size_t i = 0; i < suites.size(); ++i) {
        const tech::ClockModel &clock = plan.points[i].clock;
        out += util::strprintf("point=%zu t_useful=%a period_fo4=%a "
                               "ghz=%a\n",
                               i, plan.tUseful[i], clock.periodFo4(),
                               clock.frequencyGhz());
        out += study::serializeSuite(suites[i]);
    }
    return out;
}

} // namespace fo4::svc
