#include "study/optimizer.hh"

#include "study/checkpoint.hh"
#include "util/logging.hh"

namespace fo4::study
{

OptimizedConfig
optimizeStructures(double tUseful, const tech::ClockModel &clock,
                   const std::vector<trace::BenchmarkProfile> &profiles,
                   const RunSpec &spec, const OptimizerSearchSpace &space,
                   int threads)
{
    FO4_ASSERT(!space.dl1Bytes.empty() && !space.l2Bytes.empty() &&
                   !space.windowEntries.empty(),
               "empty search space");

    CheckpointOptions options;
    options.threads = threads;
    CheckpointedRunner runner(std::move(options));
    const std::vector<BenchJob> jobs = jobsFromProfiles(profiles);
    const auto evaluate = [&](const std::vector<ScalingOptions> &configs) {
        std::vector<GridPoint> points;
        for (const ScalingOptions &config : configs)
            points.push_back({scaledCoreParams(tUseful, config), clock});
        return runner.runGrid(points, jobs, spec);
    };

    OptimizedConfig best;
    best.result = std::move(evaluate({best.options}).front());
    best.harmonicBipsAll = best.result.harmonicBipsAll();

    // One greedy pass per structure.  Each candidate is the pass-start
    // incumbent with `field` replaced, so a pass is one grid; walking it
    // in candidate order with a strict > keeps the first winner, exactly
    // as evaluating the candidates one by one would.
    const auto pass = [&](const auto &values, auto field) {
        std::vector<ScalingOptions> candidates;
        for (const auto value : values) {
            candidates.push_back(best.options);
            candidates.back().*field = value;
        }
        std::vector<SuiteResult> suites = evaluate(candidates);
        for (std::size_t i = 0; i < candidates.size(); ++i) {
            const double bips = suites[i].harmonicBipsAll();
            if (bips > best.harmonicBipsAll) {
                best.options = candidates[i];
                best.result = std::move(suites[i]);
                best.harmonicBipsAll = bips;
            }
        }
    };
    pass(space.dl1Bytes, &ScalingOptions::dl1Bytes);
    pass(space.l2Bytes, &ScalingOptions::l2Bytes);
    pass(space.windowEntries, &ScalingOptions::windowEntries);
    return best;
}

} // namespace fo4::study
