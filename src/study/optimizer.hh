/**
 * @file
 * Structure-capacity optimization (paper Section 4.5 / Figure 7): at each
 * clock, choose the capacity (and therefore latency) of the DL1, L2 and
 * issue window that maximizes suite performance, following the paper's
 * per-structure sensitivity approach: optimize each structure greedily
 * while holding the others at the incumbent configuration.
 */

#ifndef FO4_STUDY_OPTIMIZER_HH
#define FO4_STUDY_OPTIMIZER_HH

#include <vector>

#include "study/runner.hh"
#include "study/scaling.hh"

namespace fo4::study
{

/** Candidate capacities for the optimizer's search. */
struct OptimizerSearchSpace
{
    std::vector<std::uint64_t> dl1Bytes{8 << 10, 16 << 10, 32 << 10,
                                        64 << 10, 128 << 10};
    std::vector<std::uint64_t> l2Bytes{256 << 10, 512 << 10, 1 << 20,
                                       2 << 20};
    std::vector<int> windowEntries{16, 32, 64};
};

/** Outcome of the optimization at one clock. */
struct OptimizedConfig
{
    ScalingOptions options;   ///< chosen capacities
    SuiteResult result;       ///< performance at the chosen configuration
    double harmonicBipsAll = 0.0;
};

/**
 * Greedy per-structure search at the given clock.  Each structure's
 * capacity is selected by rerunning the suite over its candidate values
 * (others held fixed), verifying the incumbent against neighbours,
 * exactly as the paper describes its "best configuration" validation.
 *
 * Each structure's pass runs its candidates as one grid on
 * study::CheckpointedRunner, fanned across `threads` workers (1 =
 * serial).  Grid results are thread-count invariant and the pass keeps
 * the first strictly better candidate in search order, so the chosen
 * configuration is identical at any thread count.
 */
OptimizedConfig optimizeStructures(double tUseful,
                                   const tech::ClockModel &clock,
                                   const std::vector<trace::BenchmarkProfile>
                                       &profiles,
                                   const RunSpec &spec,
                                   const OptimizerSearchSpace &space =
                                       OptimizerSearchSpace{},
                                   int threads = 1);

} // namespace fo4::study

#endif // FO4_STUDY_OPTIMIZER_HH
