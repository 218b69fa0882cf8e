/**
 * @file
 * Custom-workload example: define your own statistical workload profile,
 * generate its instruction stream, and find its personal optimal
 * pipeline depth.  Shows the full profile surface of the API.
 *
 *   ./custom_workload [ilp=8] [mispredictable=0.5] [ws_kb=512]
 */

#include <cstdio>
#include <iostream>

#include "study/run_keys.hh"
#include "study/runner.hh"
#include "study/scaling.hh"
#include "trace/generator.hh"
#include "util/config.hh"
#include "util/status.hh"
#include "util/table.hh"

namespace
{

const std::vector<fo4::util::KeyDoc> kKeys = fo4::study::runKeys(
    {"instructions"},
    {{"ilp", "mean dependence distance of the synthetic workload"},
     {"mispredictable", "fraction of branches that mispredict"},
     {"ws_kb", "working-set size in KB"}});
const fo4::study::RunSpec kDefaults{.instructions = 60000,
                                    .prewarm = 400000};

int
customWorkload(int argc, char **argv)
{
    using namespace fo4;
    const study::RunArgs args(argc, argv, kKeys);
    const util::Config &cfg = args.config();

    // Build a profile from three intuitive knobs.
    const double ilp = cfg.getDouble("ilp", 8.0);
    const double predictable = 1.0 - cfg.getDouble("mispredictable", 0.5);
    const auto wsKb = static_cast<std::uint64_t>(
        cfg.getIntIn("ws_kb", 512, 0, INT64_MAX >> 10));

    trace::BenchmarkProfile prof;
    prof.name = "custom";
    prof.cls = trace::BenchClass::Integer;
    prof.meanDepDistance = ilp;
    prof.minDepDistance = std::max(1.0, ilp / 2.0);
    prof.biasedBranchFraction = 0.8 * predictable;
    prof.patternBranchFraction = 0.2 * predictable;
    prof.correlatedBranchFraction = 0.0;
    prof.workingSetBytes = wsKb << 10;
    prof.seed = 1234;
    prof.validateOrThrow();

    std::printf("custom profile: mean dependence distance %.1f, %.0f%% "
                "predictable branch sites, %llu KB working set\n\n",
                prof.meanDepDistance, 100 * predictable,
                static_cast<unsigned long long>(wsKb));

    // Peek at the stream itself.
    trace::SyntheticTraceGenerator gen(prof);
    std::printf("first instructions of the stream:\n");
    for (int i = 0; i < 8; ++i)
        std::printf("  %s\n", gen.next().toString().c_str());

    // Find its optimal pipeline depth.
    const auto spec = args.spec(kDefaults, 8); // warmup = instructions / 8

    std::printf("\nsweeping pipeline depth:\n");
    util::TextTable t;
    t.setHeader({"t_useful", "IPC", "BIPS"});
    double bestT = 0, best = 0;
    for (double u = 2; u <= 16; u += 1) {
        const auto clock = study::scaledClock(u);
        const auto r = runBenchmark(study::scaledCoreParams(u, {}), clock,
                                    prof, spec);
        if (r.bips > best) {
            best = r.bips;
            bestT = u;
        }
        t.addRow({util::TextTable::num(u, 0),
                  util::TextTable::num(r.sim.ipc(), 3),
                  util::TextTable::num(r.bips, 3)});
    }
    t.print(std::cout);
    std::printf("\nthis workload's optimal logic depth: %.0f FO4 per "
                "stage\n",
                bestT);
    std::printf("(more ILP or more predictable branches move the optimum "
                "deeper; the opposite moves it shallower)\n");
    return 0;
}

} // namespace

int
main(int argc, char **argv)
{
    return fo4::util::runTopLevel(
        argc, argv, kKeys, [&] { return customWorkload(argc, argv); });
}
