/**
 * @file
 * Quickstart: simulate one SPEC 2000-like benchmark on the Alpha
 * 21264-style out-of-order core, then on the same machine scaled to the
 * paper's optimal 6 FO4 clock, and compare.
 *
 *   ./quickstart [bench=164.gzip] [instructions=100000]
 */

#include <cstdio>

#include "core/core.hh"
#include "study/run_keys.hh"
#include "study/runner.hh"
#include "study/scaling.hh"
#include "trace/generator.hh"
#include "trace/spec2000.hh"
#include "util/config.hh"
#include "util/status.hh"

namespace
{

const std::vector<fo4::util::KeyDoc> kKeys =
    fo4::study::runKeys({"bench", "instructions"});
const fo4::study::RunSpec kDefaults{.instructions = 100000,
                                    .prewarm = 500000};

int
quickstart(int argc, char **argv)
{
    using namespace fo4;
    const study::RunArgs args(argc, argv, kKeys);
    const auto prof = args.profile("164.gzip");
    const auto spec = args.spec(kDefaults, 10); // warmup = instructions / 10

    std::printf("benchmark: %s (%s)\n", prof.name.c_str(),
                trace::benchClassName(prof.cls));

    // 1. The native Alpha 21264 machine (17.4 FO4 clock at 180nm).
    {
        trace::SyntheticTraceGenerator gen(prof);
        auto core = core::makeOooCore(core::CoreParams::alpha21264(),
                                      "tournament");
        const auto r =
            core->run(gen, spec.instructions, spec.warmup, spec.prewarm);
        std::printf("\nAlpha 21264 baseline:\n");
        std::printf("  IPC %.3f, mispredict rate %.1f%%, DL1 miss rate "
                    "%.1f%%\n",
                    r.ipc(), 100 * r.mispredictRate(),
                    100 * r.dl1MissRate());
    }

    // 2. The same microarchitecture scaled to 6 FO4 of useful logic per
    //    stage at 100nm — the paper's optimal integer clock.
    {
        const double tUseful = 6.0;
        const auto params = study::scaledCoreParams(tUseful, {});
        const auto clock = study::scaledClock(tUseful);
        trace::SyntheticTraceGenerator gen(prof);
        auto core = core::makeOooCore(params, "tournament");
        const auto r =
            core->run(gen, spec.instructions, spec.warmup, spec.prewarm);
        std::printf("\nscaled to %.0f FO4 useful logic (period %.1f FO4, "
                    "%.2f GHz at 100nm):\n",
                    tUseful, clock.periodFo4(), clock.frequencyGhz());
        std::printf("  IPC %.3f  ->  %.3f BIPS\n", r.ipc(),
                    clock.bips(r.ipc()));
        std::printf("  pipeline: fetch %d, decode %d, rename %d, issue "
                    "window %d-cycle, regread %d; DL1 %d cycles\n",
                    params.fetchStages, params.decodeStages,
                    params.renameStages, params.issueLatency,
                    params.regReadStages, params.memLatencies.dl1);
    }
    return 0;
}

} // namespace

int
main(int argc, char **argv)
{
    return fo4::util::runTopLevel(argc, argv, kKeys,
                                  [&] { return quickstart(argc, argv); });
}
