/**
 * @file
 * Segmented-window demo: compare the monolithic single-cycle issue
 * window against the paper's segmented designs at a deep clock, showing
 * why Section 5 matters — at 6 FO4 a monolithic 32-entry window needs a
 * 3-cycle wakeup loop, while the segmented window keeps a 1-cycle loop
 * per stage and recovers most of the lost IPC.
 *
 *   ./segmented_window_demo [t_useful=6] [instructions=80000]
 */

#include <cstdio>
#include <iostream>

#include "core/core.hh"
#include "study/run_keys.hh"
#include "study/runner.hh"
#include "study/scaling.hh"
#include "trace/generator.hh"
#include "trace/spec2000.hh"
#include "util/config.hh"
#include "util/means.hh"
#include "util/status.hh"
#include "util/table.hh"

namespace
{

const std::vector<fo4::util::KeyDoc> kKeys =
    fo4::study::runKeys({"t_useful", "instructions"});
const fo4::study::RunSpec kDefaults{.instructions = 80000,
                                    .prewarm = 400000};

int
windowDemo(int argc, char **argv)
{
    using namespace fo4;
    const study::RunArgs args(argc, argv, kKeys);
    const double tUseful = args.number("t_useful", 6.0);
    const auto spec = args.spec(kDefaults, 8); // warmup = instructions / 8

    const auto profiles =
        trace::spec2000Profiles(trace::BenchClass::Integer);
    const auto clock = study::scaledClock(tUseful);

    auto evaluate = [&](const study::ScalingOptions &opt) {
        const auto params = study::scaledCoreParams(tUseful, opt);
        std::vector<double> bips;
        for (const auto &prof : profiles) {
            trace::SyntheticTraceGenerator gen(prof);
            auto core = core::makeOooCore(params, "tournament");
            const auto r =
                core->run(gen, spec.instructions, spec.warmup, spec.prewarm);
            bips.push_back(clock.bips(r.ipc()));
        }
        return std::pair<double, int>(util::harmonicMean(bips),
                                      params.issueLatency);
    };

    std::printf("integer SPEC-like suite at %.0f FO4 useful logic "
                "(%.2f GHz at 100nm)\n\n",
                tUseful, clock.frequencyGhz());

    util::TextTable t;
    t.setHeader({"issue window design", "wakeup loop", "hmean BIPS",
                 "vs monolithic"});

    study::ScalingOptions mono;
    const auto [monoBips, monoLoop] = evaluate(mono);
    t.addRow({"monolithic (latency from Table 3)",
              util::TextTable::num(std::int64_t{monoLoop}) + " cycles",
              util::TextTable::num(monoBips, 3), "1.000"});

    for (const int stages : {2, 4, 8}) {
        study::ScalingOptions seg;
        seg.window.wakeupStages = stages;
        const auto [bips, loop] = evaluate(seg);
        t.addRow({"segmented, " + std::to_string(stages) + " stages",
                  util::TextTable::num(std::int64_t{loop}) + " cycle/stage",
                  util::TextTable::num(bips, 3),
                  util::TextTable::num(bips / monoBips, 3)});
    }

    study::ScalingOptions part;
    part.window.wakeupStages = 4;
    part.window.select = core::SelectModel::Partitioned;
    const auto [partBips, partLoop] = evaluate(part);
    (void)partLoop;
    t.addRow({"segmented 4 stages + partitioned select (Fig 12)",
              "1 cycle/stage", util::TextTable::num(partBips, 3),
              util::TextTable::num(partBips / monoBips, 3)});

    t.print(std::cout);
    std::printf("\nthe segmented designs keep dependent issue back to "
                "back, which a multi-cycle monolithic window cannot\n");
    return 0;
}

} // namespace

int
main(int argc, char **argv)
{
    return fo4::util::runTopLevel(argc, argv, kKeys,
                                  [&] { return windowDemo(argc, argv); });
}
