/**
 * @file
 * Extension X2 — ablation of the model decisions DESIGN.md calls out,
 * at the paper's 6 FO4 integer operating point:
 *
 *  1. wakeup/bypass overlap: dependent spacing max(lat, loop) versus a
 *     naive additive model (lat + loop - 1);
 *  2. the L1<->L2 fill-bus contention model on and off;
 *  3. functional cache/predictor prewarming on and off;
 *  4. branch predictor choice.
 *
 * Each row shows integer-suite harmonic IPC at t_useful = 6 FO4 so the
 * contribution of every mechanism is visible in isolation.
 */

#include <algorithm>
#include <cmath>

#include "bench/common.hh"
#include "core/core.hh"
#include "study/runner.hh"
#include "study/scaling.hh"
#include "trace/spec2000.hh"
#include "util/table.hh"

using namespace fo4;

using bench::harmonicIpc;

const std::vector<util::KeyDoc> kKeys =
    study::runKeys({"instructions", "warmup", "prewarm", "sim_impl"});
const study::RunSpec kDefaults{.instructions = 60000,
                               .warmup = 8000,
                               .prewarm = 400000,
                               .impl = study::SimImpl::Batched};

int
ablation(int argc, char **argv)
{
    bench::banner(
        "X2 / model ablations",
        "contribution of each modelling decision at the 6 FO4 integer "
        "operating point (not a paper artifact; engineering evidence "
        "for DESIGN.md's choices)");

    auto spec = study::RunArgs(argc, argv, kKeys).spec(kDefaults);
    const auto profiles =
        trace::spec2000Profiles(trace::BenchClass::Integer);
    const auto base = study::scaledCoreParams(6.0, {});
    const double baseIpc = harmonicIpc(base, spec, profiles);

    util::TextTable t;
    t.setHeader({"variant", "hmean IPC", "vs baseline"});
    t.addRow({"baseline (paper model)", util::TextTable::num(baseIpc, 3),
              "1.000"});

    {
        // A single-cycle wakeup loop at this clock.  Matching the
        // baseline is itself a result: at 6 FO4 the monolithic window's
        // 3-cycle loop hides entirely under the 3-cycle ALU latency
        // (tag broadcast overlaps execution), so Section 5's design
        // removes a circuit-level risk rather than average-case cycles.
        auto p = base;
        p.issueLatency = 1;
        const double ipc = harmonicIpc(p, spec, profiles);
        t.addRow({"ideal 1-cycle issue window",
                  util::TextTable::num(ipc, 3),
                  util::TextTable::num(ipc / baseIpc, 3)});
    }
    // How far each row moves IPC from the baseline, as a fraction.
    const auto moved = [&](double ipc) {
        return std::abs(ipc / baseIpc - 1.0);
    };
    double windowMoved = 0.0;
    for (const int cap : {16, 64, 128}) {
        auto p = base;
        p.window.capacity = cap;
        const double ipc = harmonicIpc(p, spec, profiles);
        windowMoved = std::max(windowMoved, moved(ipc));
        t.addRow({"window capacity " + std::to_string(cap),
                  util::TextTable::num(ipc, 3),
                  util::TextTable::num(ipc / baseIpc, 3)});
    }
    double contentionMoved = 0.0, warmMoved = 0.0;
    {
        auto p = base;
        p.memLatencies.l2BusCycles = 0;
        p.memLatencies.memBusCycles = 0;
        const double ipc = harmonicIpc(p, spec, profiles);
        contentionMoved = moved(ipc);
        t.addRow({"no fill-bus / memory-channel contention",
                  util::TextTable::num(ipc, 3),
                  util::TextTable::num(ipc / baseIpc, 3)});
    }
    {
        auto cold = spec;
        cold.prewarm = 0;
        const double ipc = harmonicIpc(base, cold, profiles);
        warmMoved = moved(ipc);
        t.addRow({"no functional prewarm (cold caches)",
                  util::TextTable::num(ipc, 3),
                  util::TextTable::num(ipc / baseIpc, 3)});
    }
    std::vector<double> ladder; // perfect, local, bimodal, taken
    for (const char *pred : {"perfect", "local", "bimodal", "taken"}) {
        auto s = spec;
        s.predictor = pred;
        ladder.push_back(harmonicIpc(base, s, profiles));
        t.addRow({std::string("predictor: ") + pred,
                  util::TextTable::num(ladder.back(), 3),
                  util::TextTable::num(ladder.back() / baseIpc, 3)});
    }
    t.print(std::cout);

    const double perfect = ladder[0], local = ladder[1],
                 bimodal = ladder[2], taken = ladder[3];
    bench::verdict(
        {{contentionMoved > 0.05 && warmMoved > 0.05,
          "bus contention and warm state are material (each moves IPC "
          "by more than 5%)"},
         {perfect > std::max(baseIpc, local) && moved(local) <= 0.02 &&
              std::min(baseIpc, local) > bimodal && bimodal > taken,
          "the predictor ladder orders perfect > tournament ~ local "
          "(within 2%) > bimodal > always-taken"},
         {windowMoved <= 0.05,
          "window-capacity rows move only a few percent (within 5%; "
          "cache/bus state is sampled at dispatch, so deeper "
          "dispatch-ahead slightly overstates burst contention for very "
          "large windows)"}});
    return 0;
}

int
main(int argc, char **argv)
{
    return util::runTopLevel(argc, argv, kKeys,
                             [&] { return ablation(argc, argv); });
}
