/**
 * @file
 * Experiment E11 — Figure 11 / Section 5.1 of the paper: IPC of the
 * segmented instruction window as its wakeup pipeline depth grows from
 * 1 to 10 stages (32 entries, full selection).  IPC stays flat to about
 * 4 stages; at 10 stages the paper reports an 11% integer and 5%
 * floating-point loss — far below the ~27% cost of naive pipelining
 * that cannot issue dependent instructions back to back.
 */

#include "bench/common.hh"
#include "core/core.hh"
#include "study/runner.hh"
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
fig11(int argc, char **argv)
{
    bench::banner(
        "E11 / Figure 11",
        "segmented 32-entry window: IPC roughly unchanged to 4 wakeup "
        "stages; ~11% integer / ~5% FP loss at 10 stages (naive "
        "pipelining without back-to-back issue would cost up to 27%)");

    const auto spec = study::RunArgs(argc, argv, kKeys).spec(kDefaults);
    const auto ints = trace::spec2000Profiles(trace::BenchClass::Integer);
    auto fps = trace::spec2000Profiles(trace::BenchClass::VectorFp);
    for (auto &p : trace::spec2000Profiles(trace::BenchClass::NonVectorFp))
        fps.push_back(p);

    auto base = core::CoreParams::alpha21264();
    base.window.capacity = 32;
    const double intBase = harmonicIpc(base, spec, ints);
    const double fpBase = harmonicIpc(base, spec, fps);

    // The naive comparison: a pipelined window that cannot issue
    // dependents back to back (wakeup loop = stage count).
    auto naive = base;
    naive.issueLatency = 10;
    const double naiveRel = harmonicIpc(naive, spec, ints) / intBase;

    util::TextTable t;
    t.setHeader({"stages", "int IPC", "int rel", "fp IPC", "fp rel"});
    double intAt10 = 1.0, fpAt10 = 1.0, intAt4 = 1.0;
    for (const int stages : {1, 2, 3, 4, 6, 8, 10}) {
        auto p = base;
        p.window.wakeupStages = stages;
        const double i = harmonicIpc(p, spec, ints);
        const double f = harmonicIpc(p, spec, fps);
        if (stages == 10) {
            intAt10 = i / intBase;
            fpAt10 = f / fpBase;
        }
        if (stages == 4)
            intAt4 = i / intBase;
        t.addRow({util::TextTable::num(std::int64_t{stages}),
                  util::TextTable::num(i, 3),
                  util::TextTable::num(i / intBase, 3),
                  util::TextTable::num(f, 3),
                  util::TextTable::num(f / fpBase, 3)});
    }
    t.print(std::cout);

    std::printf("\nIPC loss at 10 stages: integer %.1f%% (paper 11%%), "
                "FP %.1f%% (paper 5%%)\n",
                100.0 * (1.0 - intAt10), 100.0 * (1.0 - fpAt10));
    std::printf("IPC loss at 4 stages: integer %.1f%% (paper: ~0%%)\n",
                100.0 * (1.0 - intAt4));
    std::printf("naive pipelining (no back-to-back, depth 10): %.1f%% "
                "loss (paper cites up to 27%% for naive schemes)\n",
                100.0 * (1.0 - naiveRel));

    const double intLoss = 1.0 - intAt10, fpLoss = 1.0 - fpAt10;
    bench::verdict(
        {{1.0 - intAt4 < 0.02, "segmentation is near-free (< 2% integer "
                               "loss) to 4 stages"},
         {intLoss < 0.15 && fpLoss < 0.15,
          "costs a modest amount (< 15%) at 10"},
         {intLoss > fpLoss, "hits integer codes harder than FP at 10"},
         {1.0 - naiveRel > 2 * intLoss,
          "beats naive pipelining by a wide margin (over 2x less loss)"}});
    return 0;
}

int
main(int argc, char **argv)
{
    return util::runTopLevel(argc, argv, kKeys,
                             [&] { return fig11(argc, argv); });
}
