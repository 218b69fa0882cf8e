/**
 * @file
 * Experiment E12 — Section 5.2 / Figure 12 of the paper: the partitioned
 * selection scheme.  A 32-entry window in four stages with a
 * select fan-in of 16 (all of stage 1 plus preselect blocks that pick at
 * most 5/2/1 instructions from stages 2/3/4) loses only ~4% integer and
 * ~1% FP IPC against a single-cycle monolithic window with fan-in 32.
 */

#include "bench/common.hh"
#include "core/core.hh"
#include "study/runner.hh"
#include "trace/spec2000.hh"
#include "util/table.hh"

using namespace fo4;

using bench::harmonicIpc;

const std::vector<util::KeyDoc> kKeys = bench::specKeys();

int
sec52(int argc, char **argv)
{
    bench::banner(
        "E12 / Section 5.2 (Figure 12)",
        "32-entry window, 4 stages, select fan-in 16 with preselect caps "
        "5/2/1: ~4% integer and ~1% FP IPC loss versus a single-cycle "
        "monolithic window with full fan-in");

    util::Config::fromArgs(argc, argv).checkKnown(kKeys);
    const auto spec = bench::specFromArgs(argc, argv, 60000, 8000, 400000);
    const auto ints = trace::spec2000Profiles(trace::BenchClass::Integer);
    auto fps = trace::spec2000Profiles(trace::BenchClass::VectorFp);
    for (auto &p : trace::spec2000Profiles(trace::BenchClass::NonVectorFp))
        fps.push_back(p);

    auto mono = core::CoreParams::alpha21264();
    mono.window.capacity = 32;

    auto seg = mono;
    seg.window.wakeupStages = 4;

    auto part = seg;
    part.window.select = core::SelectModel::Partitioned;
    part.window.preselectCap = {5, 2, 1, 1, 1, 1, 1, 1};

    util::TextTable t;
    t.setHeader({"configuration", "int IPC", "int rel", "fp IPC",
                 "fp rel"});
    const double i0 = harmonicIpc(mono, spec, ints);
    const double f0 = harmonicIpc(mono, spec, fps);
    double intRel = 1.0, fpRel = 1.0;
    for (const auto &[name, cfg] :
         {std::pair<const char *, core::CoreParams>{"monolithic 1-cycle",
                                                    mono},
          {"segmented wakeup (4 stages)", seg},
          {"segmented + partitioned select", part}}) {
        const double i = harmonicIpc(cfg, spec, ints);
        const double f = harmonicIpc(cfg, spec, fps);
        if (cfg.window.select == core::SelectModel::Partitioned) {
            intRel = i / i0;
            fpRel = f / f0;
        }
        t.addRow({name, util::TextTable::num(i, 3),
                  util::TextTable::num(i / i0, 3),
                  util::TextTable::num(f, 3),
                  util::TextTable::num(f / f0, 3)});
    }
    t.print(std::cout);

    std::printf("\nIPC loss of the full Figure 12 design vs the "
                "single-cycle window: integer %.1f%% (paper ~4%%), FP "
                "%.1f%% (paper ~1%%)\n",
                100.0 * (1.0 - intRel), 100.0 * (1.0 - fpRel));

    bench::verdict("the partitioned scheme costs only a few percent IPC, "
                   "less on FP than integer codes, while cutting select "
                   "fan-in from 32 to 16");
    return 0;
}

int
main(int argc, char **argv)
{
    return util::runTopLevel(argc, argv, kKeys,
                             [&] { return sec52(argc, argv); });
}
