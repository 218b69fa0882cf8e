/**
 * @file
 * Experiment E6 — Section 4.2 of the paper: the CRAY-1S comparison.
 * Replacing the cache hierarchy with a flat 12-cycle memory (the
 * Cray-1S memory system) moves the integer optimum from 6 FO4 to about
 * 11 FO4 — close to the 10.9 FO4 equivalent of Kunkel & Smith's 8 ECL
 * gate levels — showing that on-chip caches are one reason modern
 * pipelines can be so much deeper.
 */

#include <cmath>

#include "bench/common.hh"
#include "study/runner.hh"
#include "study/scaling.hh"
#include "tech/ecl.hh"
#include "trace/spec2000.hh"
#include "util/table.hh"

using namespace fo4;

const std::vector<util::KeyDoc> kKeys =
    study::runKeys({"instructions", "warmup", "prewarm", "sim_impl"});
const study::RunSpec kDefaults{.instructions = 60000,
                               .warmup = 8000,
                               .prewarm = 300000,
                               .impl = study::SimImpl::Batched};

int
cray(int argc, char **argv)
{
    bench::banner(
        "E6 / Section 4.2",
        "with a Cray-1S style memory (12-cycle flat access, no caches) "
        "the integer optimum moves to ~11 FO4, matching Kunkel & Smith's "
        "8 gate levels = 10.9 FO4; the modern optimum of 6 FO4 is less "
        "than the Cray scalar optimum largely because of on-chip caches");

    const auto spec = study::RunArgs(argc, argv, kKeys).spec(kDefaults);
    const auto profiles =
        trace::spec2000Profiles(trace::BenchClass::Integer);
    const auto ts = bench::usefulSweep();

    util::TextTable t;
    t.setHeader({"t_useful", "modern mem (BIPS)", "cray mem (BIPS)"});

    std::vector<double> modern, cray;
    for (const double u : ts) {
        const auto clock = study::scaledClock(u);
        const auto sm = runSuite(study::scaledCoreParams(u, {}), clock,
                                 profiles, spec);
        study::ScalingOptions crayOpt;
        crayOpt.crayMemory = true;
        const auto sc = runSuite(study::scaledCoreParams(u, crayOpt),
                                 clock, profiles, spec);
        modern.push_back(sm.harmonicBips(trace::BenchClass::Integer));
        cray.push_back(sc.harmonicBips(trace::BenchClass::Integer));
        t.addRow({util::TextTable::num(u, 0),
                  util::TextTable::num(modern.back(), 3),
                  util::TextTable::num(cray.back(), 3)});
    }
    t.print(std::cout);

    const double optModern = bench::argmax(ts, modern);
    const double optCray = bench::argmax(ts, cray);
    std::printf("\ninteger optimum, modern memory: %.0f FO4 (paper: 6)\n",
                optModern);
    std::printf("integer optimum, Cray-1S memory: %.0f FO4 (paper: 11)\n",
                optCray);
    const double kunkelSmith =
        tech::eclLevelsToFo4(tech::kunkelSmithScalarLevels);
    std::printf("Kunkel & Smith scalar optimum: 8 ECL levels = %.1f FO4; "
                "vector: 4 levels = %.1f FO4 (Appendix A conversion)\n",
                kunkelSmith,
                tech::eclLevelsToFo4(tech::kunkelSmithVectorLevels));

    bench::verdict(
        {{optCray > optModern, "the flat 12-cycle memory pushes the "
                               "optimum to a shallower pipeline than the "
                               "cached machine"},
         {std::abs(optCray - kunkelSmith) <= 1,
          "within 1 FO4 of the Kunkel-Smith 10.9 FO4 point"}});
    return 0;
}

int
main(int argc, char **argv)
{
    return util::runTopLevel(argc, argv, kKeys,
                             [&] { return cray(argc, argv); });
}
