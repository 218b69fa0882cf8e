/**
 * @file
 * Extension X1 — the paper's Section 7 future work: "we will examine
 * the effects of wire delays on our pipeline models and optimal clock
 * rate selection."  Global wires do not speed up when a fixed design is
 * scaled, so cross-chip communication (the fetch-redirect path, the L2
 * access path) costs a constant number of FO4 regardless of pipeline
 * depth.  This bench sweeps that wire budget and reports how the
 * integer optimum moves: wire delay makes deep pipelines pay more
 * cycles per loop, pushing the optimal logic depth shallower — the
 * effect the paper anticipates from "long wires that arise as design
 * complexity increases" (its Pentium 4 drive-stage example).
 */

#include "bench/common.hh"
#include "study/runner.hh"
#include "study/scaling.hh"
#include "trace/spec2000.hh"
#include "util/table.hh"

using namespace fo4;

const std::vector<util::KeyDoc> kKeys =
    study::runKeys({"instructions", "warmup", "prewarm", "sim_impl"});
const study::RunSpec kDefaults{.instructions = 60000,
                               .warmup = 8000,
                               .prewarm = 400000,
                               .impl = study::SimImpl::Batched};

int
extWireDelay(int argc, char **argv)
{
    bench::banner(
        "X1 / Section 7 extension (wire delay)",
        "constant-FO4 global wire latency on the redirect and L2 paths "
        "should push the optimal logic depth shallower as designs grow "
        "more wire-bound (paper future work; Pentium 4 spent two stages "
        "on data transport)");

    const auto spec = study::RunArgs(argc, argv, kKeys).spec(kDefaults);
    const auto profiles =
        trace::spec2000Profiles(trace::BenchClass::Integer);
    const auto ts = bench::usefulSweep();
    const std::vector<double> wires{0, 10, 20, 40};

    util::TextTable t;
    std::vector<std::string> header{"t_useful"};
    for (const double w : wires)
        header.push_back("wire=" + util::TextTable::num(w, 0) + "FO4");
    t.setHeader(header);

    std::vector<std::vector<double>> series(wires.size());
    for (const double u : ts) {
        std::vector<std::string> row{util::TextTable::num(u, 0)};
        for (std::size_t w = 0; w < wires.size(); ++w) {
            study::ScalingOptions opt;
            opt.wirePenaltyFo4 = wires[w];
            const auto suite =
                runSuite(study::scaledCoreParams(u, opt),
                         study::scaledClock(u), profiles, spec);
            const double bips =
                suite.harmonicBips(trace::BenchClass::Integer);
            series[w].push_back(bips);
            row.push_back(util::TextTable::num(bips, 3));
        }
        t.addRow(row);
    }
    t.print(std::cout);

    std::printf("\noptimum (2%% plateau) per wire budget:\n");
    std::vector<double> optima;
    for (std::size_t w = 0; w < wires.size(); ++w) {
        const auto p = bench::plateau(ts, series[w], 0.02);
        optima.push_back(bench::argmax(ts, series[w]));
        std::printf("  wire %2.0f FO4 -> %g [%s]\n", wires[w],
                    optima.back(), bench::plateauStr(p).c_str());
    }

    const bool monotone = optima.back() >= optima.front();
    bench::verdict(monotone
                       ? "growing wire budgets flatten the deep end and "
                         "move the optimum toward shallower pipelines, "
                         "as the paper's future-work discussion "
                         "anticipates"
                       : "UNEXPECTED: wire delay did not move the "
                         "optimum shallower");
    return 0;
}

int
main(int argc, char **argv)
{
    return util::runTopLevel(argc, argv, kKeys,
                             [&] { return extWireDelay(argc, argv); });
}
