/**
 * @file
 * Experiment E14 — engineering throughput bench and the repo's committed
 * performance trajectory.  Not a paper artifact: this binary measures
 * how fast the simulator itself runs and emits the machine-readable
 * `BENCH_sim_throughput.json` that CI's perf-smoke job compares against
 * the committed baseline (see README "Performance trajectory").
 *
 * Three measurements:
 *
 *  1. per-core throughput (simulated cycles per wall second) for the
 *     in-order and out-of-order models, under both implementations
 *     (`sim_impl=reference` and `sim_impl=batched`);
 *  2. sweep wall-clock at jobs=1: the full 2..16 FO4 useful-time sweep
 *     over the SPEC 2000 integer suite, reference engine versus the
 *     one-pass batched engine (decoded-trace replay + shared prewarm
 *     state + idle-span skipping), plus the resulting speedup;
 *  3. byte-identity: every sweep point of the batched run must equal
 *     the reference rendering (study::serializeSuite) exactly, or the
 *     bench fails — speed may never change bytes (DESIGN.md §14).
 *
 * The headline acceptance number is the jobs=1 sweep speedup: wall
 * clock is measured on whatever machine runs the bench, so absolute
 * cycles/sec drift with hardware, but the reference-vs-batched ratio is
 * hardware-normalized and is what the perf-smoke gate thresholds.
 */

#include <chrono>
#include <cstdio>
#include <string>
#include <string_view>
#include <vector>

#include "bench/common.hh"
#include "study/scaling.hh"
#include "trace/spec2000.hh"
#include "util/frame.hh"
#include "util/logging.hh"

using namespace fo4;

namespace
{

using WallClock = std::chrono::steady_clock;

// specKeys() minus sim_impl: this bench measures both engines by
// definition, so selecting one would only falsify the comparison.
std::vector<util::KeyDoc>
sizeKeys()
{
    auto keys = bench::specKeys();
    std::erase_if(keys, [](const util::KeyDoc &k) {
        return std::string_view(k.key) == "sim_impl";
    });
    return keys;
}

const std::vector<util::KeyDoc> kKeys = bench::keyUnion(
    {sizeKeys(),
     {bench::jobsKey()},
     {{"json", "write the machine-readable trajectory record here "
               "(default BENCH_sim_throughput.json)"},
      {"verbose", "print cache diagnostics"}}});

double
seconds(WallClock::time_point begin, WallClock::time_point end)
{
    return std::chrono::duration<double>(end - begin).count();
}

struct CoreRate
{
    double cyclesPerSec = 0.0;
    std::uint64_t cycles = 0;
    double secs = 0.0;
};

/**
 * Simulated-cycles-per-second of one (model, impl) pair through the
 * standard per-job path.  One untimed run first: the batched path's
 * decoded stream and warm state are built once per process and shared
 * afterwards, and steady-state cost is what a sweep cell pays.
 */
CoreRate
coreRate(study::CoreModel model, study::SimImpl impl,
         const study::RunSpec &base)
{
    auto spec = base;
    spec.model = model;
    spec.impl = impl;
    const auto params = study::scaledCoreParams(6.0, {});
    const auto clock = study::scaledClock(6.0);
    const auto job = study::BenchJob::fromProfile(
        trace::spec2000Profile("164.gzip"));

    (void)study::runJob(params, clock, job, spec);
    CoreRate r;
    const auto t0 = WallClock::now();
    for (int rep = 0; rep < 3; ++rep)
        r.cycles += study::runJob(params, clock, job, spec).sim.cycles;
    r.secs = seconds(t0, WallClock::now());
    r.cyclesPerSec = r.secs > 0 ? static_cast<double>(r.cycles) / r.secs
                                : 0.0;
    return r;
}

void
jsonCoreRate(std::string &out, const char *name, const CoreRate &ref,
             const CoreRate &bat)
{
    out += util::strprintf(
        "    \"%s\": {\n"
        "      \"reference\": {\"cycles_per_sec\": %.1f, \"cycles\": "
        "%llu, \"seconds\": %.6f},\n"
        "      \"batched\": {\"cycles_per_sec\": %.1f, \"cycles\": %llu, "
        "\"seconds\": %.6f}\n"
        "    }",
        name, ref.cyclesPerSec, static_cast<unsigned long long>(ref.cycles),
        ref.secs, bat.cyclesPerSec,
        static_cast<unsigned long long>(bat.cycles), bat.secs);
}

int
simThroughput(int argc, char **argv)
{
    bench::banner(
        "E14 / sim throughput",
        "engineering trajectory: the one-pass batched engine sweeps the "
        "grid >=5x faster than the reference engine at jobs=1, "
        "byte-identically");

    const util::Config cfg = util::Config::fromArgs(argc, argv);
    cfg.checkKnown(kKeys);
    // Sized so the reference sweep finishes in seconds in CI while the
    // per-cell prewarm cost the batched engine amortizes stays realistic
    // relative to the figure benches (which prewarm 300k-500k).
    const auto spec = bench::specFromArgs(argc, argv, 8000, 1000, 400000);
    const int jobs = bench::jobsFromArgs(argc, argv);
    const std::string jsonPath =
        cfg.getString("json", "BENCH_sim_throughput.json");
    const bool verbose = cfg.getBool("verbose", false);

    // 1. Per-core steady-state throughput, both models x both impls.
    std::printf("per-core throughput (gzip at the 6 FO4 point, %llu "
                "instructions, steady state):\n",
                static_cast<unsigned long long>(spec.instructions));
    struct Row
    {
        const char *name;
        study::CoreModel model;
        CoreRate reference, batched;
    } rows[] = {
        {"inorder", study::CoreModel::InOrder, {}, {}},
        {"ooo", study::CoreModel::OutOfOrder, {}, {}},
    };
    for (auto &row : rows) {
        row.reference =
            coreRate(row.model, study::SimImpl::Reference, spec);
        row.batched = coreRate(row.model, study::SimImpl::Batched, spec);
        std::printf("  %-8s reference %10.0f cycles/s   batched %10.0f "
                    "cycles/s   (%.2fx)\n",
                    row.name, row.reference.cyclesPerSec,
                    row.batched.cyclesPerSec,
                    row.batched.cyclesPerSec / row.reference.cyclesPerSec);
    }

    // 2. Sweep wall-clock at the requested jobs (headline: jobs=1).
    const auto ts = bench::usefulSweep();
    const auto profiles =
        trace::spec2000Profiles(trace::BenchClass::Integer);
    std::printf("\nsweep: %zu clock periods x %zu benchmarks, jobs=%d\n",
                ts.size(), profiles.size(), jobs);

    auto runner = bench::runnerFromArgs(argc, argv);
    auto referenceSpec = spec;
    referenceSpec.impl = study::SimImpl::Reference;
    auto batchedSpec = spec;
    batchedSpec.impl = study::SimImpl::Batched;
    const auto t0 = WallClock::now();
    const auto reference =
        runner.sweepScaling(ts, {}, profiles, referenceSpec);
    const auto t1 = WallClock::now();
    const auto batched = runner.sweepScaling(ts, {}, profiles, batchedSpec);
    const auto t2 = WallClock::now();

    const double referenceSec = seconds(t0, t1);
    const double batchedSec = seconds(t1, t2);
    const double speedup = batchedSec > 0 ? referenceSec / batchedSec : 0;
    std::printf("  reference engine: %7.2f s\n", referenceSec);
    std::printf("  batched engine:   %7.2f s\n", batchedSec);
    std::printf("  speedup:          %7.2fx\n", speedup);

    // 3. Byte-identity gate: the speed must have cost nothing.
    std::size_t mismatched = 0;
    for (std::size_t i = 0; i < ts.size(); ++i) {
        if (study::serializeSuite(batched[i].suite) !=
            study::serializeSuite(reference[i].suite))
            ++mismatched;
    }
    if (mismatched) {
        std::printf("FAIL: %zu of %zu sweep points differ between the "
                    "engines\n",
                    mismatched, ts.size());
        return 1;
    }

    // The trajectory record CI compares against the committed baseline.
    std::string json = "{\n  \"bench\": \"sim_throughput\",\n";
    json += util::strprintf(
        "  \"spec\": {\"instructions\": %llu, \"warmup\": %llu, "
        "\"prewarm\": %llu},\n",
        static_cast<unsigned long long>(spec.instructions),
        static_cast<unsigned long long>(spec.warmup),
        static_cast<unsigned long long>(spec.prewarm));
    json += "  \"cores\": {\n";
    jsonCoreRate(json, "inorder", rows[0].reference, rows[0].batched);
    json += ",\n";
    jsonCoreRate(json, "ooo", rows[1].reference, rows[1].batched);
    json += "\n  },\n";
    json += util::strprintf(
        "  \"sweep\": {\"points\": %zu, \"benchmarks\": %zu, \"jobs\": "
        "%d, \"reference_seconds\": %.3f, \"batched_seconds\": %.3f, "
        "\"speedup\": %.3f, \"byte_identical\": true}\n}\n",
        ts.size(), profiles.size(), jobs, referenceSec, batchedSec,
        speedup);
    if (const auto st = util::writeWholeFile(jsonPath, json); !st.isOk())
        throw util::JournalError(st.code(), st.message());
    std::printf("\ntrajectory record -> %s\n", jsonPath.c_str());

    bench::printLatencyCacheStats(verbose);
    bench::verdict(util::strprintf(
        "all %zu sweep points byte-identical; batched engine %.2fx "
        "faster at jobs=%d (acceptance floor: 5x at jobs=1)",
        ts.size(), speedup, jobs));
    return 0;
}

} // namespace

int
main(int argc, char **argv)
{
    return util::runTopLevel(argc, argv, kKeys,
                             [&] { return simThroughput(argc, argv); });
}
