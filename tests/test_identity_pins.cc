/**
 * @file
 * Pins of the byte-identity rules every result artifact rests on
 * (DESIGN.md §8, §9):
 *
 *  - the order of a SimResult's 25 counters, in the journal's cell
 *    record (encodeCellRecord) and in the canonical rendering
 *    (serializeSuite).  Each counter holds a distinct value, so two
 *    swapped counters move the pinned bytes even though both are zero
 *    on every committed golden;
 *  - the grid fingerprint, which names checkpoint journals and
 *    result-store blobs and so must never drift: a drift would show only
 *    as ResumeMismatch on an old journal, or as a cold miss in every
 *    cache_dir= store.
 *
 * Every literal here was computed once from the code and must not be
 * re-pinned by a refactor; only a deliberate format change (which also
 * raises kJournalVersion) may move one.
 */

#include <gtest/gtest.h>

#include <cstdint>
#include <string>
#include <vector>

#include "study/checkpoint.hh"
#include "study/montecarlo.hh"
#include "study/runner.hh"
#include "study/scaling.hh"
#include "trace/spec2000.hh"
#include "util/status.hh"

using namespace fo4;

namespace
{

std::string
hex(const std::string &bytes)
{
    static const char digits[] = "0123456789abcdef";
    std::string out;
    for (const unsigned char c : bytes) {
        out += digits[c >> 4];
        out += digits[c & 15];
    }
    return out;
}

/** A successful row whose 25 counters read 1..25 in record order. */
study::BenchResult
countedRow()
{
    study::BenchResult r;
    r.name = "164.gzip";
    r.cls = trace::BenchClass::VectorFp;
    r.sim.instructions = 1;
    r.sim.cycles = 2;
    r.sim.branches = 3;
    r.sim.mispredicts = 4;
    r.sim.loads = 5;
    r.sim.stores = 6;
    r.sim.dl1Misses = 7;
    r.sim.l2Misses = 8;
    r.sim.stallCycles = 9;
    for (int c = 0; c < core::numStallCauses; ++c)
        r.sim.stalls.byCause[c] = 10 + c;
    r.sim.dispatchWindowFull = 18;
    r.sim.dispatchRobFull = 19;
    r.sim.dispatchLsqFull = 20;
    r.sim.occupancy.cycles = 21;
    r.sim.occupancy.frontSum = 22;
    r.sim.occupancy.windowSum = 23;
    r.sim.occupancy.robSum = 24;
    r.sim.occupancy.lsqSum = 25;
    r.bips = 1.7;
    return r;
}

/** A failed row: counters cleared, a typed error with its message. */
study::BenchResult
failedRow()
{
    study::BenchResult r;
    r.name = "181.mcf";
    r.cls = trace::BenchClass::NonVectorFp;
    r.error = util::Status(util::ErrorCode::Deadlock,
                           "no commit in 1000 cycles");
    return r;
}

std::vector<study::GridPoint>
grid(const std::vector<double> &tUseful)
{
    return study::scalingGrid(tUseful, study::SweepOptions{});
}

} // namespace

TEST(PinnedCounters, CellRecordKeepsTheCounterOrder)
{
    EXPECT_EQ(hex(study::encodeCellRecord({3, 7, countedRow()})),
              "03000000" "07000000"
              "08000000" "3136342e677a6970"
              "01000000"
              "0100000000000000" "0200000000000000" "0300000000000000"
              "0400000000000000" "0500000000000000" "0600000000000000"
              "0700000000000000" "0800000000000000"
              "0900000000000000"
              "0a00000000000000" "0b00000000000000" "0c00000000000000"
              "0d00000000000000" "0e00000000000000" "0f00000000000000"
              "1000000000000000" "1100000000000000"
              "1200000000000000" "1300000000000000" "1400000000000000"
              "1500000000000000" "1600000000000000" "1700000000000000"
              "1800000000000000" "1900000000000000"
              "333333333333fb3f"
              "00000000" "00000000");

    EXPECT_EQ(hex(study::encodeCellRecord({0, 1, failedRow()})),
              "00000000" "01000000"
              "07000000" "3138312e6d6366"
              "02000000"
              "0000000000000000" "0000000000000000" "0000000000000000"
              "0000000000000000" "0000000000000000" "0000000000000000"
              "0000000000000000" "0000000000000000"
              "0000000000000000"
              "0000000000000000" "0000000000000000" "0000000000000000"
              "0000000000000000" "0000000000000000" "0000000000000000"
              "0000000000000000" "0000000000000000"
              "0000000000000000" "0000000000000000" "0000000000000000"
              "0000000000000000" "0000000000000000" "0000000000000000"
              "0000000000000000" "0000000000000000"
              "0000000000000000"
              "06000000"
              "18000000"
              "6e6f20636f6d6d697420696e203130303020637963"
              "6c6573");
}

TEST(PinnedCounters, RenderingKeepsTheCounterOrder)
{
    study::SuiteResult suite;
    suite.benchmarks = {countedRow(), failedRow()};
    EXPECT_EQ(study::serializeSuite(suite),
              "164.gzip|1|1|2|3|4|5|6|7|8|9|10|11|12|13|14|15|16|17|18|19|"
              "20|21|22|23|24|25|0x1.b333333333333p+0|Ok|\n"
              "181.mcf|2|0|0|0|0|0|0|0|0|0|0|0|0|0|0|0|0|0|0|0|0|0|0|0|0|"
              "0|0x0p+0|Deadlock|no commit in 1000 cycles\n");
}

TEST(PinnedCounters, DecodingRestoresEveryCounter)
{
    const study::BenchResult row = countedRow();
    const study::CellRecord back = study::decodeCellRecord(
        study::encodeCellRecord({3, 7, row}), "pinned");
    study::SuiteResult a, b;
    a.benchmarks = {row};
    b.benchmarks = {back.result};
    EXPECT_EQ(study::serializeSuite(a), study::serializeSuite(b));
}

TEST(PinnedFingerprint, Fig5GridOverTheTable2Profiles)
{
    const auto points = grid({2, 3, 4, 5, 6, 7, 8, 9, 10, 11, 12, 13, 14,
                              15, 16});
    const auto jobs = study::jobsFromProfiles(trace::spec2000Profiles());
    ASSERT_EQ(points.size(), 15u);
    ASSERT_EQ(jobs.size(), 18u);
    EXPECT_EQ(study::gridFingerprint(points, jobs, study::RunSpec{}),
              0x6a39309d8a6e07fbull);
}

TEST(PinnedFingerprint, MonteCarloDice)
{
    study::VariationModel variation;
    variation.sigmaLatch = 0.08;
    variation.sigmaSkew = 0.02;
    variation.sigmaJitter = 0.01;
    variation.sigmaDie = 0.05;
    variation.seed = 7;
    variation.samples = 2;
    const auto dice = study::expandMonteCarloGrid(grid({8, 6}), variation);
    ASSERT_EQ(dice.size(), 4u);
    const auto jobs = study::jobsFromProfiles(
        {trace::spec2000Profile("164.gzip"),
         trace::spec2000Profile("171.swim")});
    EXPECT_EQ(study::gridFingerprint(dice, jobs, study::RunSpec{}),
              0xc0447266a2344606ull);
    // Each die is priced from its base point's one simulation.
    const std::vector<std::size_t> owners{0, 1, 0, 1};
    EXPECT_EQ(study::simulationOwners(dice, study::RunSpec{}), owners);
}

TEST(PinnedFingerprint, TraceOverrideAndCycleLimitJobs)
{
    std::vector<study::BenchJob> jobs;
    jobs.push_back(study::BenchJob::fromTraceFile(
        "captured", trace::BenchClass::Integer, "traces/gzip.fo4cap"));
    auto overridden =
        study::BenchJob::fromProfile(trace::spec2000Profile("176.gcc"));
    overridden.params = study::scaledCoreParams(5);
    overridden.params->robSize = 48;
    jobs.push_back(overridden);
    auto limited =
        study::BenchJob::fromProfile(trace::spec2000Profile("183.equake"));
    limited.cycleLimit = 123456;
    jobs.push_back(limited);

    study::RunSpec spec;
    spec.model = study::CoreModel::InOrder;
    spec.predictor = "bimodal";
    spec.instructions = 5000;
    spec.warmup = 500;
    spec.prewarm = 20000;
    spec.cycleLimit = 900000;
    EXPECT_EQ(study::gridFingerprint(grid({8, 6}), jobs, spec),
              0x79468dc1c182ee83ull);
}
