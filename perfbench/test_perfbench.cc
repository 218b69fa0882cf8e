/**
 * @file
 * Tests of the benchmark's own code: seeded request sequences, metric
 * names against BENCHMARK.json's naming rules and lists, and digest
 * mismatches counting as failed operations.
 */

#include <gtest/gtest.h>

#include <filesystem>
#include <fstream>
#include <set>
#include <sstream>

#include "catalogue.hh"
#include "perfbench.hh"

using namespace fo4;
using namespace fo4::perfbench;

namespace
{

std::string
readFile(const std::string &path)
{
    std::ifstream in(path);
    std::ostringstream text;
    text << in.rdbuf();
    return text.str();
}

const std::string kDigests = std::string(PERFBENCH_DIR) + "/digests.txt";

} // namespace

TEST(Sequences, AreDeterministicPerSeed)
{
    EXPECT_EQ(mixSequence(7), mixSequence(7));
    EXPECT_EQ(mcSequence(7), mcSequence(7));
}

TEST(Sequences, TwoSeedsGiveDifferentSequences)
{
    EXPECT_NE(mixSequence(1), mixSequence(2));
    EXPECT_NE(mcSequence(1), mcSequence(2));
}

TEST(Sequences, MixRepeatsExactlyThreeInEveryFive)
{
    const auto seq = mixSequence(3);
    ASSERT_EQ(kMixCatalogueSize * 5 / 2, seq.size());
    EXPECT_TRUE(seq.front().fresh);
    std::set<std::size_t> seen;
    for (std::size_t i = 0; i < seq.size(); ++i) {
        if (seq[i].fresh) {
            EXPECT_TRUE(seen.insert(seq[i].entry).second)
                << "a fresh entry was submitted before";
        } else {
            EXPECT_TRUE(seen.count(seq[i].entry))
                << "a repeat of an entry never submitted";
        }
        if (i % 5 == 4) {
            std::size_t fresh = 0;
            for (std::size_t j = i - 4; j <= i; ++j)
                fresh += seq[j].fresh;
            EXPECT_EQ(2u, fresh) << "block ending at " << i;
        }
    }
}

TEST(Sequences, McSubmissionsAreDistinct)
{
    const auto seq = mcSequence(5);
    EXPECT_EQ(kMcCatalogueSize,
              std::set<std::size_t>(seq.begin(), seq.end()).size());
}

TEST(Metrics, NamesAndUnitsAreValidAndListedInBenchmarkJson)
{
    const std::string json =
        readFile(std::string(PERFBENCH_REPO_ROOT) + "/BENCHMARK.json");
    ASSERT_FALSE(json.empty());
    std::set<std::string> names;
    for (const auto *table : {&endToEndMetrics(), &perLayerMetrics()}) {
        for (const MetricSpec &m : *table) {
            EXPECT_TRUE(validMetricName(m.name)) << m.name;
            EXPECT_TRUE(validMetricUnit(m.unit)) << m.unit;
            EXPECT_TRUE(names.insert(m.name).second) << "twice: " << m.name;
            const std::string entry = std::string("\"name\": \"") +
                                      m.name + "\", \"unit\": \"" +
                                      m.unit + "\"";
            EXPECT_NE(std::string::npos, json.find(entry)) << entry;
        }
    }
    EXPECT_FALSE(validMetricName(""));
    EXPECT_FALSE(validMetricName("_leading"));
    EXPECT_FALSE(validMetricName("has space"));
    EXPECT_FALSE(validMetricName(std::string(65, 'a')));
    EXPECT_FALSE(validMetricUnit("a unit"));
    EXPECT_FALSE(validMetricUnit(std::string(17, 'a')));
}

TEST(Ledger, DigestMismatchCountsAsFailed)
{
    OpLedger ledger;
    EXPECT_TRUE(ledger.verify(fnv1a("result bytes"), "result bytes"));
    EXPECT_FALSE(ledger.verify(fnv1a("result bytes"), "result byteZ"));
    EXPECT_EQ(2u, ledger.attempted());
    EXPECT_EQ(1u, ledger.failed());
}

TEST(Ledger, ForcedMismatchFailsASvcMixSweep)
{
    // Corrupt the expected digest of the first request the seed submits:
    // the daemon's correct bytes must then count as a failed operation.
    const std::uint64_t seed = 11;
    const std::size_t first = mixSequence(seed).front().entry;
    DigestTable table = DigestTable::load(kDigests);
    table.set("svc_mix", first, table.expect("svc_mix", first) ^ 1);

    RunOptions options;
    options.seed = seed;
    options.seconds = 1.0;
    options.workDir =
        std::filesystem::current_path().string() + "/perfbench-test-work";
    const RunResult result = runSvcMix(options, table);
    std::filesystem::remove_all(options.workDir);

    EXPECT_GE(result.ops.failed(), 1u);
    EXPECT_GT(result.ops.attempted(), result.ops.failed())
        << "only the forged entry's sweeps may fail";
}

TEST(Ledger, AFailedOperationMakesTheRunIncorrect)
{
    RunResult result;
    for (const MetricSpec &m : endToEndMetrics())
        result.values[m.name] = 1.0;
    result.ops.record(true);
    EXPECT_NE(std::string::npos,
              renderResultLine(result, false).find("\"correct\": true"));
    result.ops.record(false);
    const std::string line = renderResultLine(result, false);
    EXPECT_NE(std::string::npos, line.find("\"correct\": false"));
    EXPECT_NE(std::string::npos,
              line.find("\"attempted\": 2, \"failed\": 1"));
}

TEST(Digests, TableRoundTripsThroughItsText)
{
    const DigestTable table = DigestTable::load(kDigests);
    const std::string text = table.render();
    EXPECT_EQ(readFile(kDigests), text)
        << "digests.txt is not in the generator's canonical form";
    EXPECT_NO_THROW(table.expect("fig5_local", 14));
    EXPECT_NO_THROW(table.expect("svc_mix", kMixCatalogueSize - 1));
    EXPECT_NO_THROW(table.expect("fleet_mc", kMcCatalogueSize - 1));
}
