/**
 * @file
 * Tests for the branch predictors: learning behaviour on crafted outcome
 * sequences and accuracy ordering on the synthetic benchmark streams.
 */

#include <gtest/gtest.h>

#include "bp/predictors.hh"
#include "study/runner.hh"
#include "trace/generator.hh"
#include "trace/spec2000.hh"

using namespace fo4::bp;
using fo4::isa::MicroOp;
using fo4::isa::OpClass;

namespace
{

MicroOp
branchAt(std::uint64_t pc, bool taken)
{
    MicroOp op;
    op.cls = OpClass::Branch;
    op.pc = pc;
    op.taken = taken;
    return op;
}

/** Fraction of correct predictions over a pc/outcome sequence. */
double
accuracy(BranchPredictor &bp,
         const std::vector<std::pair<std::uint64_t, bool>> &seq)
{
    int correct = 0;
    for (const auto &[pc, taken] : seq) {
        const MicroOp op = branchAt(pc, taken);
        correct += bp.predict(op) == taken;
        bp.update(op, taken);
    }
    return double(correct) / double(seq.size());
}

} // namespace

TEST(AlwaysTaken, PredictsTaken)
{
    AlwaysTaken bp;
    EXPECT_TRUE(bp.predict(branchAt(0x100, false)));
    EXPECT_TRUE(bp.predict(branchAt(0x200, true)));
}

TEST(Perfect, AlwaysCorrect)
{
    PerfectPredictor bp;
    EXPECT_TRUE(bp.predict(branchAt(0x100, true)));
    EXPECT_FALSE(bp.predict(branchAt(0x100, false)));
}

TEST(Bimodal, LearnsBiasedBranch)
{
    Bimodal bp;
    std::vector<std::pair<std::uint64_t, bool>> seq;
    for (int i = 0; i < 1000; ++i)
        seq.emplace_back(0x400, true);
    EXPECT_GT(accuracy(bp, seq), 0.99);
}

TEST(Bimodal, SeparatesDistinctBranches)
{
    Bimodal bp;
    std::vector<std::pair<std::uint64_t, bool>> seq;
    for (int i = 0; i < 1000; ++i) {
        seq.emplace_back(0x400, true);
        seq.emplace_back(0x404, false);
    }
    EXPECT_GT(accuracy(bp, seq), 0.98);
}

TEST(Bimodal, CannotLearnAlternation)
{
    Bimodal bp;
    std::vector<std::pair<std::uint64_t, bool>> seq;
    for (int i = 0; i < 1000; ++i)
        seq.emplace_back(0x400, i % 2 == 0);
    EXPECT_LT(accuracy(bp, seq), 0.7);
}

TEST(Local, LearnsShortPattern)
{
    LocalHistory bp;
    // Period-3 loop pattern: T T N.
    std::vector<std::pair<std::uint64_t, bool>> seq;
    for (int i = 0; i < 3000; ++i)
        seq.emplace_back(0x400, i % 3 != 2);
    EXPECT_GT(accuracy(bp, seq), 0.9);
}

TEST(Local, LearnsAlternation)
{
    LocalHistory bp;
    std::vector<std::pair<std::uint64_t, bool>> seq;
    for (int i = 0; i < 2000; ++i)
        seq.emplace_back(0x400, i % 2 == 0);
    EXPECT_GT(accuracy(bp, seq), 0.95);
}

TEST(GShare, LearnsHistoryCorrelation)
{
    GShare bp;
    // One branch whose outcome is the XOR of the two previous outcomes:
    // pure global-history correlation.
    std::vector<std::pair<std::uint64_t, bool>> seq;
    bool h1 = false, h2 = true;
    for (int i = 0; i < 4000; ++i) {
        const bool taken = h1 != h2;
        seq.emplace_back(0x400, taken);
        h2 = h1;
        h1 = taken;
    }
    EXPECT_GT(accuracy(bp, seq), 0.9);
}

TEST(Tournament, AtLeastAsGoodAsComponentsOnMixes)
{
    // A mix of a pattern branch (local-friendly) and biased branches.
    auto mkseq = [] {
        std::vector<std::pair<std::uint64_t, bool>> seq;
        for (int i = 0; i < 4000; ++i) {
            seq.emplace_back(0x400, i % 4 != 3); // local pattern
            seq.emplace_back(0x404, true);       // biased
            seq.emplace_back(0x408, i % 2 == 0); // alternation
        }
        return seq;
    };
    Tournament t;
    const double at = accuracy(t, mkseq());
    EXPECT_GT(at, 0.93);
}

TEST(Tournament, ResetClearsState)
{
    Tournament t;
    std::vector<std::pair<std::uint64_t, bool>> seq;
    for (int i = 0; i < 2000; ++i)
        seq.emplace_back(0x400, false);
    accuracy(t, seq);
    t.reset();
    // After reset the counters are weakly taken again.
    EXPECT_TRUE(t.predict(branchAt(0x400, true)));
}

TEST(Factory, BuildsEveryPredictor)
{
    for (const char *name :
         {"perfect", "taken", "bimodal", "gshare", "local", "tournament"}) {
        auto bp = makePredictor(name);
        ASSERT_NE(bp, nullptr) << name;
        EXPECT_STREQ(bp->name(),
                     std::string(name) == "taken" ? "always-taken" : name);
    }
}

TEST(Factory, NameCheckAndRunSpecAgreeWithTheFactory)
{
    for (const char *name :
         {"perfect", "taken", "bimodal", "gshare", "local", "tournament"})
        EXPECT_TRUE(checkPredictorName(name).isOk()) << name;

    const fo4::util::Status st = checkPredictorName("zzz");
    EXPECT_EQ(st.code(), fo4::util::ErrorCode::InvalidConfig);
    try {
        makePredictor("zzz");
        ADD_FAILURE() << "unknown predictor built";
    } catch (const fo4::util::ConfigError &e) {
        EXPECT_EQ(st.message(), e.what());
    }

    // A run refuses the name eagerly, before any cell builds a core.
    fo4::study::RunSpec spec;
    spec.predictor = "zzz";
    const fo4::util::Status runSt = spec.validate();
    EXPECT_EQ(runSt.code(), fo4::util::ErrorCode::InvalidConfig);
    EXPECT_NE(runSt.message().find("unknown branch predictor 'zzz'"),
              std::string::npos);
    spec.predictor = "gshare";
    EXPECT_TRUE(spec.validate().isOk());
}

// Accuracy ordering on the real synthetic workloads: the tournament
// predictor must beat bimodal and always-taken on every benchmark class.
class SuiteAccuracy : public ::testing::TestWithParam<const char *>
{
  protected:
    double
    run(const char *predictor)
    {
        auto prof = fo4::trace::spec2000Profile(GetParam());
        fo4::trace::SyntheticTraceGenerator gen(prof);
        auto bp = makePredictor(predictor);
        std::uint64_t branches = 0, correct = 0;
        for (int i = 0; i < 200000; ++i) {
            const MicroOp op = gen.next();
            if (!op.isBranch())
                continue;
            ++branches;
            correct += bp->predict(op) == op.taken;
            bp->update(op, op.taken);
        }
        return double(correct) / double(branches);
    }
};

TEST_P(SuiteAccuracy, TournamentBeatsSimplerPredictors)
{
    const double tournament = run("tournament");
    const double bimodal = run("bimodal");
    const double taken = run("taken");
    EXPECT_GE(tournament + 0.01, bimodal);
    EXPECT_GT(tournament, taken);
    EXPECT_GT(tournament, 0.8);
}

INSTANTIATE_TEST_SUITE_P(Benchmarks, SuiteAccuracy,
                         ::testing::Values("164.gzip", "300.twolf",
                                           "171.swim", "188.ammp"));

TEST_P(SuiteAccuracy, GccAliasingDegradesButStaysUseful)
{
    // gcc's 2048 static branches alias the 1024-entry local history
    // table, so the tournament loses some ground to the larger bimodal
    // table — a real 21264 effect — but it must remain far better than
    // static prediction.
    if (std::string(GetParam()) != "164.gzip")
        GTEST_SKIP() << "run once";
    auto prof = fo4::trace::spec2000Profile("176.gcc");
    fo4::trace::SyntheticTraceGenerator gen(prof);
    auto bp = makePredictor("tournament");
    auto stat = makePredictor("taken");
    std::uint64_t branches = 0, correct = 0, staticCorrect = 0;
    for (int i = 0; i < 200000; ++i) {
        const MicroOp op = gen.next();
        if (!op.isBranch())
            continue;
        ++branches;
        correct += bp->predict(op) == op.taken;
        bp->update(op, op.taken);
        staticCorrect += stat->predict(op) == op.taken;
    }
    EXPECT_GT(double(correct) / branches, 0.7);
    EXPECT_GT(correct, staticCorrect);
}
