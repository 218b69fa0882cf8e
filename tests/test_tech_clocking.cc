/**
 * @file
 * Tests for the clock-period model (Section 2 / Table 1 of the paper) and
 * the latency quantization rule that generates Table 3.
 */

#include <gtest/gtest.h>

#include <limits>
#include <string>

#include "study/scaling.hh"
#include "tech/clocking.hh"
#include "tech/fo4.hh"

using namespace fo4::tech;

TEST(Overhead, PaperDefaultTotalsOnePointEight)
{
    const auto m = OverheadModel::paperDefault();
    EXPECT_DOUBLE_EQ(m.latchFo4, 1.0);
    EXPECT_DOUBLE_EQ(m.skewFo4, 0.3);
    EXPECT_DOUBLE_EQ(m.jitterFo4, 0.5);
    EXPECT_DOUBLE_EQ(m.totalFo4(), 1.8);
}

TEST(Overhead, KurdMeasurementsReproduceTableOne)
{
    // 20 ps skew and 35 ps jitter at 180nm -> 0.3 and 0.5 FO4.
    const auto m = OverheadModel::fromKurdMeasurements(Technology::nm(180.0));
    EXPECT_DOUBLE_EQ(m.skewFo4, 0.3);
    EXPECT_DOUBLE_EQ(m.jitterFo4, 0.5);
    EXPECT_DOUBLE_EQ(m.totalFo4(), 1.8);
}

TEST(Overhead, UniformHasNoDecomposition)
{
    const auto m = OverheadModel::uniform(3.0);
    EXPECT_DOUBLE_EQ(m.totalFo4(), 3.0);
    EXPECT_DOUBLE_EQ(m.skewFo4, 0.0);
}

TEST(ClockModel, PeriodAddsOverhead)
{
    ClockModel clk;
    clk.tUsefulFo4 = 6.0;
    EXPECT_DOUBLE_EQ(clk.periodFo4(), 7.8);
}

TEST(ClockModel, PaperOptimalIntegerClock)
{
    // 6 FO4 useful + 1.8 overhead = 7.8 FO4 -> ~3.6 GHz at 100nm.
    ClockModel clk;
    clk.tUsefulFo4 = 6.0;
    EXPECT_NEAR(clk.frequencyGhz(), 3.56, 0.05);
    EXPECT_NEAR(clk.periodPs(), 280.8, 0.1);
}

TEST(ClockModel, PaperOptimalVectorClock)
{
    // 4 FO4 useful -> 5.8 FO4 period -> ~4.8 GHz at 100nm.
    ClockModel clk;
    clk.tUsefulFo4 = 4.0;
    EXPECT_NEAR(clk.frequencyGhz(), 4.79, 0.05);
}

TEST(ClockModel, LatencyCyclesIsCeiling)
{
    ClockModel clk;
    clk.tUsefulFo4 = 10.0;
    // Register file: 0.39 ns at 100nm = 10.83 FO4 -> 2 cycles (paper 3.3).
    EXPECT_EQ(clk.latencyCycles(10.83), 2);
    clk.tUsefulFo4 = 6.0;
    EXPECT_EQ(clk.latencyCycles(10.83), 2);
    clk.tUsefulFo4 = 11.0;
    EXPECT_EQ(clk.latencyCycles(10.83), 1);
}

TEST(ClockModel, LatencyCyclesMinimumOne)
{
    ClockModel clk;
    clk.tUsefulFo4 = 16.0;
    EXPECT_EQ(clk.latencyCycles(0.0), 1);
    EXPECT_EQ(clk.latencyCycles(1.0), 1);
}

TEST(ClockModel, RegisterFileRowOfTableThree)
{
    // Table 3 register-file row: 6 4 3 3 2 2 2 2 2 1 ... for t=2..11.
    const double rfFo4 = 10.83;
    const int expected[] = {6, 4, 3, 3, 2, 2, 2, 2, 2, 1};
    for (int t = 2; t <= 11; ++t) {
        ClockModel clk;
        clk.tUsefulFo4 = t;
        EXPECT_EQ(clk.latencyCycles(rfFo4), expected[t - 2])
            << "t_useful=" << t;
    }
}

TEST(ClockModel, IntMultiplyRowOfTableThree)
{
    // Table 3 integer-multiply row comes from 7 cycles x 17.4 FO4 on the
    // Alpha 21264: 61 41 31 25 21 18 16 14 13 12 11 10 9 9 8 for t=2..16.
    const double multFo4 = 7.0 * alpha21264PeriodFo4;
    const int expected[] = {61, 41, 31, 25, 21, 18, 16, 14,
                            13, 12, 11, 10, 9, 9, 8};
    for (int t = 2; t <= 16; ++t) {
        ClockModel clk;
        clk.tUsefulFo4 = t;
        EXPECT_EQ(clk.latencyCycles(multFo4), expected[t - 2])
            << "t_useful=" << t;
    }
}

TEST(ClockModel, BipsIsIpcTimesFrequency)
{
    ClockModel clk;
    clk.tUsefulFo4 = 6.0;
    EXPECT_NEAR(clk.bips(2.0), 2.0 * clk.frequencyGhz(), 1e-12);
}

TEST(ClockModel, DeeperPipelineFasterClock)
{
    ClockModel deep, shallow;
    deep.tUsefulFo4 = 2.0;
    shallow.tUsefulFo4 = 16.0;
    EXPECT_GT(deep.frequencyGhz(), shallow.frequencyGhz());
}

TEST(ClockModel, OverheadCompressesFrequencyGain)
{
    // Halving t_useful from 8 to 4 with 1.8 overhead gives less than a 2x
    // frequency gain (paper Section 4.1).
    ClockModel fast, slow;
    fast.tUsefulFo4 = 4.0;
    slow.tUsefulFo4 = 8.0;
    const double gain = fast.frequencyGhz() / slow.frequencyGhz();
    EXPECT_LT(gain, 2.0);
    EXPECT_GT(gain, 1.5);
}

// ---------------------------------------------------------------------
// OverheadModel::validated — the typed gate for computed (sampled or
// user-supplied) decompositions.
// ---------------------------------------------------------------------

TEST(OverheadValidated, AcceptsNonDefaultDraws)
{
    const auto m = fo4::tech::OverheadModel::validated(1.07, 0.28, 0.55);
    EXPECT_EQ(m.latchFo4, 1.07);
    EXPECT_EQ(m.skewFo4, 0.28);
    EXPECT_EQ(m.jitterFo4, 0.55);
    EXPECT_DOUBLE_EQ(m.totalFo4(), 1.07 + 0.28 + 0.55);
}

TEST(OverheadValidated, AcceptsZeroComponents)
{
    const auto m = fo4::tech::OverheadModel::validated(1.8, 0.0, 0.0);
    EXPECT_EQ(m.totalFo4(), 1.8);
}

TEST(OverheadValidated, RejectsNegativeInsteadOfClamping)
{
    EXPECT_THROW(fo4::tech::OverheadModel::validated(-0.1, 0.3, 0.5),
                 fo4::util::ConfigError);
    EXPECT_THROW(fo4::tech::OverheadModel::validated(1.0, -0.01, 0.5),
                 fo4::util::ConfigError);
    EXPECT_THROW(fo4::tech::OverheadModel::validated(1.0, 0.3, -2.0),
                 fo4::util::ConfigError);
}

TEST(OverheadValidated, RejectsNonFinite)
{
    const double inf = std::numeric_limits<double>::infinity();
    const double nan = std::numeric_limits<double>::quiet_NaN();
    EXPECT_THROW(fo4::tech::OverheadModel::validated(inf, 0.3, 0.5),
                 fo4::util::ConfigError);
    EXPECT_THROW(fo4::tech::OverheadModel::validated(1.0, nan, 0.5),
                 fo4::util::ConfigError);
}

TEST(OverheadValidated, NamesEveryBadComponentAtOnce)
{
    try {
        fo4::tech::OverheadModel::validated(-1.0, -0.5, -0.1);
        FAIL() << "expected ConfigError";
    } catch (const fo4::util::ConfigError &e) {
        const std::string what = e.what();
        EXPECT_NE(what.find("latch"), std::string::npos);
        EXPECT_NE(what.find("skew"), std::string::npos);
        EXPECT_NE(what.find("jitter"), std::string::npos);
    }
}

// ---------------------------------------------------------------------
// ClockModel::validate — the one range rule every clock passes through
// (scaledCoreParams, planSweep, validateSuiteInputs).
// ---------------------------------------------------------------------

namespace
{

ClockModel
clockAt(double tUseful, OverheadModel overhead = OverheadModel::paperDefault())
{
    ClockModel clock;
    clock.tUsefulFo4 = tUseful;
    clock.overhead = overhead;
    return clock;
}

} // namespace

TEST(ClockValidate, AcceptsPaperClocksAndTheSmallestSafeDepth)
{
    for (const double t : {2.0, 6.0, 16.0, 0.25, kMinUsefulFo4})
        EXPECT_TRUE(clockAt(t).validate().isOk()) << t;
    // At the floor, the longest latency still fits a cycle count.
    EXPECT_GT(clockAt(kMinUsefulFo4).latencyCycles(kMaxLatencyFo4), 0);
}

TEST(ClockValidate, RefusesAUsefulDepthThatIsNotFiniteAndPositive)
{
    const double inf = std::numeric_limits<double>::infinity();
    for (const double t :
         {std::numeric_limits<double>::quiet_NaN(), inf, -inf, 0.0, -6.0}) {
        const fo4::util::Status st = clockAt(t).validate();
        EXPECT_EQ(st.code(), fo4::util::ErrorCode::InvalidConfig) << t;
        EXPECT_NE(st.message().find("t_useful"), std::string::npos);
    }
}

TEST(ClockValidate, RefusesAUsefulDepthWhoseCycleCountOverflows)
{
    for (const double t : {std::numeric_limits<double>::denorm_min(),
                           kMinUsefulFo4 / 2.0}) {
        const fo4::util::Status st = clockAt(t).validate();
        EXPECT_EQ(st.code(), fo4::util::ErrorCode::InvalidConfig) << t;
        EXPECT_NE(st.message().find("overflows"), std::string::npos);
    }
    // latencyCycles itself refuses, typed, rather than casting an
    // infinite quotient to int.
    EXPECT_THROW(clockAt(1.0).latencyCycles(1e300), fo4::util::ConfigError);
}

TEST(ClockValidate, RefusesNonFiniteOverheads)
{
    const double inf = std::numeric_limits<double>::infinity();
    const double nan = std::numeric_limits<double>::quiet_NaN();
    for (const OverheadModel &m :
         {OverheadModel::uniform(inf), OverheadModel::uniform(nan),
          OverheadModel{1.0, -inf, 0.5}, OverheadModel{1.0, 0.3, nan}}) {
        const fo4::util::Status st = clockAt(6.0, m).validate();
        EXPECT_EQ(st.code(), fo4::util::ErrorCode::InvalidConfig);
        EXPECT_NE(st.message().find("finite"), std::string::npos);
    }
    EXPECT_FALSE(clockAt(6.0, OverheadModel{-0.1, 0.3, 0.5}).validate().isOk());
}

TEST(ClockValidate, ScaledCoreParamsRefusesTyped)
{
    for (const double t : {std::numeric_limits<double>::quiet_NaN(),
                           std::numeric_limits<double>::infinity(),
                           std::numeric_limits<double>::denorm_min(),
                           0.0}) {
        EXPECT_THROW(fo4::study::scaledCoreParams(t), fo4::util::ConfigError)
            << t;
    }
}
