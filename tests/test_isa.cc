/**
 * @file
 * Tests for op classes, micro-ops and the FO4-scaled functional-unit
 * latency model (the FU half of Table 3).
 */

#include <gtest/gtest.h>

#include "isa/latencies.hh"
#include "isa/microop.hh"
#include "tech/fo4.hh"

using namespace fo4::isa;
using fo4::tech::ClockModel;

TEST(OpClass, FloatClassification)
{
    EXPECT_TRUE(isFloat(OpClass::FpAdd));
    EXPECT_TRUE(isFloat(OpClass::FpMult));
    EXPECT_TRUE(isFloat(OpClass::FpDiv));
    EXPECT_TRUE(isFloat(OpClass::FpSqrt));
    EXPECT_FALSE(isFloat(OpClass::IntAlu));
    EXPECT_FALSE(isFloat(OpClass::Load));
    EXPECT_FALSE(isFloat(OpClass::Branch));
}

TEST(OpClass, MemoryClassification)
{
    EXPECT_TRUE(isMemory(OpClass::Load));
    EXPECT_TRUE(isMemory(OpClass::Store));
    EXPECT_FALSE(isMemory(OpClass::IntAlu));
    EXPECT_FALSE(isMemory(OpClass::FpDiv));
}

TEST(OpClass, NamesAreDistinct)
{
    EXPECT_STRNE(opClassName(OpClass::IntAlu), opClassName(OpClass::Load));
    EXPECT_STRNE(opClassName(OpClass::FpAdd), opClassName(OpClass::FpMult));
}

TEST(MicroOp, PredicatesFollowClass)
{
    MicroOp op;
    op.cls = OpClass::Load;
    EXPECT_TRUE(op.isLoad());
    EXPECT_FALSE(op.isStore());
    op.cls = OpClass::Store;
    EXPECT_TRUE(op.isStore());
    op.cls = OpClass::Branch;
    EXPECT_TRUE(op.isBranch());
}

TEST(MicroOp, ToStringMentionsClassAndRegs)
{
    MicroOp op;
    op.seq = 7;
    op.cls = OpClass::Load;
    op.dst = 3;
    op.src1 = 1;
    op.addr = 0x1000;
    const std::string s = op.toString();
    EXPECT_NE(s.find("load"), std::string::npos);
    EXPECT_NE(s.find("dst=3"), std::string::npos);
    EXPECT_NE(s.find("0x1000"), std::string::npos);
}

TEST(Latencies, Alpha21264TableRow)
{
    // Table 3 last row.
    EXPECT_EQ(alpha21264Cycles(OpClass::IntAlu), 1);
    EXPECT_EQ(alpha21264Cycles(OpClass::IntMult), 7);
    EXPECT_EQ(alpha21264Cycles(OpClass::FpAdd), 4);
    EXPECT_EQ(alpha21264Cycles(OpClass::FpMult), 4);
    EXPECT_EQ(alpha21264Cycles(OpClass::FpDiv), 12);
    EXPECT_EQ(alpha21264Cycles(OpClass::FpSqrt), 18);
}

TEST(Latencies, Fo4IsCyclesTimesAlphaPeriod)
{
    EXPECT_DOUBLE_EQ(latencyFo4(OpClass::IntAlu), 17.4);
    EXPECT_DOUBLE_EQ(latencyFo4(OpClass::FpDiv), 12 * 17.4);
}

// Parameterized check of every functional-unit row of Table 3 against
// the paper's published cycle counts.
struct TableRow
{
    OpClass cls;
    int cycles[15]; // t_useful = 2..16
};

class Table3Fus : public ::testing::TestWithParam<TableRow>
{
};

TEST_P(Table3Fus, MatchesPaper)
{
    const TableRow &row = GetParam();
    for (int t = 2; t <= 16; ++t) {
        ClockModel clock;
        clock.tUsefulFo4 = t;
        EXPECT_EQ(executeCycles(row.cls, clock), row.cycles[t - 2])
            << opClassName(row.cls) << " at t=" << t;
    }
}

// gtest prints each row's raw bytes into its test name, padding after
// `cls` included.  A static array is zero-initialised first, so that
// padding is zero and the names are the same on every build; rows built
// as temporaries would leak stack garbage into them.
const TableRow kTable3Rows[] = {
    {OpClass::IntAlu, {9, 6, 5, 4, 3, 3, 3, 2, 2, 2, 2, 2, 2, 2, 2}},
    {OpClass::IntMult,
     {61, 41, 31, 25, 21, 18, 16, 14, 13, 12, 11, 10, 9, 9, 8}},
    {OpClass::FpAdd, {35, 24, 18, 14, 12, 10, 9, 8, 7, 7, 6, 6, 5, 5, 5}},
    {OpClass::FpMult, {35, 24, 18, 14, 12, 10, 9, 8, 7, 7, 6, 6, 5, 5, 5}},
    {OpClass::FpDiv,
     {105, 70, 53, 42, 35, 30, 27, 24, 21, 19, 18, 17, 15, 14, 14}},
    {OpClass::FpSqrt,
     {157, 105, 79, 63, 53, 45, 40, 35, 32, 29, 27, 25, 23, 21, 20}},
};

INSTANTIATE_TEST_SUITE_P(PaperRows, Table3Fus,
                         ::testing::ValuesIn(kTable3Rows));
