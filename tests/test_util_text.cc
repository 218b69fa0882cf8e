/**
 * @file
 * Unit tests for text tables, CSV output and the config store.
 */

#include <gtest/gtest.h>

#include <sstream>

#include "util/config.hh"
#include "util/csv.hh"
#include "util/table.hh"

using namespace fo4::util;

TEST(TextTable, AlignsColumns)
{
    TextTable t;
    t.setHeader({"name", "value"});
    t.addRow({"x", "1"});
    t.addRow({"longer", "22"});
    std::ostringstream os;
    t.print(os);
    const std::string out = os.str();
    // Header present, rule present, rows present.
    EXPECT_NE(out.find("name"), std::string::npos);
    EXPECT_NE(out.find("----"), std::string::npos);
    EXPECT_NE(out.find("longer"), std::string::npos);
    // Each line of the body starts at column 0 with the first cell.
    EXPECT_EQ(out.find("x"), out.find("x"));
}

TEST(TextTable, NumFormatsPrecision)
{
    EXPECT_EQ(TextTable::num(3.14159, 2), "3.14");
    EXPECT_EQ(TextTable::num(3.14159, 0), "3");
    EXPECT_EQ(TextTable::num(std::int64_t{-42}), "-42");
}

TEST(TextTable, CountsRowsAndColumns)
{
    TextTable t;
    t.setHeader({"a", "b", "c"});
    t.addRow({"1", "2", "3"});
    EXPECT_EQ(t.rows(), 1u);
    EXPECT_EQ(t.columns(), 3u);
}

TEST(TextTable, MismatchedRowPanics)
{
    TextTable t;
    t.setHeader({"a", "b"});
    EXPECT_DEATH(t.addRow({"only-one"}), "arity");
}

TEST(Csv, PlainFieldsUnquoted)
{
    EXPECT_EQ(csvEscape("hello"), "hello");
    EXPECT_EQ(csvEscape("3.14"), "3.14");
}

TEST(Csv, FieldsWithCommasQuoted)
{
    EXPECT_EQ(csvEscape("a,b"), "\"a,b\"");
}

TEST(Csv, QuotesDoubled)
{
    EXPECT_EQ(csvEscape("say \"hi\""), "\"say \"\"hi\"\"\"");
}

TEST(Csv, WritesRows)
{
    EXPECT_EQ(csvRow({"a", "b,c"}) + csvRow({"1", "2"}),
              "a,\"b,c\"\n1,2\n");
}

TEST(Config, ParsesKeyValuesAndPositional)
{
    const char *argv[] = {"prog", "t_useful=6", "run", "bips=1.5"};
    const Config cfg = Config::fromArgs(4, argv);
    EXPECT_EQ(cfg.getInt("t_useful", 0), 6);
    EXPECT_DOUBLE_EQ(cfg.getDouble("bips", 0.0), 1.5);
    ASSERT_EQ(cfg.positional().size(), 1u);
    EXPECT_EQ(cfg.positional()[0], "run");
}

TEST(Config, FallbacksWhenMissing)
{
    const Config cfg;
    EXPECT_EQ(cfg.getInt("missing", 7), 7);
    EXPECT_EQ(cfg.getString("missing", "dflt"), "dflt");
    EXPECT_TRUE(cfg.getBool("missing", true));
    EXPECT_FALSE(cfg.has("missing"));
}

TEST(Config, ParsesBooleans)
{
    Config cfg;
    cfg.set("a", "true");
    cfg.set("b", "0");
    cfg.set("c", "yes");
    EXPECT_TRUE(cfg.getBool("a", false));
    EXPECT_FALSE(cfg.getBool("b", true));
    EXPECT_TRUE(cfg.getBool("c", false));
}

TEST(Config, HexIntegers)
{
    Config cfg;
    cfg.set("addr", "0x10");
    EXPECT_EQ(cfg.getInt("addr", 0), 16);
}
