/**
 * @file
 * Tests for the table renderer and number formatting helpers.
 */

#include <sstream>

#include <gtest/gtest.h>

#include "common/table.hh"

namespace thermctl
{
namespace
{

TEST(TextTable, AlignsColumns)
{
    TextTable t;
    t.setHeader({"name", "value"});
    t.addRow({"x", "1"});
    t.addRow({"longer-name", "22"});
    std::ostringstream os;
    t.print(os);
    const std::string out = os.str();
    EXPECT_NE(out.find("name"), std::string::npos);
    EXPECT_NE(out.find("longer-name"), std::string::npos);
    // All data lines have equal length (fixed column widths).
    std::istringstream is(out);
    std::string line;
    std::getline(is, line);
    const auto header_len = line.size();
    std::getline(is, line); // rule
    while (std::getline(is, line))
        EXPECT_EQ(line.size(), header_len);
}

TEST(Format, Double)
{
    EXPECT_EQ(formatDouble(3.14159, 2), "3.14");
    EXPECT_EQ(formatDouble(-1.5, 0), "-2");
}

TEST(Format, Percent)
{
    EXPECT_EQ(formatPercent(0.1234, 1), "12.3%");
    EXPECT_EQ(formatPercent(1.0, 0), "100%");
}

TEST(Format, Scientific)
{
    EXPECT_EQ(formatSci(5e-6, 1), "5.0e-06");
}

} // namespace
} // namespace thermctl
