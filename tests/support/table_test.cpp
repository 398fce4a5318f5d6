#include "support/table.hpp"

#include <gtest/gtest.h>

#include <algorithm>

namespace dhtlb::support {
namespace {

TEST(TextTable, RendersHeaderAndRows) {
  TextTable t({"name", "value"});
  t.add_row({"alpha", "1"});
  t.add_row({"b", "22"});
  const std::string out = t.render();
  EXPECT_NE(out.find("name"), std::string::npos);
  EXPECT_NE(out.find("alpha"), std::string::npos);
  EXPECT_NE(out.find("22"), std::string::npos);
  EXPECT_NE(out.find("-----"), std::string::npos) << "header rule present";
}

TEST(TextTable, ColumnsAreAligned) {
  TextTable t({"a", "b"});
  t.add_row({"xxxx", "1"});
  t.add_row({"y", "2"});
  const std::string out = t.render();
  // Both data rows must place column b at the same offset.
  const auto row1 = out.find("xxxx  1");
  const auto row2 = out.find("y     2");
  EXPECT_NE(row1, std::string::npos);
  EXPECT_NE(row2, std::string::npos);
}

TEST(TextTable, ArityMismatchThrows) {
  TextTable t({"a", "b"});
  EXPECT_THROW(t.add_row({"only-one"}), std::invalid_argument);
  EXPECT_THROW(t.add_row({"1", "2", "3"}), std::invalid_argument);
}

TEST(TextTable, RowCount) {
  // The header and its rule, then one line per added row.
  TextTable t({"a"});
  const auto lines = [&] {
    const std::string out = t.render();
    return std::count(out.begin(), out.end(), '\n');
  };
  EXPECT_EQ(lines(), 2);
  t.add_row({"x"});
  t.add_row({"y"});
  EXPECT_EQ(lines(), 4);
}

TEST(FormatFixed, Precision) {
  EXPECT_EQ(format_fixed(3.14159, 2), "3.14");
  EXPECT_EQ(format_fixed(3.0, 3), "3.000");
  EXPECT_EQ(format_fixed(-1.5, 1), "-1.5");
  EXPECT_EQ(format_fixed(0.005, 2), "0.01") << "rounds half up";
}

TEST(FormatCount, ThousandsSeparators) {
  EXPECT_EQ(format_count(0), "0");
  EXPECT_EQ(format_count(999), "999");
  EXPECT_EQ(format_count(1000), "1,000");
  EXPECT_EQ(format_count(1234567), "1,234,567");
  EXPECT_EQ(format_count(100000), "100,000");
  EXPECT_EQ(format_count(1000000000ULL), "1,000,000,000");
}

}  // namespace
}  // namespace dhtlb::support
