// Tests for src/common: formatting, tables, RNG, error helpers.
#include <gtest/gtest.h>

#include <clocale>
#include <cmath>
#include <set>

#include "common/error.h"
#include "common/rng.h"
#include "common/strings.h"
#include "common/table.h"
#include "common/units.h"

namespace bfpp {
namespace {

TEST(Strings, StrFormatBasic) {
  EXPECT_EQ(str_format("%d-%s", 42, "x"), "42-x");
  EXPECT_EQ(str_format("%.2f", 3.14159), "3.14");
  EXPECT_EQ(str_format("empty"), "empty");
}

TEST(Strings, StrFormatLongOutput) {
  const std::string big(500, 'a');
  EXPECT_EQ(str_format("%s!", big.c_str()).size(), 501u);
}

TEST(Strings, Join) {
  EXPECT_EQ(join({"a", "b", "c"}, ", "), "a, b, c");
  EXPECT_EQ(join({"solo"}, ", "), "solo");
  EXPECT_EQ(join({}, ", "), "");
}

TEST(Strings, FormatBytes) {
  EXPECT_EQ(format_bytes(15.96e9), "15.96 GB");
  EXPECT_EQ(format_bytes(552e6), "552.00 MB");
  EXPECT_EQ(format_bytes(12), "12 B");
  EXPECT_EQ(format_bytes(1.5e12), "1.50 TB");
}

TEST(Strings, FormatFlops) {
  EXPECT_EQ(format_flops(36.28e12), "36.28 Tflop/s");
  EXPECT_EQ(format_flops(1e15), "1.00 Pflop/s");
}

TEST(Strings, FormatTime) {
  EXPECT_EQ(format_time(2.5), "2.500 s");
  EXPECT_EQ(format_time(1.5e-3), "1.500 ms");
  EXPECT_EQ(format_time(30e-6), "30.000 us");
  EXPECT_EQ(format_time(5e-9), "5.0 ns");
}

TEST(Strings, FormattingIsLocaleIndependent) {
  // A locale with ',' as decimal separator must not leak into the
  // formatters (Report CSV/JSON depend on stable '.' output). Skipped
  // silently when no such locale is installed.
  const char* previous = std::setlocale(LC_NUMERIC, "de_DE.UTF-8");
  if (previous == nullptr) {
    previous = std::setlocale(LC_NUMERIC, "fr_FR.UTF-8");
  }
  EXPECT_EQ(str_format("%.2f", 3.14159), "3.14");
  EXPECT_EQ(format_number(42.77), "42.77");
  EXPECT_EQ(format_bytes(15.96e9), "15.96 GB");
  std::setlocale(LC_NUMERIC, "C");
}

TEST(Strings, ToLower) {
  EXPECT_EQ(to_lower("Breadth-First"), "breadth-first");
  EXPECT_EQ(to_lower("DP_FS"), "dp_fs");
  EXPECT_EQ(to_lower(""), "");
}

TEST(Strings, SplitWs) {
  EXPECT_EQ(split_ws("a  b\tc"), (std::vector<std::string>{"a", "b", "c"}));
  EXPECT_EQ(split_ws("  solo  "), std::vector<std::string>{"solo"});
  EXPECT_TRUE(split_ws("   ").empty());
  EXPECT_TRUE(split_ws("").empty());
}

TEST(Strings, ParseIntAcceptsExactlyNonNegativeDecimals) {
  EXPECT_EQ(parse_int("0"), 0);
  EXPECT_EQ(parse_int("8"), 8);
  EXPECT_EQ(parse_int("2147483647"), 2147483647);  // INT_MAX
}

TEST(Strings, ParseIntRejectsJunkAndOverflowWithoutThrowing) {
  // The whole point over bare std::stoi: no std::invalid_argument /
  // std::out_of_range, just nullopt the caller wraps in context.
  EXPECT_FALSE(parse_int("").has_value());
  EXPECT_FALSE(parse_int("foo").has_value());
  EXPECT_FALSE(parse_int("8foo").has_value());   // stoi would return 8
  EXPECT_FALSE(parse_int(" 8").has_value());     // stoi would skip ws
  EXPECT_FALSE(parse_int("-1").has_value());
  EXPECT_FALSE(parse_int("+1").has_value());
  EXPECT_FALSE(parse_int("2147483648").has_value());   // INT_MAX + 1
  EXPECT_FALSE(parse_int("99999999999999999999").has_value());
}

TEST(Strings, FormatNumberTrimsZeros) {
  EXPECT_EQ(format_number(42.77), "42.77");
  EXPECT_EQ(format_number(8.0), "8");
  EXPECT_EQ(format_number(0.5), "0.5");
  EXPECT_EQ(format_number(1.0 / 8.0, 3), "0.125");
}

TEST(Table, RendersAlignedColumns) {
  Table t({"Method", "B"});
  t.add_row({"Breadth-first", "8"});
  t.add_row({"DF", "512"});
  const std::string s = t.to_string();
  EXPECT_NE(s.find("| Method        | B   |"), std::string::npos);
  EXPECT_NE(s.find("| Breadth-first | 8   |"), std::string::npos);
  EXPECT_NE(s.find("| DF            | 512 |"), std::string::npos);
}

TEST(Table, RowArityChecked) {
  Table t({"a", "b"});
  EXPECT_THROW(t.add_row({"only-one"}), Error);
}

TEST(Table, SeparatorAddsRule) {
  Table t({"a"});
  t.add_row({"1"});
  t.add_separator();
  t.add_row({"2"});
  // 3 rules from frame + 1 separator.
  const std::string s = t.to_string();
  size_t rules = 0;
  for (size_t pos = 0; (pos = s.find("+--", pos)) != std::string::npos; ++pos)
    ++rules;
  EXPECT_EQ(rules, 4u);
}

TEST(Rng, Deterministic) {
  Rng a(123), b(123);
  for (int i = 0; i < 100; ++i) EXPECT_EQ(a.next_u64(), b.next_u64());
}

TEST(Rng, SeedsDiffer) {
  Rng a(1), b(2);
  EXPECT_NE(a.next_u64(), b.next_u64());
}

TEST(Rng, UniformInRange) {
  Rng rng(7);
  for (int i = 0; i < 1000; ++i) {
    const double u = rng.uniform();
    EXPECT_GE(u, 0.0);
    EXPECT_LT(u, 1.0);
  }
}

TEST(Rng, NormalMomentsRoughlyStandard) {
  Rng rng(11);
  double sum = 0, sum2 = 0;
  const int n = 20000;
  for (int i = 0; i < n; ++i) {
    const double x = rng.normal();
    sum += x;
    sum2 += x * x;
  }
  EXPECT_NEAR(sum / n, 0.0, 0.03);
  EXPECT_NEAR(sum2 / n, 1.0, 0.05);
}

TEST(Rng, NormalMeanStddev) {
  Rng rng(13);
  double sum = 0;
  const int n = 10000;
  for (int i = 0; i < n; ++i) sum += rng.normal(5.0, 2.0);
  EXPECT_NEAR(sum / n, 5.0, 0.1);
}

TEST(Error, CheckThrowsWithMessage) {
  EXPECT_NO_THROW(check(true, "fine"));
  try {
    check(false, "broken invariant");
    FAIL() << "expected throw";
  } catch (const Error& e) {
    EXPECT_STREQ(e.what(), "broken invariant");
  }
}

TEST(Error, FormatFormsFormatAndMessageFormsStayVerbatim) {
  // A message alone is never a format: its '%' prints as itself.
  try {
    check(false, "100% of %d cells");
    FAIL() << "expected throw";
  } catch (const Error& e) {
    EXPECT_STREQ(e.what(), "100% of %d cells");
  }
  EXPECT_NO_THROW(check_config(true, "cell %d of %s", 3, "grid"));
  try {
    check_config(false, "cell %d of %s (%.1f%%)", 3, "grid", 12.5);
    FAIL() << "expected throw";
  } catch (const ConfigError& e) {
    EXPECT_STREQ(e.what(), "cell 3 of grid (12.5%)");
  }
}

TEST(Error, ConfigErrorIsDistinguishable) {
  try {
    check_config(false, "bad config");
    FAIL() << "expected throw";
  } catch (const ConfigError&) {
    // Autotuner relies on catching exactly this type.
  }
}

TEST(Error, UsageErrorIsAConfigError) {
  // The CLI exits 2 on UsageError specifically, but every existing
  // catch(ConfigError) site must keep treating it as a config error.
  try {
    throw UsageError("--pp expects an integer");
  } catch (const ConfigError& e) {
    EXPECT_STREQ(e.what(), "--pp expects an integer");
  }
}

TEST(Units, Constants) {
  EXPECT_DOUBLE_EQ(kGB, 1e9);
  EXPECT_DOUBLE_EQ(kGiB, 1073741824.0);
  EXPECT_DOUBLE_EQ(kTflop, 1e12);
  EXPECT_DOUBLE_EQ(kSecondsPerDay, 86400.0);
}

}  // namespace
}  // namespace bfpp
