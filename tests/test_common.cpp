// Tests for src/common: formatting, tables, RNG, error helpers.
#include <gtest/gtest.h>

#include <climits>
#include <clocale>
#include <cmath>
#include <cstdint>
#include <cstdio>
#include <cstring>
#include <iterator>
#include <set>
#include <string>
#include <vector>

#include "common/error.h"
#include "common/json.h"
#include "common/rng.h"
#include "common/strings.h"
#include "common/table.h"
#include "common/units.h"

namespace bfpp {
namespace {

TEST(Strings, StrFormatBasic) {
  EXPECT_EQ(str_format("%d-%s", 42, "x"), "42-x");
  EXPECT_EQ(str_format("%.2f", 3.14159), "3.14");
  EXPECT_EQ(str_format("%5s%%", "3.1"), "  3.1%");  // a padded number
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

TEST(Strings, FormatPercent) {
  EXPECT_EQ(format_percent(0.4217), "42.2%");
  EXPECT_EQ(format_percent(1.0 / 3.0, 5), " 33.3%");
  EXPECT_EQ(format_percent(0.05, 0, true), "+5.0%");
  EXPECT_EQ(format_percent(-0.0004, 0, true), "-0.0%");
  EXPECT_EQ(format_fixed(2.25, 1, 5), "  2.2");
  EXPECT_EQ(format_fixed(123456.0, 1, 5), "123456.0");
  // The widths printf pads the validate and compare tables to.
  char want[32];
  for (double x : {0.0, 0.0049, 0.42, 0.999, 1.0, 12.5, -0.3}) {
    std::snprintf(want, sizeof want, "%5.1f%%", 100.0 * x);
    EXPECT_EQ(format_percent(x, 5), want);
    std::snprintf(want, sizeof want, "%+.1f%%", 100.0 * x);
    EXPECT_EQ(format_percent(x, 0, true), want);
  }
}

TEST(Strings, FormattingIsLocaleIndependent) {
  // A locale with ',' as decimal separator must not leak into the
  // formatters (Report CSV/JSON depend on stable '.' output) or the JSON
  // number parser.
  if (std::setlocale(LC_NUMERIC, "de_DE.UTF-8") == nullptr &&
      std::setlocale(LC_NUMERIC, "fr_FR.UTF-8") == nullptr) {
    GTEST_SKIP() << "neither de_DE.UTF-8 nor fr_FR.UTF-8 is installed, so "
                    "no ','-radix locale can be switched to";
  }
  EXPECT_EQ(format_fixed(3.14159, 2), "3.14");
  std::string general;
  append_general(general, 0.25, 10);
  EXPECT_EQ(general, "0.25");
  EXPECT_EQ(json::parse("2.5").as_number(), 2.5);
  EXPECT_EQ(format_number(42.77), "42.77");
  EXPECT_EQ(format_bytes(15.96e9), "15.96 GB");
  std::setlocale(LC_NUMERIC, "C");
}

TEST(Strings, NumberFormatterMatchesPrintf) {
  // The formatter's contract: exactly the bytes printf's "%.10g",
  // "%.17g" and "%.0f".."%.3f" print in the C locale, which the wire
  // form, the golden files and the cache keys rest on. snprintf is the
  // reference here only.
  std::vector<double> values = {
      0.0,      -0.0,     5e-324, -5e-324, 2.2250738585072009e-308,
      HUGE_VAL, -HUGE_VAL, 1.7976931348623157e308, std::nan("")};
  // Where %g switches notation (1e-4/1e-5; 1e10 at 10 digits; 1e16/1e17
  // at 17), where rounding carries into a new digit, and %.Nf halves.
  const double edges[] = {1e-5, 1e-4, 9.9999999995e-5, 1e10, 9.9999999995e9,
                          1e16, 1e17, 9.99999999999999e16, 0.5, 0.0005, 0.125,
                          2.5e-3};
  Rng rng(18);
  while (values.size() < 1'000'000) {
    const uint64_t bits = rng.next_u64();
    double x = 0.0;
    switch (values.size() % 5) {
      case 0:  // any bit pattern: NaNs, infinities, subnormals, 1e308
        std::memcpy(&x, &bits, sizeof x);
        break;
      case 1: {  // subnormals
        const uint64_t mantissa = bits & ((uint64_t{1} << 52) - 1);
        std::memcpy(&x, &mantissa, sizeof x);
        break;
      }
      case 2:  // integers >= 1e10
        x = std::floor(rng.uniform(1e10, 1e18));
        break;
      case 3: {  // up to 63 ulps either side of an edge
        x = edges[bits % std::size(edges)];
        const double toward = (bits >> 8) % 2 ? 0.0 : HUGE_VAL;
        for (uint64_t k = (bits >> 16) % 64; k > 0; --k) {
          x = std::nextafter(x, toward);
        }
        break;
      }
      default:  // decimal magnitudes 1e-30..1e31
        x = rng.uniform(1.0, 10.0) *
            std::pow(10.0, static_cast<double>(bits % 61) - 30.0);
    }
    values.push_back(bits >> 63 ? -x : x);
  }

  std::string got;
  char want[400];
  int mismatches = 0;
  auto compare = [&](double x, const char* form, int precision) {
    if (got == want) return;
    if (++mismatches <= 5) {
      ADD_FAILURE() << form << " precision " << precision << " of "
                    << std::hexfloat << x << ": formatter " << got
                    << ", printf " << want;
    }
  };
  for (double x : values) {
    for (int precision : {10, 17}) {
      got.clear();
      append_general(got, x, precision);
      std::snprintf(want, sizeof want, "%.*g", precision, x);
      compare(x, "general", precision);
    }
    for (int precision = 0; precision <= 3; ++precision) {
      got.clear();
      append_fixed(got, x, precision);
      std::snprintf(want, sizeof want, "%.*f", precision, x);
      compare(x, "fixed", precision);
    }
  }
  EXPECT_EQ(mismatches, 0);
}

TEST(Strings, IntFormatterMatchesPrintf) {
  Rng rng(24);
  std::vector<long long> values = {0, -1, 1, LLONG_MIN, LLONG_MAX, INT_MIN,
                                   INT_MAX};
  while (values.size() < 10'000) {
    values.push_back(static_cast<long long>(rng.next_u64()) >>
                     (values.size() % 64));
  }
  char want[32];
  for (const long long x : values) {
    std::string got = "k=";
    append_int(got, x);
    std::snprintf(want, sizeof want, "k=%lld", x);
    ASSERT_EQ(got, want);
  }
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
