// Unit tests for the util module: checks, stats, tables, strings, PRNG,
// cache-line helpers.
#include <gtest/gtest.h>

#include <sstream>
#include <cstring>

#include "util/cacheline.h"
#include "util/check.h"
#include "util/prng.h"
#include "util/stats.h"
#include "util/str.h"
#include "util/table.h"

namespace xhc::util {
namespace {

TEST(Check, ThrowsWithMessage) {
  try {
    XHC_CHECK(1 == 2, "value was ", 42);
    FAIL() << "did not throw";
  } catch (const Error& e) {
    EXPECT_NE(std::string(e.what()).find("1 == 2"), std::string::npos);
    EXPECT_NE(std::string(e.what()).find("value was 42"), std::string::npos);
  }
}

TEST(Check, PassingConditionDoesNotThrow) {
  EXPECT_NO_THROW(XHC_CHECK(2 + 2 == 4, "fine"));
  EXPECT_NO_THROW(XHC_REQUIRE(true));
}

TEST(Stats, EmptyIsZero) {
  Stats s;
  EXPECT_EQ(s.count(), 0u);
  EXPECT_EQ(s.mean(), 0.0);
  EXPECT_EQ(s.variance(), 0.0);
}

TEST(Stats, MeanMinMax) {
  Stats s;
  for (const double x : {3.0, 1.0, 2.0}) s.add(x);
  EXPECT_DOUBLE_EQ(s.mean(), 2.0);
  EXPECT_DOUBLE_EQ(s.min(), 1.0);
  EXPECT_DOUBLE_EQ(s.max(), 3.0);
  EXPECT_EQ(s.count(), 3u);
}

TEST(Stats, VarianceMatchesDefinition) {
  Stats s;
  for (const double x : {2.0, 4.0, 4.0, 4.0, 5.0, 5.0, 7.0, 9.0}) s.add(x);
  EXPECT_NEAR(s.variance(), 32.0 / 7.0, 1e-12);
  EXPECT_NEAR(s.stddev() * s.stddev(), s.variance(), 1e-12);
}

TEST(Stats, PercentileInterpolates) {
  EXPECT_DOUBLE_EQ(percentile({1.0, 2.0, 3.0, 4.0}, 0.0), 1.0);
  EXPECT_DOUBLE_EQ(percentile({1.0, 2.0, 3.0, 4.0}, 1.0), 4.0);
  EXPECT_DOUBLE_EQ(percentile({1.0, 2.0, 3.0, 4.0}, 0.5), 2.5);
  EXPECT_DOUBLE_EQ(percentile({5.0}, 0.9), 5.0);
}

TEST(Stats, PercentileRejectsBadInput) {
  EXPECT_THROW(percentile({}, 0.5), Error);
  EXPECT_THROW(percentile({1.0}, 1.5), Error);
}

TEST(Stats, PercentileEmptyThrowsForEveryQ) {
  EXPECT_THROW(percentile({}, 0.0), Error);
  EXPECT_THROW(percentile({}, 1.0), Error);
}

TEST(Stats, PercentileRejectsNegativeQ) {
  EXPECT_THROW(percentile({1.0, 2.0}, -0.1), Error);
}

TEST(Stats, PercentileSingleSampleIsConstant) {
  EXPECT_DOUBLE_EQ(percentile({7.5}, 0.0), 7.5);
  EXPECT_DOUBLE_EQ(percentile({7.5}, 0.5), 7.5);
  EXPECT_DOUBLE_EQ(percentile({7.5}, 1.0), 7.5);
}

TEST(Stats, PercentileSortsUnorderedInput) {
  EXPECT_DOUBLE_EQ(percentile({9.0, 1.0, 5.0}, 0.0), 1.0);
  EXPECT_DOUBLE_EQ(percentile({9.0, 1.0, 5.0}, 0.5), 5.0);
  EXPECT_DOUBLE_EQ(percentile({9.0, 1.0, 5.0}, 1.0), 9.0);
}

TEST(Stats, VarianceUndefinedBelowTwoSamples) {
  Stats s;
  s.add(42.0);
  EXPECT_EQ(s.count(), 1u);
  EXPECT_EQ(s.variance(), 0.0);  // n-1 denominator would divide by zero
  EXPECT_EQ(s.stddev(), 0.0);
  EXPECT_DOUBLE_EQ(s.mean(), 42.0);
  EXPECT_DOUBLE_EQ(s.min(), 42.0);
  EXPECT_DOUBLE_EQ(s.max(), 42.0);
  s.add(42.0);  // two identical samples: defined, and exactly zero
  EXPECT_EQ(s.variance(), 0.0);
}

TEST(Table, AlignsAndCounts) {
  Table t({"A", "Bee"});
  t.add_row({"x", "1"});
  t.add_row({"longer", "22"});
  EXPECT_EQ(t.rows(), 2u);
  std::ostringstream os;
  t.print(os);
  EXPECT_NE(os.str().find("longer"), std::string::npos);
}

TEST(Table, RejectsWrongArity) {
  Table t({"A", "B"});
  EXPECT_THROW(t.add_row({"only-one"}), Error);
}

TEST(Table, CsvOutput) {
  Table t({"A", "B"});
  t.add_row({"1", "2"});
  std::ostringstream os;
  t.print_csv(os);
  EXPECT_EQ(os.str(), "A,B\n1,2\n");
}

TEST(Table, FormatsBytes) {
  EXPECT_EQ(Table::fmt_bytes(4), "4");
  EXPECT_EQ(Table::fmt_bytes(2048), "2K");
  EXPECT_EQ(Table::fmt_bytes(3 << 20), "3M");
  EXPECT_EQ(Table::fmt_bytes(1500), "1500");  // not a whole K
}

TEST(Str, SplitKeepsEmptyFields) {
  const auto parts = split("a,,b", ',');
  ASSERT_EQ(parts.size(), 3u);
  EXPECT_EQ(parts[1], "");
}

TEST(Str, JoinRoundTrip) {
  EXPECT_EQ(join({"a", "b", "c"}, "+"), "a+b+c");
  EXPECT_EQ(join({}, "+"), "");
}

TEST(Str, ParseSizeSuffixes) {
  EXPECT_EQ(parse_size("4"), 4u);
  EXPECT_EQ(parse_size("2K"), 2048u);
  EXPECT_EQ(parse_size("1m"), 1048576u);
  EXPECT_EQ(parse_size("1G"), 1073741824u);
  EXPECT_FALSE(parse_size("").has_value());
  EXPECT_FALSE(parse_size("K").has_value());
  EXPECT_FALSE(parse_size("12x").has_value());
}

TEST(Str, ArgsParsing) {
  const char* argv[] = {"prog", "--quick", "--n=42", "--rate=1.5"};
  Args args(4, const_cast<char**>(argv));
  EXPECT_TRUE(args.has("quick"));
  EXPECT_FALSE(args.has("slow"));
  EXPECT_EQ(args.get_long("n", 0), 42);
  EXPECT_DOUBLE_EQ(args.get_double("rate", 0.0), 1.5);
  EXPECT_EQ(args.get("missing", "def"), "def");
}

/// Message of the util::Error `f` throws, or "" when it does not throw.
template <typename F>
std::string error_of(F f) {
  try {
    f();
  } catch (const Error& e) {
    return e.what();
  }
  return "";
}

TEST(Str, ArgsRejectGarbageNumbers) {
  const char* argv[] = {"prog", "--jobs=abc", "--rate=fast"};
  Args args(3, const_cast<char**>(argv));
  const std::string l = error_of([&] { (void)args.get_long("jobs", 1); });
  EXPECT_NE(l.find("--jobs=abc"), std::string::npos) << l;
  const std::string d = error_of([&] { (void)args.get_double("rate", 1.0); });
  EXPECT_NE(d.find("--rate=fast"), std::string::npos) << d;
}

TEST(Str, ArgsRejectTrailingJunk) {
  const char* argv[] = {"prog", "--jobs=4x", "--rate=1.5us"};
  Args args(3, const_cast<char**>(argv));
  const std::string l = error_of([&] { (void)args.get_long("jobs", 1); });
  EXPECT_NE(l.find("--jobs=4x"), std::string::npos) << l;
  const std::string d = error_of([&] { (void)args.get_double("rate", 1.0); });
  EXPECT_NE(d.find("--rate=1.5us"), std::string::npos) << d;
}

TEST(Str, ArgsRejectOutOfRange) {
  const char* argv[] = {"prog", "--seed=99999999999999999999999",
                        "--rate=1e999"};
  Args args(3, const_cast<char**>(argv));
  const std::string l = error_of([&] { (void)args.get_long("seed", 1); });
  EXPECT_NE(l.find("--seed="), std::string::npos) << l;
  EXPECT_NE(l.find("out of range"), std::string::npos) << l;
  const std::string d = error_of([&] { (void)args.get_double("rate", 1.0); });
  EXPECT_NE(d.find("--rate=1e999"), std::string::npos) << d;
  EXPECT_NE(d.find("out of range"), std::string::npos) << d;
}

TEST(Str, ArgsRejectBareTokens) {
  const char* argv[] = {"prog", "--preset", "armn1"};
  const std::string e =
      error_of([&] { Args args(3, const_cast<char**>(argv)); });
  EXPECT_NE(e.find("'armn1'"), std::string::npos) << e;
}

TEST(Prng, Deterministic) {
  SplitMix64 a(7);
  SplitMix64 b(7);
  for (int i = 0; i < 100; ++i) EXPECT_EQ(a.next(), b.next());
}

TEST(Prng, DoubleInUnitInterval) {
  SplitMix64 rng(3);
  for (int i = 0; i < 1000; ++i) {
    const double x = rng.next_double();
    EXPECT_GE(x, 0.0);
    EXPECT_LT(x, 1.0);
  }
}

TEST(Prng, FillPatternSeedSensitive) {
  std::vector<std::byte> a(100);
  std::vector<std::byte> b(100);
  fill_pattern(a.data(), a.size(), 1);
  fill_pattern(b.data(), b.size(), 2);
  EXPECT_NE(std::memcmp(a.data(), b.data(), a.size()), 0);
  fill_pattern(b.data(), b.size(), 1);
  EXPECT_EQ(std::memcmp(a.data(), b.data(), a.size()), 0);
}

TEST(Prng, FillPatternOddLengths) {
  // Exercise the sub-word tail path.
  for (const std::size_t len : {1u, 3u, 7u, 9u, 15u}) {
    std::vector<std::byte> buf(len + 1, std::byte{0xEE});
    fill_pattern(buf.data(), len, 5);
    EXPECT_EQ(buf[len], std::byte{0xEE}) << "overwrote past end, len=" << len;
  }
}

TEST(Cacheline, PaddedSizeIsLineMultiple) {
  EXPECT_EQ(sizeof(CachePadded<std::uint64_t>) % kCacheLine, 0u);
  EXPECT_EQ(sizeof(CachePadded<char>), kCacheLine);
  struct Big {
    char data[100];
  };
  EXPECT_EQ(sizeof(CachePadded<Big>) % kCacheLine, 0u);
}

TEST(Cacheline, LineOfGroupsNeighbours) {
  alignas(64) char buf[128];
  EXPECT_EQ(line_of(&buf[0]), line_of(&buf[63]));
  EXPECT_NE(line_of(&buf[0]), line_of(&buf[64]));
}

}  // namespace
}  // namespace xhc::util
