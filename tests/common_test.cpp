// Unit tests for src/common: bit utilities, RNG, statistics, string
// helpers, flags and errors.
#include <gtest/gtest.h>

#include <algorithm>
#include <atomic>
#include <cmath>
#include <cstdio>
#include <fstream>
#include <mutex>
#include <set>
#include <string>
#include <thread>
#include <vector>

#include "common/bitutil.h"
#include "common/diag.h"
#include "common/error.h"
#include "common/flags.h"
#include "common/json.h"
#include "common/rng.h"
#include "common/stats.h"
#include "common/strutil.h"
#include "common/thread_pool.h"
#include "temp_path.h"

namespace reese {
namespace {

// --- bitutil -----------------------------------------------------------------

TEST(BitUtil, SignExtendPositive) {
  EXPECT_EQ(sign_extend(0x7F, 8), 0x7F);
  EXPECT_EQ(sign_extend(0x1, 1), -1);
  EXPECT_EQ(sign_extend(0x0, 1), 0);
  EXPECT_EQ(sign_extend(0x1FFF, 14), 0x1FFF);
}

TEST(BitUtil, SignExtendNegative) {
  EXPECT_EQ(sign_extend(0xFF, 8), -1);
  EXPECT_EQ(sign_extend(0x80, 8), -128);
  EXPECT_EQ(sign_extend(0x2000, 14), -8192);
  EXPECT_EQ(sign_extend(0x3FFF, 14), -1);
}

TEST(BitUtil, SignExtendFullWidth) {
  EXPECT_EQ(sign_extend(~u64{0}, 64), -1);
  EXPECT_EQ(sign_extend(u64{1} << 63, 64), INT64_MIN);
}

TEST(BitUtil, ExtractBits) {
  EXPECT_EQ(extract_bits(0xABCD, 0, 4), 0xDu);
  EXPECT_EQ(extract_bits(0xABCD, 4, 4), 0xCu);
  EXPECT_EQ(extract_bits(0xABCD, 8, 8), 0xABu);
  EXPECT_EQ(extract_bits(~u64{0}, 0, 64), ~u64{0});
}

TEST(BitUtil, FitsSigned) {
  EXPECT_TRUE(fits_signed(8191, 14));
  EXPECT_FALSE(fits_signed(8192, 14));
  EXPECT_TRUE(fits_signed(-8192, 14));
  EXPECT_FALSE(fits_signed(-8193, 14));
  EXPECT_TRUE(fits_signed(0, 1));
  EXPECT_TRUE(fits_signed(-1, 1));
  EXPECT_FALSE(fits_signed(1, 1));
}

TEST(BitUtil, FitsUnsigned) {
  EXPECT_TRUE(fits_unsigned(255, 8));
  EXPECT_FALSE(fits_unsigned(256, 8));
  EXPECT_TRUE(fits_unsigned(0, 1));
}

TEST(BitUtil, Pow2Helpers) {
  EXPECT_TRUE(is_pow2(1));
  EXPECT_TRUE(is_pow2(4096));
  EXPECT_FALSE(is_pow2(0));
  EXPECT_FALSE(is_pow2(3));
  EXPECT_EQ(log2_exact(1), 0u);
  EXPECT_EQ(log2_exact(4096), 12u);
}

TEST(BitUtil, FlipBit) {
  EXPECT_EQ(flip_bit(0, 0), 1u);
  EXPECT_EQ(flip_bit(1, 0), 0u);
  EXPECT_EQ(flip_bit(0, 63), u64{1} << 63);
  // Flipping twice restores.
  EXPECT_EQ(flip_bit(flip_bit(0xDEADBEEF, 17), 17), 0xDEADBEEFu);
}

// --- rng ----------------------------------------------------------------------

TEST(Rng, DeterministicBySeed) {
  SplitMix64 a(42);
  SplitMix64 b(42);
  for (int i = 0; i < 100; ++i) EXPECT_EQ(a.next(), b.next());
}

TEST(Rng, DifferentSeedsDiffer) {
  SplitMix64 a(1);
  SplitMix64 b(2);
  int same = 0;
  for (int i = 0; i < 64; ++i) {
    if (a.next() == b.next()) ++same;
  }
  EXPECT_EQ(same, 0);
}

TEST(Rng, NextBelowInRange) {
  SplitMix64 rng(7);
  for (int i = 0; i < 1000; ++i) {
    EXPECT_LT(rng.next_below(17), 17u);
  }
  for (int i = 0; i < 100; ++i) {
    EXPECT_EQ(rng.next_below(1), 0u);
  }
}

TEST(Rng, NextRangeInclusive) {
  SplitMix64 rng(8);
  std::set<u64> seen;
  for (int i = 0; i < 1000; ++i) {
    const u64 v = rng.next_range(10, 13);
    EXPECT_GE(v, 10u);
    EXPECT_LE(v, 13u);
    seen.insert(v);
  }
  EXPECT_EQ(seen.size(), 4u);  // all values hit
}

TEST(Rng, NextDoubleInUnitInterval) {
  SplitMix64 rng(9);
  double sum = 0;
  for (int i = 0; i < 10000; ++i) {
    const double v = rng.next_double();
    ASSERT_GE(v, 0.0);
    ASSERT_LT(v, 1.0);
    sum += v;
  }
  EXPECT_NEAR(sum / 10000.0, 0.5, 0.02);
}

TEST(Rng, BernoulliRate) {
  SplitMix64 rng(10);
  int hits = 0;
  for (int i = 0; i < 10000; ++i) {
    if (rng.next_bool(0.25)) ++hits;
  }
  EXPECT_NEAR(hits / 10000.0, 0.25, 0.02);
}

TEST(Rng, ForkIndependence) {
  SplitMix64 parent(11);
  SplitMix64 child = parent.fork();
  EXPECT_NE(parent.next(), child.next());
}

TEST(Rng, UniformityChiSquaredish) {
  SplitMix64 rng(12);
  int buckets[16] = {};
  const int n = 16000;
  for (int i = 0; i < n; ++i) ++buckets[rng.next_below(16)];
  for (int b : buckets) {
    EXPECT_NEAR(b, n / 16, n / 16 / 4);  // within 25% of expectation
  }
}

// --- stats ---------------------------------------------------------------------

TEST(Stats, SafeRatio) {
  EXPECT_DOUBLE_EQ(safe_ratio(1, 2), 0.5);
  EXPECT_DOUBLE_EQ(safe_ratio(5, 0), 0.0);
  EXPECT_DOUBLE_EQ(safe_ratio(0, 5), 0.0);
}

TEST(Stats, HistogramBasics) {
  Histogram h(1, 10);
  h.add(0);
  h.add(5);
  h.add(5);
  h.add(9);
  EXPECT_EQ(h.count(), 4u);
  EXPECT_EQ(h.sum(), 19u);
  EXPECT_EQ(h.min(), 0u);
  EXPECT_EQ(h.max(), 9u);
  EXPECT_DOUBLE_EQ(h.mean(), 4.75);
  EXPECT_EQ(h.buckets()[5], 2u);
  EXPECT_EQ(h.overflow(), 0u);
}

TEST(Stats, HistogramOverflow) {
  Histogram h(1, 4);
  h.add(3);
  h.add(4);
  h.add(1000);
  EXPECT_EQ(h.overflow(), 2u);
  EXPECT_EQ(h.max(), 1000u);
}

TEST(Stats, HistogramBucketWidth) {
  Histogram h(10, 4);
  h.add(0);
  h.add(9);
  h.add(10);
  h.add(39);
  EXPECT_EQ(h.buckets()[0], 2u);
  EXPECT_EQ(h.buckets()[1], 1u);
  EXPECT_EQ(h.buckets()[3], 1u);
}

TEST(Stats, HistogramPercentile) {
  Histogram h(1, 100);
  for (u64 i = 0; i < 100; ++i) h.add(i);
  EXPECT_NEAR(static_cast<double>(h.percentile(0.5)), 50.0, 2.0);
  EXPECT_NEAR(static_cast<double>(h.percentile(0.95)), 95.0, 2.0);
  EXPECT_EQ(h.percentile(1.0), 99u);
}

TEST(Stats, HistogramEmpty) {
  Histogram h(1, 4);
  EXPECT_EQ(h.count(), 0u);
  EXPECT_EQ(h.min(), 0u);
  EXPECT_EQ(h.percentile(0.5), 0u);
  EXPECT_DOUBLE_EQ(h.mean(), 0.0);
}

TEST(Stats, HistogramReset) {
  Histogram h(1, 4);
  h.add(2);
  h.reset();
  EXPECT_EQ(h.count(), 0u);
  EXPECT_EQ(h.buckets()[2], 0u);
}

TEST(Stats, HistogramToStringContainsLabel) {
  Histogram h(1, 4);
  h.add(1);
  EXPECT_NE(h.to_string("mylabel").find("mylabel"), std::string::npos);
}

TEST(Stats, RunningStat) {
  RunningStat s;
  s.add(1.0);
  s.add(2.0);
  s.add(3.0);
  EXPECT_DOUBLE_EQ(s.mean(), 2.0);
  EXPECT_DOUBLE_EQ(s.min(), 1.0);
  EXPECT_DOUBLE_EQ(s.max(), 3.0);
  EXPECT_EQ(s.count(), 3u);
  s.reset();
  EXPECT_EQ(s.count(), 0u);
  EXPECT_DOUBLE_EQ(s.mean(), 0.0);
}

TEST(Stats, RunningStatNegative) {
  RunningStat s;
  s.add(-5.0);
  s.add(5.0);
  EXPECT_DOUBLE_EQ(s.mean(), 0.0);
  EXPECT_DOUBLE_EQ(s.min(), -5.0);
}

TEST(Stats, SpearmanPerfectMonotoneAndReversed) {
  const std::vector<double> xs{1.0, 2.0, 3.0, 4.0};
  // Any monotone transform of xs has rho = 1 (rank, not value, based).
  EXPECT_DOUBLE_EQ(spearman_rank_correlation(xs, {10.0, 100.0, 1e3, 1e4}),
                   1.0);
  EXPECT_DOUBLE_EQ(spearman_rank_correlation(xs, {9.0, 7.0, 5.0, 3.0}), -1.0);
}

TEST(Stats, SpearmanAveragesTiedRanks) {
  // xs ranks with the tie averaged: {1, 2.5, 2.5, 4}; the tie-corrected
  // rho against a strictly increasing ys is 4.5/sqrt(4.5*5) = 3/sqrt(10).
  const double rho = spearman_rank_correlation({1.0, 2.0, 2.0, 3.0},
                                               {1.0, 2.0, 3.0, 4.0});
  EXPECT_NEAR(rho, 3.0 / std::sqrt(10.0), 1e-12);
}

TEST(Stats, SpearmanDegenerateInputsReturnZero) {
  EXPECT_DOUBLE_EQ(spearman_rank_correlation({}, {}), 0.0);
  EXPECT_DOUBLE_EQ(spearman_rank_correlation({1.0}, {2.0}), 0.0);
  EXPECT_DOUBLE_EQ(spearman_rank_correlation({1.0, 2.0}, {1.0}), 0.0);
  // A constant side has zero rank variance: correlation is undefined.
  EXPECT_DOUBLE_EQ(spearman_rank_correlation({5.0, 5.0, 5.0}, {1.0, 2.0, 3.0}),
                   0.0);
}

// --- strutil ---------------------------------------------------------------------

TEST(StrUtil, Trim) {
  EXPECT_EQ(trim("  abc  "), "abc");
  EXPECT_EQ(trim("abc"), "abc");
  EXPECT_EQ(trim("   "), "");
  EXPECT_EQ(trim(""), "");
  EXPECT_EQ(trim("\t a b \n"), "a b");
}

TEST(StrUtil, Split) {
  const auto parts = split("a,b,,c", ',');
  ASSERT_EQ(parts.size(), 4u);
  EXPECT_EQ(parts[0], "a");
  EXPECT_EQ(parts[2], "");
  EXPECT_EQ(parts[3], "c");
  EXPECT_EQ(split("", ',').size(), 1u);
}

TEST(StrUtil, SplitWhitespace) {
  const auto parts = split_whitespace("  one\ttwo   three ");
  ASSERT_EQ(parts.size(), 3u);
  EXPECT_EQ(parts[0], "one");
  EXPECT_EQ(parts[2], "three");
  EXPECT_TRUE(split_whitespace("   ").empty());
}

TEST(StrUtil, ParseIntDecimal) {
  i64 v = 0;
  EXPECT_TRUE(parse_int("123", &v));
  EXPECT_EQ(v, 123);
  EXPECT_TRUE(parse_int("-45", &v));
  EXPECT_EQ(v, -45);
  EXPECT_TRUE(parse_int("+7", &v));
  EXPECT_EQ(v, 7);
  EXPECT_TRUE(parse_int("0", &v));
  EXPECT_EQ(v, 0);
}

TEST(StrUtil, ParseIntHexBinary) {
  i64 v = 0;
  EXPECT_TRUE(parse_int("0xFF", &v));
  EXPECT_EQ(v, 255);
  EXPECT_TRUE(parse_int("0xdeadBEEF", &v));
  EXPECT_EQ(v, 0xDEADBEEF);
  EXPECT_TRUE(parse_int("-0x10", &v));
  EXPECT_EQ(v, -16);
  EXPECT_TRUE(parse_int("0b1010", &v));
  EXPECT_EQ(v, 10);
}

TEST(StrUtil, ParseIntRejectsGarbage) {
  i64 v = 0;
  EXPECT_FALSE(parse_int("", &v));
  EXPECT_FALSE(parse_int("abc", &v));
  EXPECT_FALSE(parse_int("12x", &v));
  EXPECT_FALSE(parse_int("0x", &v));
  EXPECT_FALSE(parse_int("-", &v));
  EXPECT_FALSE(parse_int("1 2", &v));
}

TEST(StrUtil, ParseIntBounds) {
  i64 v = 0;
  EXPECT_TRUE(parse_int("9223372036854775807", &v));
  EXPECT_EQ(v, INT64_MAX);
  EXPECT_TRUE(parse_int("-9223372036854775808", &v));
  EXPECT_EQ(v, INT64_MIN);
  EXPECT_FALSE(parse_int("9223372036854775808", &v));
  EXPECT_FALSE(parse_int("99999999999999999999999", &v));
  // 2767011611056432742 * 10 wraps u64 to a value above the multiplicand
  // and below INT64_MAX, so a check of the wrapped result misses it.
  EXPECT_FALSE(parse_int("27670116110564327420", &v));
  EXPECT_FALSE(parse_int("0x1ffffffffffffffff", &v));
}

TEST(StrUtil, ParseIntTrimsWhitespace) {
  i64 v = 0;
  EXPECT_TRUE(parse_int("  42  ", &v));
  EXPECT_EQ(v, 42);
}

TEST(StrUtil, Format) {
  EXPECT_EQ(format("%d-%s", 5, "x"), "5-x");
}

TEST(StrUtil, ToLower) {
  EXPECT_EQ(to_lower("AbC"), "abc");
}

// --- flags -----------------------------------------------------------------------

/// Parse `args` (argv without the program name) against `flags`.
std::string parse_args(Flags* flags, std::vector<const char*> args) {
  args.insert(args.begin(), "prog");
  return flags->parse(static_cast<int>(args.size()), args.data());
}

TEST(Flags, ParseSpaceSeparated) {
  i64 ruu = 0;
  i64 missing = 7;
  std::string name;
  Flags flags("prog");
  flags.integer("-ruu", &ruu);
  flags.integer("-missing", &missing);
  flags.text("-name", &name);
  ASSERT_EQ(parse_args(&flags, {"-ruu", "32", "-name", "li"}), "");
  EXPECT_EQ(ruu, 32);
  EXPECT_EQ(name, "li");
  EXPECT_EQ(missing, 7) << "a flag not given keeps its default";
}

TEST(Flags, ParseColonAndEquals) {
  // "-name=VALUE" and "--name=VALUE" give a value inline; the
  // SimpleScalar "-name:value" form is not a flag this program declares.
  i64 ruu = 0;
  i64 lsq = 0;
  Flags flags("prog");
  flags.integer("-ruu", &ruu);
  flags.integer("-lsq", &lsq);
  ASSERT_EQ(parse_args(&flags, {"-ruu=64", "--lsq=16"}), "");
  EXPECT_EQ(ruu, 64);
  EXPECT_EQ(lsq, 16);
  EXPECT_EQ(parse_args(&flags, {"-ruu:32"}), "prog: unknown argument -ruu:32");
  EXPECT_EQ(ruu, 64);
}

TEST(Flags, BareFlagIsTrue) {
  // A switch takes no value; a flag that takes one needs it.
  bool verbose = false;
  i64 ruu = 0;
  Flags flags("prog");
  flags.toggle("-verbose", &verbose);
  flags.integer("-ruu", &ruu);
  ASSERT_EQ(parse_args(&flags, {"-verbose"}), "");
  EXPECT_TRUE(verbose);
  EXPECT_EQ(parse_args(&flags, {"-ruu"}), "prog: -ruu needs a value");
  EXPECT_EQ(parse_args(&flags, {"-verbose=1"}),
            "prog: -verbose takes no value, got 1");
}

TEST(Flags, BoolValues) {
  // A 0|1 flag takes exactly 0 or 1.
  bool a = false;
  bool b = true;
  Flags flags("prog");
  flags.binary("-a", &a);
  flags.binary("-b", &b);
  ASSERT_EQ(parse_args(&flags, {"-a", "1", "-b", "0"}), "");
  EXPECT_TRUE(a);
  EXPECT_FALSE(b);
  for (const char* value : {"true", "on", "yes", "2", "01"}) {
    EXPECT_EQ(parse_args(&flags, {"-b", value}),
              std::string("prog: -b must be 0 or 1, got ") + value);
    EXPECT_FALSE(b) << value;
  }
}

TEST(Flags, Positional) {
  std::vector<std::string> operands;
  i64 x = 0;
  Flags flags("prog");
  flags.integer("-x", &x);
  flags.operands(&operands);
  ASSERT_EQ(parse_args(&flags, {"file.s", "-x", "1", "other", "-"}), "");
  EXPECT_EQ(operands, (std::vector<std::string>{"file.s", "other", "-"}));
  EXPECT_EQ(x, 1);

  Flags none("prog");
  EXPECT_EQ(parse_args(&none, {"file.s"}), "prog: unknown argument file.s");
}

TEST(Flags, ParseFileMergesWithCommandLinePriority) {
  const std::string path = temp_path("flags_test.cfg");
  FILE* f = fopen(path.c_str(), "w");
  ASSERT_NE(f, nullptr);
  fputs("# comment line\n-ruu 64   -lsq 32\n-workload li # trailing\n", f);
  fclose(f);

  i64 ruu = 0;
  i64 lsq = 0;
  std::string workload;
  Flags flags("prog");
  flags.integer("-ruu", &ruu);
  flags.integer("-lsq", &lsq);
  flags.text("-workload", &workload);
  ASSERT_EQ(parse_args(&flags, {"-ruu", "16"}), "");
  ASSERT_EQ(flags.parse_file(path), "");
  std::remove(path.c_str());
  EXPECT_EQ(ruu, 16) << "command line must win";
  EXPECT_EQ(lsq, 32);
  EXPECT_EQ(workload, "li");
}

TEST(Flags, ParseFileMissing) {
  Flags flags("prog");
  EXPECT_EQ(flags.parse_file("/nonexistent/definitely.cfg"),
            "prog: cannot open config file /nonexistent/definitely.cfg");
}

TEST(Flags, DoubleParsing) {
  double rate = 0.0;
  double rho = 0.0;
  Flags flags("prog");
  flags.number("-rate", &rate, 0.0, 1.0, /*exclude_lo=*/true);
  flags.number("--min-rho", &rho, -1.0, 1.0);
  ASSERT_EQ(parse_args(&flags, {"-rate", "0.25", "-min-rho", "-0.5"}), "");
  EXPECT_DOUBLE_EQ(rate, 0.25);
  EXPECT_DOUBLE_EQ(rho, -0.5) << "a value may start with '-'";
  EXPECT_EQ(parse_args(&flags, {"--rate", "0"}),
            "prog: -rate must be a number in (0, 1], got 0");
  EXPECT_EQ(parse_args(&flags, {"-rate=5e-3x"}),
            "prog: -rate must be a number in (0, 1], got 5e-3x");
  EXPECT_DOUBLE_EQ(rate, 0.25);
}

TEST(Flags, IntegerRangeNeverWiderThanItsVariable) {
  u32 spares = 0;
  u16 port = 0;
  u64 seed = 0;
  Flags flags("prog");
  flags.integer("-spare_alus", &spares);
  flags.integer("--port", &port, 1);
  flags.integer("--seed", &seed);
  EXPECT_EQ(parse_args(&flags, {"-spare_alus", "4294967297"}),
            "prog: -spare_alus must be an integer in [0, 4294967295], got "
            "4294967297");
  EXPECT_EQ(parse_args(&flags, {"--port", "65536"}),
            "prog: --port must be an integer in [1, 65535], got 65536");
  EXPECT_EQ(parse_args(&flags, {"--seed", "-1"}),
            "prog: --seed must be an integer in [0, 9223372036854775807], "
            "got -1");
  ASSERT_EQ(parse_args(&flags, {"-spare_alus", "0x10", "--port=8642"}), "");
  EXPECT_EQ(spares, 16u);
  EXPECT_EQ(port, 8642u);
  EXPECT_EQ(seed, 0u);
}

TEST(Flags, UnknownFlagsAndChoices) {
  std::string pred = "gshare";
  std::vector<std::string> tokens;
  Flags flags("prog");
  flags.choice("-pred", &pred, {"gshare", "taken", "nottaken"});
  flags.repeated("--auth-token", &tokens);
  EXPECT_EQ(parse_args(&flags, {"-pred", "bimodal"}),
            "prog: -pred must be gshare, taken or nottaken, got bimodal");
  EXPECT_EQ(parse_args(&flags, {"--resume-form", "ckpt"}),
            "prog: unknown argument --resume-form");
  // The first message is returned; every other token is still applied.
  EXPECT_EQ(parse_args(&flags, {"-bogus", "--pred=taken", "--auth-token",
                                "a", "-auth-token", "b", "-pred"}),
            "prog: unknown argument -bogus");
  EXPECT_EQ(pred, "taken");
  EXPECT_EQ(tokens, (std::vector<std::string>{"a", "b"}));
  EXPECT_EQ(parse_args(&flags, {"--auth-token="}),
            "prog: --auth-token needs a value");
}

/// Every kind of flag, each bound to one slot of HostileVars, so a
/// successful parse can be checked against the declared ranges.
struct HostileVars {
  i64 ruu = 16;
  u32 spares = 0;
  u16 port = 8642;
  double rate = 0.5;
  std::string out;
  std::string pred = "gshare";
  std::vector<std::string> tokens;
  bool reese = false;
  bool quick = false;
  std::vector<std::string> operands;
};

void declare_hostile(Flags* flags, HostileVars* vars, bool operands) {
  flags->integer("-ruu", &vars->ruu, 2, 4096);
  flags->integer("-spare_alus", &vars->spares);
  flags->integer("--port", &vars->port, 1);
  flags->number("--rate", &vars->rate, 0.0, 1.0, /*exclude_lo=*/true);
  flags->text("--out", &vars->out);
  flags->choice("-pred", &vars->pred, {"gshare", "taken", "nottaken"});
  flags->repeated("--auth-token", &vars->tokens);
  flags->binary("-reese", &vars->reese);
  flags->toggle("--quick", &vars->quick);
  if (operands) flags->operands(&vars->operands);
}

/// "[token][token]...", each cut to 40 bytes, for a failure message.
std::string describe(const std::vector<std::string>& argv) {
  std::string shown;
  for (const std::string& token : argv) {
    shown += "[" + token.substr(0, 40) + "]";
  }
  return shown;
}

/// A parse either succeeds, leaving every variable in its declared range,
/// or returns one message naming the tool. True when it succeeded.
bool expect_parse_outcome(const std::string& error, const HostileVars& vars,
                          const std::vector<std::string>& argv) {
  // gtest builds a streamed message only when the expectation fails.
  if (!error.empty()) {
    EXPECT_EQ(error.rfind("prog: ", 0), 0u) << describe(argv);
    return false;
  }
  EXPECT_TRUE(vars.ruu >= 2 && vars.ruu <= 4096) << describe(argv);
  EXPECT_GE(vars.port, 1u) << describe(argv);
  EXPECT_TRUE(vars.rate > 0.0 && vars.rate <= 1.0) << describe(argv);
  EXPECT_TRUE(vars.pred == "gshare" || vars.pred == "taken" ||
              vars.pred == "nottaken")
      << describe(argv);
  for (const std::string& token : vars.tokens) EXPECT_FALSE(token.empty());
  return true;
}

TEST(Flags, SurvivesSeededHostileArgv) {
  // Documented command lines, mutated by dropping, duplicating and
  // swapping tokens and by splicing in hostile ones. Each mutant goes
  // through parse (with operands allowed and refused) and, written to a
  // file, through parse_file.
  const std::vector<std::vector<std::string>> seeds = {
      {"-workload", "li", "-reese", "1", "-spare_alus", "2", "-ruu", "32"},
      {"--out", "report.json", "--quick", "--rate", "5e-3", "--port", "0x10"},
      {"-pipetrace", "1", "-ruu=64", "fib.s"},
      {"--rate=0.25", "gcd.srv", "-pred", "taken", "--auth-token", "a",
       "--auth-token=b"},
      {"stats", "--port", "8642", "--quick", "-reese=0"},
  };
  const std::vector<std::string> hostile = {
      "=", "-", "--", "", "18446744073709551616", "-0.5", std::string(4096, 'x'),
      "--" + std::string(4096, 'r'), "-ruu=" + std::string(4096, '9'),
      "\xff\xfe\x80", "-\xc3\xa9", "--port=\xe2\x82\xac", "-ruu=", "--=",
      "-=1", "---ruu", "--quick=1", "-reese", "--auth-token"};
  SplitMix64 rng(0xF1A95EED);
  usize accepted = 0;
  usize refused = 0;
  const auto tally = [&](bool ok) { ++(ok ? accepted : refused); };
  for (int round = 0; round < 10'000; ++round) {
    std::vector<std::string> argv = seeds[rng.next_below(seeds.size())];
    const u64 mutations = rng.next_range(1, 4);
    for (u64 m = 0; m < mutations; ++m) {
      const usize at = rng.next_below(argv.size() + 1);
      switch (rng.next_below(4)) {
        case 0:  // drop
          if (at < argv.size()) argv.erase(argv.begin() + at);
          break;
        case 1:  // duplicate
          if (at < argv.size()) argv.insert(argv.begin() + at, argv[at]);
          break;
        case 2:  // swap
          if (argv.size() >= 2) {
            const usize other = rng.next_below(argv.size());
            std::swap(argv[rng.next_below(argv.size())], argv[other]);
          }
          break;
        default:  // splice
          argv.insert(argv.begin() + at,
                      hostile[rng.next_below(hostile.size())]);
      }
    }
    std::vector<const char*> args = {"prog"};
    for (const std::string& token : argv) args.push_back(token.c_str());
    for (const bool operands : {true, false}) {
      HostileVars vars;
      Flags flags("prog");
      declare_hostile(&flags, &vars, operands);
      tally(expect_parse_outcome(
          flags.parse(static_cast<int>(args.size()), args.data()), vars,
          argv));
    }
    // A fresh file per mutant: rewriting one file in place costs a flush
    // per round on ext4.
    const std::string config =
        temp_path(format("hostile_flags_%d.cfg", round));
    {
      std::ofstream file(config);
      for (const std::string& token : argv) file << token << '\n';
    }
    HostileVars vars;
    Flags flags("prog");
    declare_hostile(&flags, &vars, rng.next_bool(0.5));
    tally(expect_parse_outcome(flags.parse_file(config), vars, argv));
    std::remove(config.c_str());
    if (::testing::Test::HasFailure()) break;
  }
  // Both outcomes are common, so neither path goes untested.
  EXPECT_GT(accepted, 3'000u);
  EXPECT_GT(refused, 3'000u);
}

// --- error -----------------------------------------------------------------------

TEST(Error, Format) {
  const Error e = errorf("bad %s at %d", "thing", 9);
  EXPECT_EQ(e.message, "bad thing at 9");
  EXPECT_EQ(e.to_string(), "bad thing at 9");
}

TEST(Error, LinePrefix) {
  Error e{"oops", 12};
  EXPECT_EQ(e.to_string(), "line 12: oops");
}

TEST(Error, ResultHoldsValue) {
  Result<int> r = 5;
  ASSERT_TRUE(r.ok());
  EXPECT_EQ(r.value(), 5);
}

TEST(Error, ResultHoldsError) {
  Result<int> r = Error{"no", 0};
  ASSERT_FALSE(r.ok());
  EXPECT_EQ(r.error().message, "no");
}

TEST(Wilson, ZeroTrialsIsAllZero) {
  const WilsonInterval ci = wilson_interval(0, 0);
  EXPECT_EQ(ci.lower, 0.0);
  EXPECT_EQ(ci.center, 0.0);
  EXPECT_EQ(ci.upper, 0.0);
}

TEST(Wilson, FullSuccessLowerBoundIsNotOne) {
  // At p̂ = 1 the Wald interval collapses to [1, 1]; Wilson's lower bound
  // is n / (n + z²) — the honesty property the coverage claims rely on.
  const double z = 1.96;
  const WilsonInterval ci = wilson_interval(100, 100, z);
  EXPECT_NEAR(ci.lower, 100.0 / (100.0 + z * z), 1e-12);
  EXPECT_NEAR(ci.upper, 1.0, 1e-12);
  EXPECT_LT(ci.lower, 1.0);
}

TEST(Wilson, LowerBoundTightensWithSampleSize) {
  EXPECT_LT(wilson_interval(100, 100).lower, wilson_interval(1000, 1000).lower);
  EXPECT_LT(wilson_interval(1000, 1000).lower,
            wilson_interval(100'000, 100'000).lower);
  // The campaign acceptance bar: 10⁵ all-detected injections put the 95%
  // lower bound far above 99.9%.
  EXPECT_GT(wilson_interval(100'000, 100'000).lower, 0.999);
  // ...and ~4k is the minimum that clears it.
  EXPECT_GT(wilson_interval(4'000, 4'000).lower, 0.999);
  EXPECT_LT(wilson_interval(3'000, 3'000).lower, 0.999);
}

TEST(Wilson, ZeroSuccessesMirrorsFullSuccesses) {
  const WilsonInterval none = wilson_interval(0, 500);
  const WilsonInterval all = wilson_interval(500, 500);
  EXPECT_NEAR(none.lower, 0.0, 1e-12);
  EXPECT_NEAR(none.upper, 1.0 - all.lower, 1e-9);
  EXPECT_GT(none.upper, 0.0);
}

TEST(Wilson, IntervalContainsPointEstimate) {
  const WilsonInterval ci = wilson_interval(37, 120);
  const double p = 37.0 / 120.0;
  EXPECT_LT(ci.lower, p);
  EXPECT_GT(ci.upper, p);
  EXPECT_GT(ci.lower, 0.0);
  EXPECT_LT(ci.upper, 1.0);
}

// --jobs sanitization: out-of-range requests (the old code cast -3 to
// ~4 billion and tried to spawn that many threads) fall back to auto (0 =
// hardware concurrency) instead of being honored or silently ignored.
TEST(Jobs, SanitizeAcceptsReasonableCounts) {
  EXPECT_EQ(sanitize_job_count(1), 1u);
  EXPECT_EQ(sanitize_job_count(7), 7u);
  EXPECT_EQ(sanitize_job_count(static_cast<i64>(kMaxJobRequest)),
            kMaxJobRequest);
}

TEST(Jobs, SanitizeRejectsZeroNegativeAndHuge) {
  EXPECT_EQ(sanitize_job_count(0), 0u);
  EXPECT_EQ(sanitize_job_count(-3), 0u);
  EXPECT_EQ(sanitize_job_count(static_cast<i64>(kMaxJobRequest) + 1), 0u);
  EXPECT_EQ(sanitize_job_count(1'000'000), 0u);
}

TEST(Jobs, ResolveNeverReturnsZeroWorkers) {
  EXPECT_GE(resolve_job_count(0), 1u);
  EXPECT_EQ(resolve_job_count(3), 3u);
}

TEST(TaskQueue, RunsAdmittedTasksAndDrains) {
  std::atomic<int> ran{0};
  {
    TaskQueue queue(2, 8);
    for (int i = 0; i < 8; ++i) {
      ASSERT_TRUE(queue.try_enqueue([&ran] { ++ran; }));
    }
    queue.drain();
    EXPECT_EQ(ran.load(), 8);
    EXPECT_EQ(queue.queued(), 0u);
  }
  EXPECT_EQ(ran.load(), 8);
}

TEST(TaskQueue, RejectsBeyondCapacityWhileWorkerIsBusy) {
  std::mutex gate;
  gate.lock();  // hold the single worker inside the first task
  TaskQueue queue(1, 1);
  std::atomic<bool> started{false};
  ASSERT_TRUE(queue.try_enqueue([&] {
    started.store(true);
    std::lock_guard<std::mutex> wait(gate);
  }));
  while (!started.load()) std::this_thread::yield();
  // Worker busy: one waiting slot admits, the next submit is refused.
  EXPECT_TRUE(queue.try_enqueue([] {}));
  EXPECT_FALSE(queue.try_enqueue([] {}));
  EXPECT_EQ(queue.queued(), 1u);
  gate.unlock();
  queue.drain();
  EXPECT_EQ(queue.queued(), 0u);
  EXPECT_EQ(queue.running(), 0u);
}

TEST(TaskQueue, DestructorFinishesAdmittedWork) {
  std::atomic<int> ran{0};
  {
    TaskQueue queue(1, 16);
    for (int i = 0; i < 10; ++i) {
      ASSERT_TRUE(queue.try_enqueue([&ran] { ++ran; }));
    }
  }  // destructor drains before joining
  EXPECT_EQ(ran.load(), 10);
}

TEST(Json, ParsesScalarsAndStructure) {
  const Result<json::Value> parsed = json::parse_json(
      R"({"a": 1, "b": -2.5, "c": [true, false, null], "d": "x\nA"})");
  ASSERT_TRUE(parsed.ok()) << parsed.error().message;
  const json::Value& root = parsed.value();
  ASSERT_TRUE(root.is_object());
  ASSERT_NE(root.find("a"), nullptr);
  EXPECT_TRUE(root.find("a")->is_integer);
  EXPECT_EQ(root.find("a")->uint_value, 1u);
  EXPECT_DOUBLE_EQ(root.find("b")->number, -2.5);
  ASSERT_TRUE(root.find("c")->is_array());
  EXPECT_EQ(root.find("c")->array.size(), 3u);
  EXPECT_TRUE(root.find("c")->array[2].is_null());
  EXPECT_EQ(root.find("d")->string, "x\nA");
}

TEST(Json, PreservesFullU64Seeds) {
  // 0xFA17C0DE-style campaign seeds and anything above 2^53 must survive
  // the round trip exactly — a double would round them.
  const Result<json::Value> parsed =
      json::parse_json(R"({"seed": 18446744073709551615})");
  ASSERT_TRUE(parsed.ok());
  const json::Value* seed = parsed.value().find("seed");
  ASSERT_NE(seed, nullptr);
  EXPECT_TRUE(seed->is_integer);
  EXPECT_EQ(seed->uint_value, 18446744073709551615ull);
}

TEST(Json, RejectsMalformedInput) {
  EXPECT_FALSE(json::parse_json("").ok());
  EXPECT_FALSE(json::parse_json("{\"a\": }").ok());
  EXPECT_FALSE(json::parse_json("{\"a\": 1,}").ok());
  EXPECT_FALSE(json::parse_json("[1, 2").ok());
  EXPECT_FALSE(json::parse_json("{\"a\": 1} trailing").ok());
  EXPECT_FALSE(json::parse_json("\"unterminated").ok());
}

TEST(Json, RejectsPathologicalNesting) {
  std::string deep(100, '[');
  deep += std::string(100, ']');
  EXPECT_FALSE(json::parse_json(deep).ok());
}

/// Deepest nesting level of `value`, the root at 0.
int nesting_depth(const json::Value& value) {
  int deepest = 0;
  for (const json::Value& element : value.array) {
    deepest = std::max(deepest, 1 + nesting_depth(element));
  }
  for (const auto& member : value.object) {
    deepest = std::max(deepest, 1 + nesting_depth(member.second));
  }
  return deepest;
}

/// The document's first 80 bytes, escaped, for a failure message.
std::string describe(const std::string& document) {
  return json_escape(document.substr(0, 80));
}

TEST(Json, SurvivesSeededHostileInput) {
  // The spec bodies of README's reesed quickstart, mutated by dropping,
  // duplicating and swapping bytes, by splicing in hostile ones, by
  // truncation, and by nesting the whole document around the 64-level
  // cap. Every mutant parses within the cap or returns one message.
  const std::vector<std::string> seeds = {
      "{\"workloads\": [\"gcc\"], \"models\": [\"baseline\", \"reese\"],\n"
      "      \"instructions\": 20000, \"seed\": 42}\n",
      "{\"workloads\": [\"gcc\"], \"replicas\": 4, \"instructions\": 20000}\n",
  };
  const std::vector<std::string> hostile = {
      std::string(4096, 'x'), "\"" + std::string(4096, 'y') + "\"", "1e999",
      "-0", "18446744073709551616", "-9223372036854775809", "0.", "1e",
      std::string(1, '\0'), std::string("\"\0\"", 3), "\xff\xfe\x80",
      "\xc3\xa9", "\\u00e9", "\\u12", "\\", "\"", "{", "}", "[", "]", ",",
      ":", "null", "tru", " \t\r\n"};
  SplitMix64 rng(0x75015EED);
  usize accepted = 0;
  usize refused = 0;
  for (int round = 0; round < 10'000; ++round) {
    std::string doc = seeds[rng.next_below(seeds.size())];
    const u64 mutations = rng.next_range(1, 2);
    for (u64 m = 0; m < mutations; ++m) {
      const usize at = rng.next_below(doc.size() + 1);
      switch (rng.next_below(6)) {
        case 0:  // drop
          if (at < doc.size()) doc.erase(at, 1);
          break;
        case 1:  // duplicate
          if (at < doc.size()) doc.insert(at, 1, doc[at]);
          break;
        case 2:  // swap
          if (at < doc.size()) {
            std::swap(doc[at], doc[rng.next_below(doc.size())]);
          }
          break;
        case 3:  // truncate
          doc.resize(at);
          break;
        case 4: {  // nest, around the cap
          const usize levels = rng.next_range(60, 66);
          const bool objects = rng.next_bool(0.5);
          std::string open;
          std::string close;
          for (usize level = 0; level < levels; ++level) {
            open += objects ? "{\"a\": " : "[";
            close += objects ? "}" : "]";
          }
          doc = open + doc + close;
          break;
        }
        default:  // splice
          doc.insert(at, hostile[rng.next_below(hostile.size())]);
      }
    }
    const Result<json::Value> parsed = json::parse_json(doc);
    if (parsed.ok()) {
      ++accepted;
      EXPECT_LE(nesting_depth(parsed.value()), 64) << describe(doc);
    } else {
      ++refused;
      EXPECT_EQ(parsed.error().message.rfind("json: ", 0), 0u)
          << describe(doc);
    }
    if (::testing::Test::HasFailure()) break;
  }
  // Both outcomes are common, so neither path goes untested.
  EXPECT_GT(accepted, 2'500u);
  EXPECT_GT(refused, 2'500u);
}

TEST(Json, EscapeQuotesBackslashesAndControlChars) {
  EXPECT_EQ(json_escape("plain"), "plain");
  EXPECT_EQ(json_escape("a\"b\\c\nd"), "a\\\"b\\\\c\\nd");
  EXPECT_EQ(json_escape(std::string_view("\x01", 1)), "\\u0001");
}

}  // namespace
}  // namespace reese
