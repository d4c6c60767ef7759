#include <algorithm>
#include <cmath>
#include <cstdio>
#include <fstream>
#include <string>
#include <vector>

#include <gtest/gtest.h>

#include "common/check.h"
#include "common/rng.h"
#include "common/stats.h"
#include "common/strings.h"
#include "common/time.h"

namespace fm {
namespace {

// ---------- Rng ----------

TEST(RngTest, DeterministicForSameSeed) {
  Rng a(42);
  Rng b(42);
  for (int i = 0; i < 100; ++i) {
    EXPECT_EQ(a.NextUint64(), b.NextUint64());
  }
}

TEST(RngTest, DifferentSeedsDiffer) {
  Rng a(1);
  Rng b(2);
  int equal = 0;
  for (int i = 0; i < 64; ++i) {
    if (a.NextUint64() == b.NextUint64()) ++equal;
  }
  EXPECT_LT(equal, 2);
}

TEST(RngTest, UniformDoubleInUnitInterval) {
  Rng rng(7);
  for (int i = 0; i < 10000; ++i) {
    double u = rng.UniformDouble();
    EXPECT_GE(u, 0.0);
    EXPECT_LT(u, 1.0);
  }
}

TEST(RngTest, UniformIntRespectsBound) {
  Rng rng(9);
  for (int i = 0; i < 10000; ++i) {
    EXPECT_LT(rng.UniformInt(17), 17u);
  }
}

TEST(RngTest, UniformIntCoversRange) {
  Rng rng(11);
  std::vector<bool> seen(10, false);
  for (int i = 0; i < 10000; ++i) seen[rng.UniformInt(10)] = true;
  EXPECT_TRUE(std::all_of(seen.begin(), seen.end(), [](bool b) { return b; }));
}

TEST(RngTest, UniformIntRangeInclusive) {
  Rng rng(12);
  bool saw_lo = false;
  bool saw_hi = false;
  for (int i = 0; i < 5000; ++i) {
    int v = rng.UniformIntRange(-3, 3);
    EXPECT_GE(v, -3);
    EXPECT_LE(v, 3);
    saw_lo |= v == -3;
    saw_hi |= v == 3;
  }
  EXPECT_TRUE(saw_lo);
  EXPECT_TRUE(saw_hi);
}

TEST(RngTest, GaussianMomentsRoughlyCorrect) {
  Rng rng(13);
  RunningStats stats;
  for (int i = 0; i < 50000; ++i) stats.Add(rng.Gaussian(5.0, 2.0));
  EXPECT_NEAR(stats.mean(), 5.0, 0.05);
  EXPECT_NEAR(stats.stddev(), 2.0, 0.05);
}

TEST(RngTest, ExponentialMeanRoughlyCorrect) {
  Rng rng(14);
  RunningStats stats;
  for (int i = 0; i < 50000; ++i) stats.Add(rng.Exponential(0.5));
  EXPECT_NEAR(stats.mean(), 2.0, 0.1);
}

TEST(RngTest, BernoulliFrequency) {
  Rng rng(15);
  int hits = 0;
  for (int i = 0; i < 50000; ++i) hits += rng.Bernoulli(0.3) ? 1 : 0;
  EXPECT_NEAR(hits / 50000.0, 0.3, 0.02);
}

TEST(RngTest, WeightedIndexProportions) {
  Rng rng(16);
  std::vector<double> weights = {1.0, 3.0, 0.0, 6.0};
  std::vector<int> counts(4, 0);
  for (int i = 0; i < 50000; ++i) ++counts[rng.WeightedIndex(weights)];
  EXPECT_EQ(counts[2], 0);
  EXPECT_NEAR(counts[0] / 50000.0, 0.1, 0.02);
  EXPECT_NEAR(counts[1] / 50000.0, 0.3, 0.02);
  EXPECT_NEAR(counts[3] / 50000.0, 0.6, 0.02);
}

TEST(RngTest, ForkProducesIndependentStream) {
  Rng a(21);
  Rng fork = a.Fork();
  // Forked stream should not reproduce the parent's continuation.
  Rng b(21);
  b.Fork();
  EXPECT_EQ(a.NextUint64(), b.NextUint64());
  EXPECT_NE(fork.NextUint64(), a.NextUint64());
}

// ---------- stats ----------

TEST(StatsTest, RunningStatsBasics) {
  RunningStats s;
  for (double x : {2.0, 4.0, 6.0, 8.0}) s.Add(x);
  EXPECT_EQ(s.count(), 4u);
  EXPECT_DOUBLE_EQ(s.mean(), 5.0);
  EXPECT_DOUBLE_EQ(s.min(), 2.0);
  EXPECT_DOUBLE_EQ(s.max(), 8.0);
  EXPECT_DOUBLE_EQ(s.sum(), 20.0);
  EXPECT_DOUBLE_EQ(s.variance(), 5.0);  // population variance
}

TEST(StatsTest, MergeMatchesSequential) {
  RunningStats all;
  RunningStats left;
  RunningStats right;
  Rng rng(31);
  for (int i = 0; i < 1000; ++i) {
    double x = rng.Gaussian(1.0, 3.0);
    all.Add(x);
    (i % 2 == 0 ? left : right).Add(x);
  }
  left.Merge(right);
  EXPECT_EQ(left.count(), all.count());
  EXPECT_NEAR(left.mean(), all.mean(), 1e-9);
  EXPECT_NEAR(left.variance(), all.variance(), 1e-6);
  EXPECT_DOUBLE_EQ(left.min(), all.min());
  EXPECT_DOUBLE_EQ(left.max(), all.max());
}

TEST(StatsTest, EmptyStatsAreZero) {
  RunningStats s;
  EXPECT_EQ(s.count(), 0u);
  EXPECT_DOUBLE_EQ(s.mean(), 0.0);
  EXPECT_DOUBLE_EQ(s.stddev(), 0.0);
}

// ---------- strings ----------

TEST(StringsTest, SplitKeepsEmptyFields) {
  auto parts = Split("a,,b,", ',');
  ASSERT_EQ(parts.size(), 4u);
  EXPECT_EQ(parts[0], "a");
  EXPECT_EQ(parts[1], "");
  EXPECT_EQ(parts[2], "b");
  EXPECT_EQ(parts[3], "");
}

TEST(StringsTest, TrimWhitespace) {
  EXPECT_EQ(Trim("  hi \t\n"), "hi");
  EXPECT_EQ(Trim(""), "");
  EXPECT_EQ(Trim("   "), "");
  EXPECT_EQ(Trim("x"), "x");
}

TEST(StringsTest, JoinWithSeparator) {
  EXPECT_EQ(Join({"a", "b", "c"}, ", "), "a, b, c");
  EXPECT_EQ(Join({}, ","), "");
  EXPECT_EQ(Join({"solo"}, ","), "solo");
}

TEST(StringsTest, StrFormatBasics) {
  EXPECT_EQ(StrFormat("%d-%s", 7, "x"), "7-x");
  EXPECT_EQ(StrFormat("%.2f", 1.2345), "1.23");
}

// ---------- time ----------

TEST(TimeTest, HourSlotBoundaries) {
  EXPECT_EQ(HourSlot(0.0), 0);
  EXPECT_EQ(HourSlot(3599.9), 0);
  EXPECT_EQ(HourSlot(3600.0), 1);
  EXPECT_EQ(HourSlot(12 * 3600.0 + 1800.0), 12);
  EXPECT_EQ(HourSlot(23 * 3600.0 + 3599.0), 23);
}

TEST(TimeTest, HourSlotWrapsAndClamps) {
  EXPECT_EQ(HourSlot(-5.0), 0);
  EXPECT_EQ(HourSlot(kSecondsPerDay + 3600.0), 1);
}

TEST(TimeTest, FormatTimeOfDay) {
  EXPECT_EQ(FormatTimeOfDay(0.0), "00:00:00");
  EXPECT_EQ(FormatTimeOfDay(13 * 3600.0 + 5 * 60.0 + 9.0), "13:05:09");
}

TEST(TimeTest, FormatDuration) {
  EXPECT_EQ(FormatDuration(30.0), "30.0s");
  EXPECT_EQ(FormatDuration(600.0), "10.0min");
  EXPECT_EQ(FormatDuration(7200.0), "2.00h");
}

// ---------- FM_CHECK ----------

// A failed check must not lose what the program printed before it: abort()
// drops buffered stdout, so CheckFailed flushes it first.
TEST(CheckDeathTest, FailedCheckKeepsPrintedStdout) {
  const std::string path = ::testing::TempDir() + "check_keeps_stdout.txt";
  std::remove(path.c_str());
  EXPECT_DEATH(
      {
        FM_CHECK(std::freopen(path.c_str(), "w", stdout) != nullptr);
        std::printf("row 1\n");
        FM_CHECK(1 + 1 == 3);
      },
      "FM_CHECK failed: 1 \\+ 1 == 3");
  std::ifstream in(path);
  std::string line;
  ASSERT_TRUE(std::getline(in, line)) << "stdout lost: " << path;
  EXPECT_EQ(line, "row 1");
  std::remove(path.c_str());
}

}  // namespace
}  // namespace fm
