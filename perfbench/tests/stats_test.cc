// The benchmark's statistics: histogram and sample percentiles, and the
// choice of rounds a metric is aggregated over.
#include <gtest/gtest.h>

#include <cmath>
#include <random>
#include <vector>

#include "stats.h"

namespace perfbench {
namespace {

TEST(LogHistogram, BucketsTileTheRangeWithBoundedWidth) {
  std::mt19937_64 rng(7);
  for (int i = 0; i < 100000; ++i) {
    const std::uint64_t v = rng() >> (rng() % 64);
    const std::size_t index = LogHistogram::BucketIndex(v);
    ASSERT_LT(index, LogHistogram::kNumBuckets);
    const std::uint64_t lower = LogHistogram::BucketLower(index);
    const std::uint64_t width = LogHistogram::BucketWidth(index);
    ASSERT_LE(lower, v);
    ASSERT_LT(v - lower, width);
    if (v >= LogHistogram::kExact) {
      ASSERT_LE(static_cast<double>(width) / static_cast<double>(lower),
                1.0 / 512);
    }
  }
  // Adjacent buckets meet exactly.
  for (std::size_t i = 0; i + 1 < 5000; ++i) {
    ASSERT_EQ(LogHistogram::BucketLower(i) + LogHistogram::BucketWidth(i),
              LogHistogram::BucketLower(i + 1));
  }
}

TEST(LogHistogram, EmptyIsZero) {
  LogHistogram h;
  EXPECT_EQ(h.Percentile(50), 0.0);
  EXPECT_EQ(h.Mean(), 0.0);
}

TEST(LogHistogram, SmallIntegersAreNearlyExact) {
  LogHistogram h;
  for (int v = 1; v <= 1000; ++v) h.Record(v);
  // Unit buckets: the interpolated rank lands within one unit of the
  // sample's own type-7 percentile.
  EXPECT_NEAR(h.Percentile(50), 500.5, 1.0);
  EXPECT_NEAR(h.Percentile(99), 990.01, 1.0);
  EXPECT_EQ(h.Percentile(0), 1.0);
  EXPECT_EQ(h.Percentile(100), 1000.0);
  EXPECT_DOUBLE_EQ(h.Mean(), 500.5);
}

TEST(LogHistogram, MatchesExactPercentilesOnLatencyLikeData) {
  std::mt19937_64 rng(42);
  std::lognormal_distribution<double> dist(std::log(40000.0), 0.6);
  LogHistogram h;
  std::vector<double> exact;
  for (int i = 0; i < 200000; ++i) {
    const auto v = static_cast<std::uint64_t>(dist(rng));
    h.Record(v);
    exact.push_back(static_cast<double>(v));
  }
  for (double p : {1.0, 25.0, 50.0, 90.0, 99.0, 99.9}) {
    std::vector<double> copy = exact;
    const double want = SamplePercentile(copy, p);
    EXPECT_NEAR(h.Percentile(p), want, want * 0.003) << "p" << p;
  }
}

TEST(LogHistogram, MergeEqualsRecordingTheUnion) {
  LogHistogram a, b, both;
  for (std::uint64_t v = 1; v < 100000; v += 37) {
    (v % 2 ? a : b).Record(v * 13);
    both.Record(v * 13);
  }
  a.Merge(b);
  EXPECT_EQ(a.count(), both.count());
  for (double p : {10.0, 50.0, 99.0}) {
    EXPECT_DOUBLE_EQ(a.Percentile(p), both.Percentile(p));
  }
  // Into an empty histogram, and from one whose range lies above.
  LogHistogram empty, high;
  empty.Merge(a);
  high.Record(1u << 30);
  empty.Merge(high);
  both.Merge(high);
  EXPECT_EQ(empty.count(), both.count());
  for (double p : {10.0, 50.0, 99.0, 100.0}) {
    EXPECT_DOUBLE_EQ(empty.Percentile(p), both.Percentile(p));
  }
}

TEST(SamplePercentile, LinearBetweenClosestRanks) {
  std::vector<double> v = {4, 1, 3, 2};
  EXPECT_DOUBLE_EQ(SamplePercentile(v, 50), 2.5);
  EXPECT_DOUBLE_EQ(SamplePercentile(v, 0), 1.0);
  EXPECT_DOUBLE_EQ(SamplePercentile(v, 100), 4.0);
  EXPECT_DOUBLE_EQ(SamplePercentile(v, 25), 1.75);
  std::vector<double> empty;
  EXPECT_EQ(SamplePercentile(empty, 50), 0.0);
  std::vector<double> one = {7};
  EXPECT_EQ(SamplePercentile(one, 99), 7.0);
}

}  // namespace
}  // namespace perfbench

namespace perfbench {
namespace {

TEST(ChooseStealLevel, TakesTheLowestLevelAnEighthOfTheRoundsStayWithin) {
  auto level = [](const std::vector<double>& steal) {
    return kStealLevels[ChooseStealLevel(steal)];
  };
  EXPECT_EQ(level(std::vector<double>(16, 0.0)), 0.01);
  // Two of sixteen rounds are needed; a level includes rounds exactly at it.
  std::vector<double> steal(16, 0.5);
  steal[3] = 0.01;
  steal[9] = 0.01;
  EXPECT_EQ(level(steal), 0.01);
  // The second-cleanest round saw 3 % steal.
  steal[9] = 0.03;
  EXPECT_EQ(level(steal), 0.04);
  // One heavily stolen round still gives a level, the one that admits all.
  EXPECT_EQ(level({0.5}), 1.0);
}

}  // namespace
}  // namespace perfbench
