// The benchmark's own statistics: a fixed-size latency histogram, sample
// percentiles, and the choice of rounds a phase's metrics are computed over.
//
// LogHistogram:
// Log-linear buckets (HdrHistogram layout): values below 2^kSubBits get one
// bucket each; above that every power-of-two octave is split into
// 2^(kSubBits-1) linear sub-buckets, so a bucket is at most 1/512 of its
// lower bound wide. Memory is fixed (~230 KB, taken at the first sample)
// whatever the run length, and
// percentiles interpolate linearly inside the target bucket, so reported
// times keep all their digits instead of snapping to bucket edges.
//
// Not thread-safe: each recording thread owns its histogram; Merge() joins
// them afterwards.
#pragma once

#include <algorithm>
#include <bit>
#include <cstdint>
#include <iterator>
#include <vector>

namespace perfbench {

class LogHistogram {
 public:
  static constexpr int kSubBits = 10;
  static constexpr std::uint64_t kExact = std::uint64_t{1} << kSubBits;
  static constexpr std::uint64_t kHalf = kExact / 2;
  static constexpr std::size_t kNumBuckets =
      kExact + (64 - kSubBits) * kHalf;

  LogHistogram() = default;

  static std::size_t BucketIndex(std::uint64_t v) {
    if (v < kExact) return static_cast<std::size_t>(v);
    const int shift = std::bit_width(v) - kSubBits;  // >= 1
    const std::uint64_t top = v >> shift;            // [kHalf, kExact)
    return static_cast<std::size_t>(kExact + (shift - 1) * kHalf +
                                    (top - kHalf));
  }
  static std::uint64_t BucketLower(std::size_t index) {
    if (index < kExact) return index;
    const std::size_t b = index - kExact;
    const int shift = static_cast<int>(b / kHalf) + 1;
    return (kHalf + b % kHalf) << shift;
  }
  static std::uint64_t BucketWidth(std::size_t index) {
    if (index < kExact) return 1;
    return std::uint64_t{1} << ((index - kExact) / kHalf + 1);
  }

  void Record(std::uint64_t v) {
    if (counts_.empty()) counts_.assign(kNumBuckets, 0);
    ++counts_[BucketIndex(v)];
    ++count_;
    sum_ += v;
    min_ = count_ == 1 ? v : std::min(min_, v);
    max_ = std::max(max_, v);
  }

  void Merge(const LogHistogram& other) {
    if (other.count_ == 0) return;
    if (counts_.empty()) counts_.assign(kNumBuckets, 0);
    // Only the buckets between the other's extremes can be non-zero.
    const std::size_t last = BucketIndex(other.max_);
    for (std::size_t i = BucketIndex(other.min_); i <= last; ++i) {
      counts_[i] += other.counts_[i];
    }
    min_ = count_ == 0 ? other.min_ : std::min(min_, other.min_);
    max_ = std::max(max_, other.max_);
    count_ += other.count_;
    sum_ += other.sum_;
  }

  std::uint64_t count() const { return count_; }
  double Mean() const {
    return count_ == 0 ? 0.0 : static_cast<double>(sum_) / count_;
  }

  // p in [0, 100]: the value below which p% of the samples fall, with
  // linear interpolation inside the bucket that holds that rank, clamped
  // to the observed [min, max]. 0 when empty.
  double Percentile(double p) const {
    if (count_ == 0) return 0.0;
    const double target = std::clamp(p, 0.0, 100.0) / 100.0 *
                          static_cast<double>(count_);
    double cumulative = 0.0;
    for (std::size_t i = 0; i < kNumBuckets; ++i) {
      if (counts_[i] == 0) continue;
      const double next = cumulative + static_cast<double>(counts_[i]);
      if (next >= target) {
        const double frac = (target - cumulative) / counts_[i];
        const double v = static_cast<double>(BucketLower(i)) +
                         frac * static_cast<double>(BucketWidth(i));
        return std::clamp(v, static_cast<double>(min_),
                          static_cast<double>(max_));
      }
      cumulative = next;
    }
    return static_cast<double>(max_);
  }

 private:
  std::vector<std::uint64_t> counts_;
  std::uint64_t count_ = 0;
  std::uint64_t sum_ = 0;
  std::uint64_t min_ = 0;
  std::uint64_t max_ = 0;
};

// Percentile of an unsorted sample (sorted in place): linear interpolation
// between closest ranks, the "type 7" definition (numpy's default), so
// p50 of {1, 2, 3, 4} is 2.5. 0 when empty.
inline double SamplePercentile(std::vector<double>& values, double p) {
  if (values.empty()) return 0.0;
  std::sort(values.begin(), values.end());
  const double rank = std::clamp(p, 0.0, 100.0) / 100.0 *
                      static_cast<double>(values.size() - 1);
  const auto lo = static_cast<std::size_t>(rank);
  const std::size_t hi = std::min(lo + 1, values.size() - 1);
  return values[lo] + (rank - static_cast<double>(lo)) *
                          (values[hi] - values[lo]);
}

// The steal levels a phase's rounds are pooled by. On a shared host the
// hypervisor steals 0-30 % of this guest's CPU in a round, and a stolen
// vCPU stalls whichever thread holds the pipeline, so a round's throughput
// and tail latency follow its steal share. A phase's metrics are computed
// over the rounds whose steal share is at most the lowest level that an
// eighth of its rounds (at least one) stay within, pooled as one stretch
// of the phase. The last level admits every round.
inline constexpr double kStealLevels[] = {0.01, 0.02, 0.04, 0.08, 0.16, 1.0};
inline constexpr std::size_t kNumStealLevels = std::size(kStealLevels);

// Index into kStealLevels of the level chosen for rounds with these steal
// shares.
inline std::size_t ChooseStealLevel(const std::vector<double>& steal) {
  const std::size_t need = std::max<std::size_t>(1, steal.size() / 8);
  for (std::size_t level = 0; level + 1 < kNumStealLevels; ++level) {
    const auto within =
        std::count_if(steal.begin(), steal.end(),
                      [&](double s) { return s <= kStealLevels[level]; });
    if (static_cast<std::size_t>(within) >= need) return level;
  }
  return kNumStealLevels - 1;
}

}  // namespace perfbench
