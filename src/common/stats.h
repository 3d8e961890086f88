// Statistics primitives: counters with ratio helpers, fixed-bucket
// histograms, and a running mean/max accumulator.
//
// Every architectural component (caches, predictors, pipeline, R-stream
// queue) exposes its activity through these so the experiment harness can
// print uniform reports.
#pragma once

#include <algorithm>
#include <string>
#include <vector>

#include "common/types.h"

namespace reese {

class SnapshotReader;
class SnapshotWriter;

/// Ratio helper that is safe for zero denominators.
double safe_ratio(u64 numerator, u64 denominator);

/// Wilson score confidence interval for a binomial proportion.
///
/// The fault campaigns report detection coverage over n injections; the
/// naive Wald interval collapses to zero width at p̂ = 0 or 1 — exactly the
/// endpoints a 100%-coverage claim lives at — so coverage claims use the
/// Wilson score interval instead, which stays honest at the boundaries:
/// with x = n successes the lower bound is n / (n + z²), not 1.
struct WilsonInterval {
  double lower = 0.0;
  double center = 0.0;  ///< adjusted point estimate (not x/n)
  double upper = 0.0;
};

/// Interval for `successes` out of `trials`; `z` is the normal quantile
/// (1.96 ≈ 95% two-sided). Returns all-zero when trials == 0.
WilsonInterval wilson_interval(u64 successes, u64 trials, double z = 1.96);

/// A histogram over u64 samples with caller-defined bucket width. Samples
/// beyond the last bucket accumulate in an overflow bucket. Used for P→R
/// separation, queue-occupancy and latency distributions.
class Histogram {
 public:
  /// `bucket_width` samples per bucket, `bucket_count` finite buckets.
  Histogram(u64 bucket_width, usize bucket_count);

  /// Inline: called once per committed instruction on several distributions
  /// (separation, issue width, occupancies) — hundreds of millions of calls
  /// per paper-scale run. Every in-tree width is a power of two, so the
  /// bucket divide is a shift on the hot path.
  void add(u64 sample) {
    const u64 index =
        width_is_pow2_ ? (sample >> width_shift_) : (sample / bucket_width_);
    if (index < buckets_.size()) {
      ++buckets_[index];
    } else {
      ++overflow_;
    }
    ++count_;
    sum_ += sample;
    min_ = std::min(min_, sample);
    max_ = std::max(max_, sample);
  }

  u64 count() const { return count_; }
  u64 sum() const { return sum_; }
  u64 min() const { return count_ == 0 ? 0 : min_; }
  u64 max() const { return max_; }
  double mean() const { return safe_ratio(sum_, count_); }

  u64 bucket_width() const { return bucket_width_; }
  /// Finite buckets; buckets().back() is NOT the overflow bucket.
  const std::vector<u64>& buckets() const { return buckets_; }
  u64 overflow() const { return overflow_; }

  /// Smallest sample value v such that at least `fraction` of samples are
  /// <= v, computed from bucket upper bounds (approximate).
  u64 percentile(double fraction) const;

  /// Multi-line human-readable rendering (label, mean, p50/p95, sparkline).
  std::string to_string(const std::string& label) const;

  void reset();

  /// Checkpoint serialization. load() requires a histogram constructed with
  /// the same geometry (width/bucket count come from configuration, not
  /// from the snapshot) and latches a reader error on mismatch.
  void save(SnapshotWriter* writer) const;
  void load(SnapshotReader* reader);

 private:
  template <class Self, class Io>
  static void layout(Self& self, Io& io);

  u64 bucket_width_;
  std::vector<u64> buckets_;
  u64 overflow_ = 0;
  u64 count_ = 0;
  u64 sum_ = 0;
  u64 min_ = ~u64{0};
  u64 max_ = 0;
  u32 width_shift_ = 0;
  bool width_is_pow2_ = false;
};

/// Spearman rank-correlation coefficient between two paired samples.
///
/// Ranks use the average-rank convention for ties, then Pearson correlation
/// of the rank vectors — the standard tie-corrected Spearman ρ. Used by the
/// AVF validation bench to compare the static vulnerability ranking against
/// measured per-PC fault outcomes, where a monotone relationship (not a
/// linear one) is the claim under test. Returns 0.0 when the vectors are
/// shorter than 2, differ in length, or either side is constant (rank
/// variance zero — correlation is undefined there).
double spearman_rank_correlation(const std::vector<double>& xs,
                                 const std::vector<double>& ys);

/// Running mean/min/max of double-valued samples (per-cycle occupancies,
/// utilizations).
class RunningStat {
 public:
  /// Inline for the same reason as Histogram::add — per-cycle call sites.
  void add(double sample) {
    if (count_ == 0) {
      min_ = sample;
      max_ = sample;
    } else {
      min_ = std::min(min_, sample);
      max_ = std::max(max_, sample);
    }
    ++count_;
    sum_ += sample;
  }
  u64 count() const { return count_; }
  double mean() const;
  double min() const { return count_ == 0 ? 0.0 : min_; }
  double max() const { return count_ == 0 ? 0.0 : max_; }
  void reset();

  void save(SnapshotWriter* writer) const;
  void load(SnapshotReader* reader);

 private:
  template <class Self, class Io>
  static void layout(Self& self, Io& io);

  u64 count_ = 0;
  double sum_ = 0.0;
  double min_ = 0.0;
  double max_ = 0.0;
};

}  // namespace reese
