#include "common/stats.h"

#include <algorithm>
#include <cassert>
#include <cmath>
#include <cstdio>

#include "common/snapshot.h"

namespace reese {

double safe_ratio(u64 numerator, u64 denominator) {
  if (denominator == 0) return 0.0;
  return static_cast<double>(numerator) / static_cast<double>(denominator);
}

WilsonInterval wilson_interval(u64 successes, u64 trials, double z) {
  assert(successes <= trials);
  if (trials == 0) return {};
  const double n = static_cast<double>(trials);
  const double p = static_cast<double>(successes) / n;
  const double z2 = z * z;
  const double denom = 1.0 + z2 / n;
  const double center = (p + z2 / (2.0 * n)) / denom;
  const double half =
      (z / denom) * std::sqrt(p * (1.0 - p) / n + z2 / (4.0 * n * n));
  WilsonInterval interval;
  interval.center = center;
  interval.lower = std::max(0.0, center - half);
  interval.upper = std::min(1.0, center + half);
  return interval;
}

Histogram::Histogram(u64 bucket_width, usize bucket_count)
    : bucket_width_(bucket_width), buckets_(bucket_count, 0) {
  assert(bucket_width >= 1);
  assert(bucket_count >= 1);
  if ((bucket_width & (bucket_width - 1)) == 0) {
    width_is_pow2_ = true;
    while ((u64{1} << width_shift_) < bucket_width) ++width_shift_;
  }
}

u64 Histogram::percentile(double fraction) const {
  if (count_ == 0) return 0;
  // Nearest-rank: the smallest value with at least ⌈fraction·n⌉ samples at
  // or below it. Truncating here used to drop overflow samples from high
  // percentiles entirely (p99 of {12, 1000} reported 12).
  const u64 target = std::max<u64>(
      1, static_cast<u64>(
             std::ceil(fraction * static_cast<double>(count_))));
  u64 seen = 0;
  for (usize i = 0; i < buckets_.size(); ++i) {
    seen += buckets_[i];
    if (seen >= target) return (i + 1) * bucket_width_ - 1;
  }
  return max_;
}

std::string Histogram::to_string(const std::string& label) const {
  char line[256];
  std::snprintf(line, sizeof line,
                "%s: n=%llu mean=%.2f min=%llu p50=%llu p95=%llu max=%llu",
                label.c_str(), static_cast<unsigned long long>(count_), mean(),
                static_cast<unsigned long long>(min()),
                static_cast<unsigned long long>(percentile(0.50)),
                static_cast<unsigned long long>(percentile(0.95)),
                static_cast<unsigned long long>(max_));
  std::string out(line);

  // Sparkline over finite buckets.
  static const char* kLevels[] = {" ", ".", ":", "-", "=", "+", "*", "#"};
  u64 peak = overflow_;
  for (u64 b : buckets_) peak = std::max(peak, b);
  if (peak > 0) {
    out += "\n  [";
    for (u64 b : buckets_) {
      const usize level = (b == 0) ? 0 : 1 + (b * 6) / peak;
      out += kLevels[std::min<usize>(level, 7)];
    }
    out += "]";
    if (overflow_ > 0) {
      out += " +" + std::to_string(overflow_) + " overflow";
    }
  }
  return out;
}

void Histogram::reset() {
  std::fill(buckets_.begin(), buckets_.end(), 0);
  overflow_ = 0;
  count_ = 0;
  sum_ = 0;
  min_ = ~u64{0};
  max_ = 0;
}

template <class Self, class Io>
void Histogram::layout(Self& self, Io& io) {
  const std::string mismatch =
      "histogram geometry mismatch (snapshot built with a different "
      "configuration)";
  io.geometry(self.bucket_width_, mismatch);
  io.geometry(self.buckets_.size(), mismatch);
  for (auto& bucket : self.buckets_) io.field(bucket);
  io.field(self.overflow_);
  io.field(self.count_);
  io.field(self.sum_);
  io.field(self.min_);
  io.field(self.max_);
}

void Histogram::save(SnapshotWriter* writer) const { layout(*this, *writer); }
void Histogram::load(SnapshotReader* reader) { layout(*this, *reader); }

template <class Self, class Io>
void RunningStat::layout(Self& self, Io& io) {
  io.field(self.count_);
  io.field(self.sum_);
  io.field(self.min_);
  io.field(self.max_);
}

void RunningStat::save(SnapshotWriter* writer) const { layout(*this, *writer); }
void RunningStat::load(SnapshotReader* reader) { layout(*this, *reader); }

namespace {

/// Average ranks (1-based) with ties sharing the mean of their rank span.
std::vector<double> average_ranks(const std::vector<double>& values) {
  const usize n = values.size();
  std::vector<usize> order(n);
  for (usize i = 0; i < n; ++i) order[i] = i;
  std::sort(order.begin(), order.end(),
            [&](usize a, usize b) { return values[a] < values[b]; });
  std::vector<double> ranks(n, 0.0);
  usize i = 0;
  while (i < n) {
    usize j = i;
    while (j + 1 < n && values[order[j + 1]] == values[order[i]]) ++j;
    // Positions i..j (0-based) share the average of ranks i+1..j+1.
    const double rank = static_cast<double>(i + j) / 2.0 + 1.0;
    for (usize k = i; k <= j; ++k) ranks[order[k]] = rank;
    i = j + 1;
  }
  return ranks;
}

}  // namespace

double spearman_rank_correlation(const std::vector<double>& xs,
                                 const std::vector<double>& ys) {
  if (xs.size() != ys.size() || xs.size() < 2) return 0.0;
  const std::vector<double> rx = average_ranks(xs);
  const std::vector<double> ry = average_ranks(ys);
  const double n = static_cast<double>(xs.size());
  double mean_x = 0.0;
  double mean_y = 0.0;
  for (usize i = 0; i < xs.size(); ++i) {
    mean_x += rx[i];
    mean_y += ry[i];
  }
  mean_x /= n;
  mean_y /= n;
  double cov = 0.0;
  double var_x = 0.0;
  double var_y = 0.0;
  for (usize i = 0; i < xs.size(); ++i) {
    const double dx = rx[i] - mean_x;
    const double dy = ry[i] - mean_y;
    cov += dx * dy;
    var_x += dx * dx;
    var_y += dy * dy;
  }
  if (var_x == 0.0 || var_y == 0.0) return 0.0;
  return cov / std::sqrt(var_x * var_y);
}

double RunningStat::mean() const {
  if (count_ == 0) return 0.0;
  return sum_ / static_cast<double>(count_);
}

void RunningStat::reset() {
  count_ = 0;
  sum_ = 0.0;
  min_ = 0.0;
  max_ = 0.0;
}

}  // namespace reese
