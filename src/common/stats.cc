#include "common/stats.h"

#include <algorithm>
#include <cassert>
#include <cmath>

namespace xar {

void StatAccumulator::Add(double x) {
  if (count_ == 0) {
    min_ = max_ = x;
  } else {
    min_ = std::min(min_, x);
    max_ = std::max(max_, x);
  }
  ++count_;
  sum_ += x;
  double delta = x - mean_;
  mean_ += delta / static_cast<double>(count_);
  m2_ += delta * (x - mean_);
}

double StatAccumulator::variance() const {
  if (count_ < 2) return 0.0;
  return m2_ / static_cast<double>(count_ - 1);
}

double StatAccumulator::stddev() const { return std::sqrt(variance()); }

void PercentileTracker::Add(double x) {
  samples_.push_back(x);
  sorted_ = false;
}

void PercentileTracker::EnsureSorted() const {
  if (!sorted_) {
    std::sort(samples_.begin(), samples_.end());
    sorted_ = true;
  }
}

double PercentileTracker::mean() const {
  if (samples_.empty()) return 0.0;
  double s = 0;
  for (double x : samples_) s += x;
  return s / static_cast<double>(samples_.size());
}

double PercentileTracker::min() const {
  EnsureSorted();
  return samples_.empty() ? 0.0 : samples_.front();
}

double PercentileTracker::max() const {
  EnsureSorted();
  return samples_.empty() ? 0.0 : samples_.back();
}

double PercentileTracker::Percentile(double p) const {
  assert(!samples_.empty());
  EnsureSorted();
  if (p <= 0) return samples_.front();
  if (p >= 100) return samples_.back();
  // Nearest-rank: smallest element with cumulative frequency >= p%.
  std::size_t rank = static_cast<std::size_t>(
      std::ceil(p / 100.0 * static_cast<double>(samples_.size())));
  if (rank == 0) rank = 1;
  return samples_[rank - 1];
}

double PercentileTracker::FractionAtMost(double x) const {
  if (samples_.empty()) return 0.0;
  EnsureSorted();
  auto it = std::upper_bound(samples_.begin(), samples_.end(), x);
  return static_cast<double>(it - samples_.begin()) /
         static_cast<double>(samples_.size());
}

const std::vector<double>& PercentileTracker::sorted() const {
  EnsureSorted();
  return samples_;
}

}  // namespace xar
