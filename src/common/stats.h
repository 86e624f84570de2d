#ifndef XAR_COMMON_STATS_H_
#define XAR_COMMON_STATS_H_

#include <cstddef>
#include <vector>

namespace xar {

/// Streaming accumulator for count / mean / min / max / stddev (Welford).
class StatAccumulator {
 public:
  void Add(double x);

  std::size_t count() const { return count_; }
  double mean() const { return count_ ? mean_ : 0.0; }
  double min() const { return count_ ? min_ : 0.0; }
  double max() const { return count_ ? max_ : 0.0; }
  double sum() const { return sum_; }
  /// Sample variance (n-1 denominator); 0 for fewer than 2 samples.
  double variance() const;
  double stddev() const;

 private:
  std::size_t count_ = 0;
  double mean_ = 0.0;
  double m2_ = 0.0;
  double min_ = 0.0;
  double max_ = 0.0;
  double sum_ = 0.0;
};

/// Stores all samples to answer exact percentile and CDF queries.
///
/// Used by the benchmark harness to report the same percentile series the
/// paper's figures plot (e.g., Fig. 3a detour CDF, Fig. 4a search-time
/// percentiles). Samples are sorted lazily on first query.
class PercentileTracker {
 public:
  void Add(double x);
  void Reserve(std::size_t n) { samples_.reserve(n); }

  std::size_t count() const { return samples_.size(); }
  double mean() const;
  double min() const;
  double max() const;

  /// Exact p-th percentile, p in [0, 100], by nearest-rank. Requires samples.
  double Percentile(double p) const;

  /// Fraction of samples <= x, in [0, 1].
  double FractionAtMost(double x) const;

  /// All samples in ascending order.
  const std::vector<double>& sorted() const;

 private:
  void EnsureSorted() const;

  mutable std::vector<double> samples_;
  mutable bool sorted_ = true;
};

}  // namespace xar

#endif  // XAR_COMMON_STATS_H_
