// Descriptive statistics used throughout the evaluation: running
// mean/variance (Welford), order statistics (median, percentiles), and a
// compact summary record used when aggregating simulation trials.
#pragma once

#include <cstddef>
#include <cstdint>
#include <span>
#include <vector>

namespace dhtlb::stats {

/// Numerically stable running mean / variance accumulator (Welford).
/// Suitable for streaming per-tick metrics without storing samples.
class RunningStats {
 public:
  void add(double x);

  std::size_t count() const { return count_; }
  double mean() const { return count_ == 0 ? 0.0 : mean_; }
  /// Sample variance (n-1 denominator); 0 for fewer than two samples.
  double variance() const;
  double stddev() const;
  double min() const { return count_ == 0 ? 0.0 : min_; }
  double max() const { return count_ == 0 ? 0.0 : max_; }

  /// Merges another accumulator (parallel reduction), Chan et al. update.
  void merge(const RunningStats& other);

 private:
  std::size_t count_ = 0;
  double mean_ = 0.0;
  double m2_ = 0.0;
  double min_ = 0.0;
  double max_ = 0.0;
};

/// Median of a sample (copies and partially sorts; does not modify input).
/// Uses the mean-of-middle-two convention for even sizes.  Returns 0 for
/// an empty sample.
double median(std::span<const double> xs);
double median_u64(std::span<const std::uint64_t> xs);

/// p-th percentile, p in [0, 100], linear interpolation between closest
/// ranks (the "exclusive" variant matching numpy's default).  Returns 0
/// for an empty sample.
double percentile(std::span<const double> xs, double p);

/// Full five-number-style summary of a sample, computed in one pass over
/// a sorted copy.
struct Summary {
  std::size_t count = 0;
  double mean = 0.0;
  double stddev = 0.0;  // sample stddev, n-1 denominator
  double min = 0.0;
  double p25 = 0.0;
  double median = 0.0;
  double p75 = 0.0;
  double max = 0.0;
};

Summary summarize(std::span<const double> xs);

}  // namespace dhtlb::stats
