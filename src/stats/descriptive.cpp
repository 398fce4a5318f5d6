#include "stats/descriptive.hpp"

#include <algorithm>
#include <cmath>

namespace dhtlb::stats {

void RunningStats::add(double x) {
  if (count_ == 0) {
    min_ = max_ = x;
  } else {
    min_ = std::min(min_, x);
    max_ = std::max(max_, x);
  }
  ++count_;
  const double delta = x - mean_;
  mean_ += delta / static_cast<double>(count_);
  m2_ += delta * (x - mean_);
}

double RunningStats::variance() const {
  if (count_ < 2) return 0.0;
  return m2_ / static_cast<double>(count_ - 1);
}

double RunningStats::stddev() const { return std::sqrt(variance()); }

void RunningStats::merge(const RunningStats& other) {
  if (other.count_ == 0) return;
  if (count_ == 0) {
    *this = other;
    return;
  }
  const double n1 = static_cast<double>(count_);
  const double n2 = static_cast<double>(other.count_);
  const double delta = other.mean_ - mean_;
  const double total = n1 + n2;
  mean_ += delta * n2 / total;
  m2_ += other.m2_ + delta * delta * n1 * n2 / total;
  count_ += other.count_;
  min_ = std::min(min_, other.min_);
  max_ = std::max(max_, other.max_);
}

namespace {

double percentile_sorted(std::span<const double> sorted, double p) {
  if (sorted.empty()) return 0.0;
  if (sorted.size() == 1) return sorted[0];
  const double clamped = std::clamp(p, 0.0, 100.0);
  const double rank =
      clamped / 100.0 * static_cast<double>(sorted.size() - 1);
  const auto lo = static_cast<std::size_t>(rank);
  const std::size_t hi = std::min(lo + 1, sorted.size() - 1);
  const double frac = rank - static_cast<double>(lo);
  return sorted[lo] + frac * (sorted[hi] - sorted[lo]);
}

}  // namespace

double median(std::span<const double> xs) {
  if (xs.empty()) return 0.0;
  std::vector<double> copy(xs.begin(), xs.end());
  const std::size_t mid = copy.size() / 2;
  std::nth_element(copy.begin(), copy.begin() + static_cast<long>(mid),
                   copy.end());
  const double upper = copy[mid];
  if (copy.size() % 2 == 1) return upper;
  const double lower =
      *std::max_element(copy.begin(), copy.begin() + static_cast<long>(mid));
  return (lower + upper) / 2.0;
}

double median_u64(std::span<const std::uint64_t> xs) {
  std::vector<double> d(xs.begin(), xs.end());
  return median(d);
}

double percentile(std::span<const double> xs, double p) {
  std::vector<double> copy(xs.begin(), xs.end());
  std::sort(copy.begin(), copy.end());
  return percentile_sorted(copy, p);
}

Summary summarize(std::span<const double> xs) {
  Summary s;
  s.count = xs.size();
  if (xs.empty()) return s;
  std::vector<double> copy(xs.begin(), xs.end());
  std::sort(copy.begin(), copy.end());
  RunningStats running;
  for (double x : copy) running.add(x);
  s.mean = running.mean();
  s.stddev = running.stddev();
  s.min = copy.front();
  s.max = copy.back();
  s.p25 = percentile_sorted(copy, 25.0);
  s.median = percentile_sorted(copy, 50.0);
  s.p75 = percentile_sorted(copy, 75.0);
  return s;
}

}  // namespace dhtlb::stats
