#include "common/stats.h"

#include <algorithm>
#include <cmath>

namespace fm {

void RunningStats::Add(double x) {
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

void RunningStats::Merge(const RunningStats& other) {
  if (other.count_ == 0) return;
  if (count_ == 0) {
    *this = other;
    return;
  }
  double delta = other.mean_ - mean_;
  std::size_t total = count_ + other.count_;
  m2_ += other.m2_ + delta * delta * static_cast<double>(count_) *
                         static_cast<double>(other.count_) /
                         static_cast<double>(total);
  mean_ = (mean_ * static_cast<double>(count_) +
           other.mean_ * static_cast<double>(other.count_)) /
          static_cast<double>(total);
  sum_ += other.sum_;
  min_ = std::min(min_, other.min_);
  max_ = std::max(max_, other.max_);
  count_ = total;
}

double RunningStats::mean() const { return count_ == 0 ? 0.0 : mean_; }
double RunningStats::min() const { return count_ == 0 ? 0.0 : min_; }
double RunningStats::max() const { return count_ == 0 ? 0.0 : max_; }

double RunningStats::variance() const {
  if (count_ < 2) return 0.0;
  return m2_ / static_cast<double>(count_);
}

double RunningStats::stddev() const { return std::sqrt(variance()); }

}  // namespace fm
