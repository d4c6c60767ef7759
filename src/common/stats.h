// Streaming summary statistics used by the bench harness.
#ifndef FOODMATCH_COMMON_STATS_H_
#define FOODMATCH_COMMON_STATS_H_

#include <cstddef>

namespace fm {

// Streaming accumulator for count/mean/min/max/stddev (Welford).
class RunningStats {
 public:
  void Add(double x);
  void Merge(const RunningStats& other);

  std::size_t count() const { return count_; }
  double sum() const { return sum_; }
  double mean() const;
  double min() const;
  double max() const;
  // Population variance; 0 for fewer than 2 samples.
  double variance() const;
  double stddev() const;

 private:
  std::size_t count_ = 0;
  double sum_ = 0.0;
  double mean_ = 0.0;
  double m2_ = 0.0;
  double min_ = 0.0;
  double max_ = 0.0;
};

}  // namespace fm

#endif  // FOODMATCH_COMMON_STATS_H_
