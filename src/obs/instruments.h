// Lock-free metric instruments: the leaf layer of the observability stack.
//
// This header is deliberately standard-library-only (atomics and
// containers, no fm:: dependencies) so the lowest layers of the codebase —
// the MPSC staging queue, the WAL writer — can own an instrument directly
// without a layering inversion: common/ and durability/ may include
// obs/instruments.h, while the registry and exposition code
// (obs/metrics_registry.h) sits above them and never below.
//
// Decision-neutrality contract: an instrument only ever *counts* or records
// wall-clock durations. Nothing in this layer is read back by dispatch code,
// so enabling observability can never perturb simulated time or any
// assignment decision —
// bench_observability hard-gates replay fingerprints with the full obs
// stack on vs. off.
//
// Thread safety: every mutator is a relaxed atomic operation (or a CAS loop
// for the double-valued gauge/histogram sum); readers see eventually-
// consistent values, exact once writers quiesce. None of the instruments
// are copyable — registries and owners hold them by reference.
//
// Complexity: Increment/Add/Set are one atomic RMW. Histogram::Observe is a
// linear scan over a handful of fixed boundaries plus three RMWs — cheap
// next to anything worth timing.
#ifndef FOODMATCH_OBS_INSTRUMENTS_H_
#define FOODMATCH_OBS_INSTRUMENTS_H_

#include <atomic>
#include <cstddef>
#include <cstdint>
#include <memory>
#include <vector>

namespace fm::obs {

/// Monotone event count.
class Counter {
 public:
  Counter() = default;
  Counter(const Counter&) = delete;
  Counter& operator=(const Counter&) = delete;

  void Increment() { Add(1); }
  void Add(std::uint64_t n) { value_.fetch_add(n, std::memory_order_relaxed); }
  std::uint64_t value() const {
    return value_.load(std::memory_order_relaxed);
  }

 private:
  std::atomic<std::uint64_t> value_{0};
};

/// Last-written point-in-time value (queue depth, pool size, imbalance).
class Gauge {
 public:
  Gauge() = default;
  Gauge(const Gauge&) = delete;
  Gauge& operator=(const Gauge&) = delete;

  void Set(double v) { value_.store(v, std::memory_order_relaxed); }
  void Add(double delta) {
    double cur = value_.load(std::memory_order_relaxed);
    while (!value_.compare_exchange_weak(cur, cur + delta,
                                         std::memory_order_relaxed)) {
    }
  }
  double value() const { return value_.load(std::memory_order_relaxed); }

 private:
  std::atomic<double> value_{0.0};
};

/// Fixed-boundary histogram. Bucket i counts observations v with
/// boundaries[i-1] < v <= boundaries[i]; one extra overflow bucket counts
/// v > boundaries.back(). Boundaries are fixed at construction (sorted,
/// strictly increasing) so Observe never allocates or locks.
class Histogram {
 public:
  explicit Histogram(std::vector<double> boundaries)
      : boundaries_(std::move(boundaries)),
        counts_(std::make_unique<std::atomic<std::uint64_t>[]>(
            boundaries_.size() + 1)) {}

  Histogram(const Histogram&) = delete;
  Histogram& operator=(const Histogram&) = delete;

  void Observe(double v) {
    std::size_t bucket = boundaries_.size();  // overflow by default
    for (std::size_t i = 0; i < boundaries_.size(); ++i) {
      if (v <= boundaries_[i]) {
        bucket = i;
        break;
      }
    }
    counts_[bucket].fetch_add(1, std::memory_order_relaxed);
    count_.fetch_add(1, std::memory_order_relaxed);
    double cur = sum_.load(std::memory_order_relaxed);
    while (!sum_.compare_exchange_weak(cur, cur + v,
                                       std::memory_order_relaxed)) {
    }
  }

  const std::vector<double>& boundaries() const { return boundaries_; }
  /// Buckets including the overflow bucket (boundaries().size() + 1).
  std::size_t num_buckets() const { return boundaries_.size() + 1; }
  std::uint64_t bucket_count(std::size_t i) const {
    return counts_[i].load(std::memory_order_relaxed);
  }
  std::uint64_t count() const { return count_.load(std::memory_order_relaxed); }
  double sum() const { return sum_.load(std::memory_order_relaxed); }

 private:
  std::vector<double> boundaries_;
  std::unique_ptr<std::atomic<std::uint64_t>[]> counts_;
  std::atomic<std::uint64_t> count_{0};
  std::atomic<double> sum_{0.0};
};

/// Wall-clock latency boundaries (seconds): 10 µs … 10 s in a 1-3-10
/// ladder. The shared default for every *_seconds histogram so bucket
/// layouts stay comparable across instruments and anchors.
inline std::vector<double> LatencyBoundaries() {
  return {1e-5, 3e-5, 1e-4, 3e-4, 1e-3, 3e-3,
          1e-2, 3e-2, 1e-1, 3e-1, 1.0,  3.0, 10.0};
}

}  // namespace fm::obs

#endif  // FOODMATCH_OBS_INSTRUMENTS_H_
