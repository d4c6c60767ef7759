// MetricsRegistry: named, typed instruments with deterministic exposition.
//
// The registry is the naming and exposition layer over obs/instruments.h.
// Components register instruments once at construction (RegisterCounter /
// RegisterGauge / RegisterHistogram return a reference the component keeps
// and mutates lock-free), or register a *callback* instrument that samples
// an existing accessor at snapshot time
// — how the pre-existing ad-hoc counters (MpscQueue::blocked_pushes, the
// sharded router's migrations, EdgeCache hits, WAL byte counts) surface on
// the registry while their original accessors stay the source of truth.
//
// Determinism of exposition: instruments are stored in registration order
// and Snapshot(), ToJson(), and ToPrometheusText() walk that order, so two
// runs that register the same instruments in the same order produce
// byte-identical headers (values differ only where the workload does).
// Names must be unique — a duplicate registration aborts, because silently
// shadowing an instrument would corrupt every exposition consumer.
//
// Thread safety: registration and Snapshot take a mutex (both are
// off-hot-path: construction time and exposition cadence); instrument
// mutation is lock-free and never touches the mutex. Callback instruments
// run on the snapshotting thread — register callbacks whose reads are safe
// from that thread (the serving drivers snapshot on the consumer thread,
// where racy reads of producer counters are monitoring-grade by design).
#ifndef FOODMATCH_OBS_METRICS_REGISTRY_H_
#define FOODMATCH_OBS_METRICS_REGISTRY_H_

#include <cstddef>
#include <cstdint>
#include <deque>
#include <functional>
#include <mutex>
#include <string>
#include <vector>

#include "obs/instruments.h"

namespace fm::obs {

enum class InstrumentKind { kCounter, kGauge, kHistogram };

/// Point-in-time value of one histogram.
struct HistogramValue {
  std::vector<double> boundaries;
  std::vector<std::uint64_t> counts;  // boundaries.size() + 1 (overflow last)
  std::uint64_t count = 0;
  double sum = 0.0;
};

/// Point-in-time value of one instrument.
struct InstrumentValue {
  std::string name;
  std::string help;
  InstrumentKind kind = InstrumentKind::kCounter;
  std::uint64_t counter = 0;        // kCounter
  double gauge = 0.0;               // kGauge
  HistogramValue histogram;         // kHistogram
};

/// A full registry snapshot, in registration order.
struct MetricsSnapshot {
  std::vector<InstrumentValue> instruments;

  /// The instrument named `name`, or null when none was registered.
  const InstrumentValue* Find(const std::string& name) const;

  /// One JSON object `{"name": value, ...}` in registration order.
  /// Counters are integers, gauges numbers, histograms objects with
  /// boundaries/counts/count/sum.
  std::string ToJson() const;

  /// Prometheus-style text exposition: # HELP / # TYPE lines plus samples.
  /// Dots in instrument names become underscores (Prometheus charset);
  /// histograms expose cumulative `le` buckets, `_sum`, and `_count`.
  std::string ToPrometheusText() const;
};

class MetricsRegistry {
 public:
  MetricsRegistry() = default;
  MetricsRegistry(const MetricsRegistry&) = delete;
  MetricsRegistry& operator=(const MetricsRegistry&) = delete;

  // ---- Owned instruments (the registry allocates; references stay valid
  // for the registry's lifetime — storage never moves) ----

  Counter& RegisterCounter(const std::string& name, const std::string& help);
  Gauge& RegisterGauge(const std::string& name, const std::string& help);
  Histogram& RegisterHistogram(const std::string& name,
                               const std::string& help,
                               std::vector<double> boundaries);

  // ---- Callback instruments (sampled at snapshot time) ----
  //
  // `owner` tags the callback for FreezeCallbacks: a component whose
  // callbacks read its own state passes `this` and freezes from its
  // destructor, so a registry outliving the component keeps exposing the
  // final values instead of calling dangling functions.

  void RegisterCallbackCounter(const std::string& name,
                               const std::string& help,
                               std::function<std::uint64_t()> sample,
                               const void* owner = nullptr);
  void RegisterCallbackGauge(const std::string& name, const std::string& help,
                             std::function<double()> sample,
                             const void* owner = nullptr);

  /// Samples every callback registered under `owner` one last time and
  /// drops the function; the entry keeps exposing that frozen value.
  void FreezeCallbacks(const void* owner);

  /// Values of every instrument, in registration order.
  MetricsSnapshot Snapshot() const;

  std::size_t size() const;

 private:
  struct Entry {
    std::string name;
    std::string help;
    InstrumentKind kind = InstrumentKind::kCounter;
    // Exactly one of the following is set per entry.
    Counter* counter = nullptr;
    Gauge* gauge = nullptr;
    Histogram* histogram = nullptr;
    std::function<std::uint64_t()> counter_fn;
    std::function<double()> gauge_fn;
    // FreezeCallbacks bookkeeping: the registering component (callback
    // entries only) and the value kept after the function is dropped.
    const void* owner = nullptr;
    std::uint64_t frozen_counter = 0;
    double frozen_gauge = 0.0;
  };

  Entry& AddEntry(const std::string& name, const std::string& help,
                  InstrumentKind kind);

  mutable std::mutex mu_;
  // Owned storage. Deques never relocate elements, so the references handed
  // out by Register* stay valid as later registrations arrive.
  std::deque<Counter> counters_;
  std::deque<Gauge> gauges_;
  std::deque<Histogram> histograms_;
  std::vector<Entry> entries_;  // registration order
};

}  // namespace fm::obs

#endif  // FOODMATCH_OBS_METRICS_REGISTRY_H_
