// Unit tests for the observability layer: instrument exactness under
// contention, histogram boundary semantics, deterministic exposition,
// callback lifetime (FreezeCallbacks), trace-JSON well-formedness, and
// span/histogram recording.
#include <cstdio>
#include <filesystem>
#include <fstream>
#include <sstream>
#include <string>
#include <thread>
#include <vector>

#include <gtest/gtest.h>

#include "obs/instruments.h"
#include "obs/metrics_registry.h"
#include "obs/trace.h"

namespace fm::obs {
namespace {

// ---- Instruments ----

TEST(InstrumentsTest, CounterExactUnderContention) {
  Counter counter;
  constexpr int kThreads = 8;
  constexpr int kPerThread = 20000;
  std::vector<std::thread> threads;
  for (int t = 0; t < kThreads; ++t) {
    threads.emplace_back([&] {
      for (int i = 0; i < kPerThread; ++i) {
        counter.Increment();
      }
    });
  }
  for (std::thread& th : threads) th.join();
  EXPECT_EQ(counter.value(), kThreads * kPerThread);
}

TEST(InstrumentsTest, HistogramBoundariesAreInclusiveUpperEdges) {
  // Bucket i counts boundaries[i-1] < v <= boundaries[i]; the last bucket
  // is overflow. Values exactly on a boundary must land in that boundary's
  // bucket, never the next one.
  Histogram h({1.0, 10.0, 100.0});
  h.Observe(0.5);    // bucket 0
  h.Observe(1.0);    // bucket 0 (inclusive upper edge)
  h.Observe(1.0001); // bucket 1
  h.Observe(10.0);   // bucket 1
  h.Observe(100.0);  // bucket 2
  h.Observe(100.5);  // overflow
  ASSERT_EQ(h.num_buckets(), 4u);
  EXPECT_EQ(h.bucket_count(0), 2u);
  EXPECT_EQ(h.bucket_count(1), 2u);
  EXPECT_EQ(h.bucket_count(2), 1u);
  EXPECT_EQ(h.bucket_count(3), 1u);
  EXPECT_EQ(h.count(), 6u);
  EXPECT_DOUBLE_EQ(h.sum(), 0.5 + 1.0 + 1.0001 + 10.0 + 100.0 + 100.5);
}

TEST(InstrumentsTest, HistogramExactUnderContention) {
  Histogram h(LatencyBoundaries());
  constexpr int kThreads = 8;
  constexpr int kPerThread = 10000;
  std::vector<std::thread> threads;
  for (int t = 0; t < kThreads; ++t) {
    threads.emplace_back([&] {
      for (int i = 0; i < kPerThread; ++i) h.Observe(1e-4);
    });
  }
  for (std::thread& th : threads) th.join();
  EXPECT_EQ(h.count(), kThreads * kPerThread);
  std::uint64_t bucket_total = 0;
  for (std::size_t i = 0; i < h.num_buckets(); ++i) {
    bucket_total += h.bucket_count(i);
  }
  EXPECT_EQ(bucket_total, h.count());
}

// ---- Registry ----

TEST(MetricsRegistryTest, SnapshotWalksRegistrationOrder) {
  MetricsRegistry registry;
  registry.RegisterCounter("z.last", "registered first");
  registry.RegisterGauge("a.first", "registered second");
  registry.RegisterHistogram("m.middle", "registered third", {1.0, 2.0});
  const MetricsSnapshot snap = registry.Snapshot();
  ASSERT_EQ(snap.instruments.size(), 3u);
  // Registration order, not lexicographic — two runs registering the same
  // instruments produce byte-identical exposition headers.
  EXPECT_EQ(snap.instruments[0].name, "z.last");
  EXPECT_EQ(snap.instruments[1].name, "a.first");
  EXPECT_EQ(snap.instruments[2].name, "m.middle");
}

TEST(MetricsRegistryTest, ExpositionIsDeterministic) {
  auto build = [](std::uint64_t count) {
    MetricsRegistry registry;
    registry.RegisterCounter("orders.placed", "orders").Add(count);
    registry.RegisterGauge("queue.depth", "depth").Set(3.5);
    // Binary-exact boundaries so the %.17g exposition renders them short.
    registry.RegisterHistogram("latency_seconds", "lat", {0.25, 1.0})
        .Observe(0.05);
    return registry.Snapshot();
  };
  const MetricsSnapshot a = build(7);
  const MetricsSnapshot b = build(7);
  EXPECT_EQ(a.ToJson(), b.ToJson());
  EXPECT_EQ(a.ToPrometheusText(), b.ToPrometheusText());
  // Same structure, different value: only the value may differ.
  const MetricsSnapshot c = build(8);
  EXPECT_NE(a.ToJson(), c.ToJson());
  EXPECT_NE(a.ToJson().find("\"orders.placed\": 7"), std::string::npos);
  EXPECT_NE(c.ToJson().find("\"orders.placed\": 8"), std::string::npos);
  // Prometheus exposition swaps dots for underscores and renders
  // cumulative buckets.
  const std::string prom = a.ToPrometheusText();
  EXPECT_NE(prom.find("# TYPE orders_placed counter"), std::string::npos);
  EXPECT_NE(prom.find("latency_seconds_bucket{le=\"0.25\"} 1"),
            std::string::npos);
  EXPECT_NE(prom.find("latency_seconds_bucket{le=\"+Inf\"} 1"),
            std::string::npos);
}

TEST(MetricsRegistryTest, CallbacksSampleAtSnapshotTime) {
  MetricsRegistry registry;
  std::uint64_t source = 0;
  registry.RegisterCallbackCounter("cb.count", "live",
                                   [&source] { return source; });
  source = 41;
  EXPECT_EQ(registry.Snapshot().instruments[0].counter, 41u);
  source = 42;
  EXPECT_EQ(registry.Snapshot().instruments[0].counter, 42u);
}

TEST(MetricsRegistryTest, FreezeCallbacksKeepsFinalValueAfterOwnerDies) {
  MetricsRegistry registry;
  struct Component {
    MetricsRegistry* registry;
    std::uint64_t count = 0;
    double depth = 0.0;
    explicit Component(MetricsRegistry* r) : registry(r) {
      registry->RegisterCallbackCounter(
          "comp.count", "count", [this] { return count; }, this);
      registry->RegisterCallbackGauge(
          "comp.depth", "depth", [this] { return depth; }, this);
    }
    ~Component() { registry->FreezeCallbacks(this); }
  };
  {
    Component comp(&registry);
    comp.count = 17;
    comp.depth = 2.5;
  }
  // The owner is gone; the registry must expose the frozen final values
  // instead of calling dangling callbacks.
  const MetricsSnapshot snap = registry.Snapshot();
  ASSERT_EQ(snap.instruments.size(), 2u);
  EXPECT_EQ(snap.instruments[0].counter, 17u);
  EXPECT_DOUBLE_EQ(snap.instruments[1].gauge, 2.5);
}

// ---- Tracer ----

std::string ReadFile(const std::string& path) {
  std::ifstream in(path);
  std::stringstream ss;
  ss << in.rdbuf();
  return ss.str();
}

TEST(TracerTest, WriteJsonIsWellFormedChromeTraceFormat) {
  Tracer& tracer = Tracer::Global();
  tracer.Enable();
  {
    ScopedSpan outer("outer", "test");
    ScopedSpan inner("inner", "test");
  }
  EmitOrderLifecycle('b', "order.placed", 7);
  EmitOrderLifecycle('n', "order.drained", 7);
  EmitOrderLifecycle('e', "order.decided", 7);
  std::thread other([] { ScopedSpan span("worker", "test"); });
  other.join();
  tracer.Disable();

  const std::vector<TraceEvent> events = tracer.SortedEvents();
  ASSERT_EQ(events.size(), 6u);
  // Sorted by timestamp; spans close inner-first but sort by start.
  for (std::size_t i = 1; i < events.size(); ++i) {
    EXPECT_GE(events[i].ts_us, events[i - 1].ts_us);
  }
  // The worker thread registered its own tid.
  bool saw_second_tid = false;
  for (const TraceEvent& e : events) {
    if (e.name == "worker") saw_second_tid = e.tid != events[0].tid;
  }
  EXPECT_TRUE(saw_second_tid);

  const std::string path =
      (std::filesystem::temp_directory_path() / "fm_obs_test_trace.json")
          .string();
  ASSERT_TRUE(tracer.WriteJson(path));
  const std::string json = ReadFile(path);
  std::remove(path.c_str());
  EXPECT_NE(json.find("\"traceEvents\""), std::string::npos);
  EXPECT_NE(json.find("\"displayTimeUnit\""), std::string::npos);
  EXPECT_NE(json.find("\"ph\": \"X\""), std::string::npos);
  EXPECT_NE(json.find("\"ph\": \"b\""), std::string::npos);
  EXPECT_NE(json.find("\"ph\": \"e\""), std::string::npos);
  EXPECT_NE(json.find("\"id\": 7"), std::string::npos);
  // Braces and brackets balance — the document parses as JSON.
  EXPECT_EQ(std::count(json.begin(), json.end(), '{'),
            std::count(json.begin(), json.end(), '}'));
  EXPECT_EQ(std::count(json.begin(), json.end(), '['),
            std::count(json.begin(), json.end(), ']'));
}

TEST(TracerTest, DisabledTracerRecordsNothing) {
  Tracer& tracer = Tracer::Global();
  tracer.Enable();
  tracer.Disable();
  { ScopedSpan span("ignored", "test"); }
  EmitOrderLifecycle('b', "ignored", 1);
  EXPECT_TRUE(tracer.SortedEvents().empty());
}

TEST(TracerTest, RingOverwritesOldestAndCountsDropped) {
  Tracer& tracer = Tracer::Global();
  // Enable clamps the per-thread ring to at least 16 slots.
  tracer.Enable(/*events_per_thread=*/16);
  for (int i = 0; i < 26; ++i) {
    ScopedSpan span("spin", "test");
  }
  tracer.Disable();
  EXPECT_EQ(tracer.SortedEvents().size(), 16u);
  EXPECT_EQ(tracer.dropped(), 10u);
}

// A span given a histogram observes its duration whether or not tracing is
// on, and emits the trace event only while it is.
TEST(TracerTest, SpanHistogramObservesWithAndWithoutTracing) {
  Tracer& tracer = Tracer::Global();
  Histogram histogram(LatencyBoundaries());
  { ScopedSpan span("unit.untraced", "phase", &histogram); }
  EXPECT_EQ(histogram.count(), 1u);
  tracer.Enable();
  { ScopedSpan span("unit.traced", "phase", &histogram); }
  tracer.Disable();
  EXPECT_EQ(histogram.count(), 2u);
  EXPECT_GE(histogram.sum(), 0.0);
  const std::vector<TraceEvent> events = tracer.SortedEvents();
  ASSERT_EQ(events.size(), 1u);
  EXPECT_EQ(events[0].name, "unit.traced");
  EXPECT_STREQ(events[0].category, "phase");
}

}  // namespace
}  // namespace fm::obs
