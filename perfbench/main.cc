// perfbench: one paced city day per run (see citybench.h and README.md).
//
//   perfbench --workload peak --seed 1 --seconds 45 --trace 0
//             [--out-dir .bench_build/perfbench-out]
//
// Prints a provenance line, then as its last stdout line one JSON object
// {"correct", "attempted", "failed", "metrics"}: the end-to-end metrics with
// --trace 0, the per-layer metrics with --trace 1. The traced run replays
// the day twice on fresh engines — untraced, then with the metrics
// registry on — to report the tracing overhead, and writes the second
// day's window spans as Chrome trace JSON under --out-dir. Exits 1 when the
// paced replay's fingerprints differ from the serial unpaced reference or
// orders are not conserved, 2 on bad arguments.
#include <sys/resource.h>
#include <unistd.h>

#include <cstdio>
#include <filesystem>
#include <string>
#include <thread>
#include <utility>
#include <vector>

#include "citybench.h"
#include "common/flags.h"

namespace fm::perfbench {
namespace {

// FoodMatch on two lanes (Config::threads); set-up is timed this many times.
constexpr int kLanes = 2;
constexpr int kSetups = 3;

class JsonMetrics {
 public:
  void Add(const std::string& name, double value, const char* unit) {
    char buf[96];
    std::snprintf(buf, sizeof(buf), "{\"value\": %.10g, \"unit\": \"%s\"}",
                  value, unit);
    body_ += (body_.empty() ? "" : ", ") + ("\"" + name + "\": ") + buf;
  }
  std::string str() const { return "{" + body_ + "}"; }

 private:
  std::string body_;
};

double Median(std::vector<double> v) { return Quantile(std::move(v), 0.5); }

double PeakRssMb() {
  rusage usage{};
  getrusage(RUSAGE_SELF, &usage);
  return static_cast<double>(usage.ru_maxrss) / 1024.0;  // KiB on Linux
}

const obs::InstrumentValue* Find(const obs::MetricsSnapshot& snap,
                                 const std::string& name) {
  for (const obs::InstrumentValue& v : snap.instruments) {
    if (v.name == name) return &v;
  }
  return nullptr;
}

double HistogramSum(const obs::MetricsSnapshot& snap, const std::string& n) {
  const obs::InstrumentValue* v = Find(snap, n);
  return v != nullptr ? v->histogram.sum : 0.0;
}

double HistogramCount(const obs::MetricsSnapshot& snap, const std::string& n) {
  const obs::InstrumentValue* v = Find(snap, n);
  return v != nullptr ? static_cast<double>(v->histogram.count) : 0.0;
}

double CounterValue(const obs::MetricsSnapshot& snap, const std::string& n) {
  const obs::InstrumentValue* v = Find(snap, n);
  return v != nullptr ? static_cast<double>(v->counter) : 0.0;
}

double HitPercent(double hits, double misses) {
  return hits + misses > 0 ? 100.0 * hits / (hits + misses) : 0.0;
}

// Orders conserved and the paced replay decided exactly like the reference.
bool Check(const PacedRun& run, const Fingerprints& reference,
           const char* label) {
  const Metrics& m = run.sim.metrics;
  bool ok = true;
  if (m.orders_delivered + m.orders_rejected + m.orders_pending_at_end !=
      m.orders_total) {
    std::fprintf(stderr,
                 "CHECK FAILED (%s): delivered %llu + rejected %llu + pending "
                 "%llu != placed %llu\n",
                 label, static_cast<unsigned long long>(m.orders_delivered),
                 static_cast<unsigned long long>(m.orders_rejected),
                 static_cast<unsigned long long>(m.orders_pending_at_end),
                 static_cast<unsigned long long>(m.orders_total));
    ok = false;
  }
  if (run.window_fingerprint != reference.windows ||
      run.outcome_fingerprint != reference.outcomes) {
    std::fprintf(stderr,
                 "CHECK FAILED (%s): paced fingerprints %016llx/%016llx != "
                 "serial reference %016llx/%016llx\n",
                 label, static_cast<unsigned long long>(run.window_fingerprint),
                 static_cast<unsigned long long>(run.outcome_fingerprint),
                 static_cast<unsigned long long>(reference.windows),
                 static_cast<unsigned long long>(reference.outcomes));
    ok = false;
  }
  return ok;
}

double SumMs(const std::vector<WindowRecord>& windows,
             double (*part)(const WindowRecord&)) {
  double total = 0.0;
  for (const WindowRecord& w : windows) total += part(w);
  return 1e3 * total;
}

double Ms(Clock::duration d) {
  return 1e3 * std::chrono::duration<double>(d).count();
}

int Main(int argc, char** argv) {
  FlagParser flags;
  const bool parsed = flags.Parse(argc, argv);
  const std::string name = flags.GetString("workload");
  const std::optional<WorkloadSpec> spec = FindWorkload(name);
  const double seconds = flags.GetDouble("seconds", 0.0);
  const int trace = flags.GetInt("trace", 0);
  const int seed_arg = flags.GetInt("seed", -1);
  if (!parsed || !spec || seconds <= 0.0 || seed_arg < 0 || (trace != 0 && trace != 1)) {
    std::fprintf(stderr,
                 "usage: perfbench --workload peak|sharded-durable "
                 "--seed N --seconds S --trace 0|1 [--out-dir DIR]\n");
    return 2;
  }
  const auto seed = static_cast<std::uint64_t>(seed_arg);
  const std::filesystem::path out_dir =
      flags.GetString("out-dir", ".bench_build/perfbench-out");
  const std::filesystem::path wal_dir =
      out_dir / ("wal-" + std::to_string(getpid()));
  std::filesystem::create_directories(out_dir);

  // Set-up, several times; the last one is kept for the run.
  StackOptions stack_options;
  stack_options.lanes = kLanes;
  stack_options.wal_dir = wal_dir.string();
  std::unique_ptr<World> world;
  std::unique_ptr<Stack> stack;
  std::vector<double> total_s, workload_s, warm_s, engine_s;
  for (int i = 0; i < kSetups; ++i) {
    stack.reset();
    world.reset();
    SetupTimes times;
    world = BuildWorld(*spec, seed, kLanes, &times);
    const auto t0 = Clock::now();
    stack = std::make_unique<Stack>(*world, stack_options);
    times.engine_s = std::chrono::duration<double>(Clock::now() - t0).count();
    total_s.push_back(times.total());
    workload_s.push_back(times.workload_s);
    warm_s.push_back(times.oracle_warm_s);
    engine_s.push_back(times.engine_s);
  }

  PacedRun run = RunPaced(*world, *stack, seconds, kLanes);
  double overhead_pct = 0.0;
  obs::MetricsSnapshot snapshot;
  std::string trace_path;
  bool correct = true;
  const Fingerprints reference = RunReference(*world);
  correct = Check(run, reference, "paced") && correct;
  if (trace == 1) {
    // Second day on a fresh engine with the registry on; the first day is
    // the untraced baseline for the overhead.
    obs::MetricsRegistry registry;
    stack.reset();
    StackOptions traced_options = stack_options;
    traced_options.registry = &registry;
    stack = std::make_unique<Stack>(*world, traced_options);
    PacedRun traced = RunPaced(*world, *stack, seconds, kLanes);
    correct = Check(traced, reference, "traced") && correct;
    overhead_pct = 100.0 * (AttributeLayers(traced).busy /
                                AttributeLayers(run).busy -
                            1.0);
    snapshot = registry.Snapshot();
    stack.reset();  // freezes the callback instruments before `registry` dies
    run = std::move(traced);
    trace_path = (out_dir / ("trace-" + name + "-seed" +
                             std::to_string(seed) + ".json"))
                     .string();
    if (!WriteChromeTrace(run, trace_path)) {
      std::fprintf(stderr, "failed to write %s\n", trace_path.c_str());
      correct = false;
    }
  }
  stack.reset();
  std::filesystem::remove_all(wal_dir);

  const Metrics& m = run.sim.metrics;
  const std::uint64_t failed = m.orders_rejected + m.orders_pending_at_end;
  std::vector<double> window_ms, decide_ms;
  double busy_s = 0.0;
  int overflown = 0;
  for (std::size_t k = 0; k < run.windows.size(); ++k) {
    const WindowRecord& w = run.windows[k];
    window_ms.push_back(Ms(w.close_return - w.close_call));
    decide_ms.push_back(1e3 * w.decide_s);
    busy_s += std::chrono::duration<double>(w.after - w.start).count();
    if (run.lag_ms[k] > 1e3 * run.period_s) ++overflown;
  }
  const Seconds simulated =
      run.windows.empty() ? 0.0 : run.windows.back().now - spec->start_time;

  std::printf(
      "provenance {\"workload\": \"%s\", \"seed\": %llu, \"seconds\": %g, "
      "\"compression\": %.6g, \"period_ms\": %.6g, \"delta_s\": %g, "
      "\"lanes\": %d, \"shards\": %d, \"nproc\": %u, \"build_type\": \"%s\", "
      "\"setups\": %d, \"orders\": %llu, \"vehicles\": %zu, \"windows\": %zu, "
      "\"trace\": \"%s\"}\n",
      name.c_str(), static_cast<unsigned long long>(seed), seconds,
      run.compression, 1e3 * run.period_s, spec->delta, kLanes, spec->shards,
      std::thread::hardware_concurrency(), PERFBENCH_BUILD_TYPE, kSetups,
      static_cast<unsigned long long>(m.orders_total), world->workload.fleet.size(),
      run.windows.size(), trace_path.c_str());

  JsonMetrics metrics;
  if (trace == 0) {
    metrics.Add("setup_s", Median(total_s), "s");
    metrics.Add("assign_p50_ms", Quantile(run.assign_ms, 0.50), "ms");
    metrics.Add("assign_p95_ms", Quantile(run.assign_ms, 0.95), "ms");
    metrics.Add("peak_rss_mb", PeakRssMb(), "MB");
  } else {
    const LayerTimes layers = AttributeLayers(run);
    metrics.Add("lag_p50_ms", Quantile(run.lag_ms, 0.50), "ms");
    metrics.Add("lag_p90_ms", Quantile(run.lag_ms, 0.90), "ms");
    metrics.Add("capacity_x", busy_s > 0 ? simulated / busy_s : 0.0, "x");
    metrics.Add("setup.workload_s", Median(workload_s), "s");
    metrics.Add("setup.oracle_warm_s", Median(warm_s), "s");
    metrics.Add("setup.engine_s", Median(engine_s), "s");
    metrics.Add("core.window_ms.p50", Quantile(window_ms, 0.50), "ms");
    metrics.Add("core.window_ms.p90", Quantile(window_ms, 0.90), "ms");
    metrics.Add("core.window_ms.sum",
                SumMs(run.windows, [](const WindowRecord& w) {
                  return std::chrono::duration<double>(w.close_return -
                                                       w.close_call)
                      .count();
                }),
                "ms");
    metrics.Add("core.decide_ms.p50", Quantile(decide_ms, 0.50), "ms");
    metrics.Add("core.decide_ms.p90", Quantile(decide_ms, 0.90), "ms");
    metrics.Add("core.decide_ms.sum",
                SumMs(run.windows,
                      [](const WindowRecord& w) { return w.decide_s; }),
                "ms");
    metrics.Add("core.batching_s", m.phase_batching_seconds, "s");
    metrics.Add("core.graph_s", m.phase_graph_seconds, "s");
    metrics.Add("matching.km_s", m.phase_matching_seconds, "s");
    metrics.Add("routing.rebuild_ms",
                SumMs(run.windows, [](const WindowRecord& w) {
                  return std::chrono::duration<double>(w.after -
                                                       w.close_return)
                      .count();
                }),
                "ms");
    for (const auto& [layer, s] : layers.self) {
      metrics.Add(layer + "_ms", 1e3 * s, "ms");
    }
    metrics.Add("trace.busy_ms", 1e3 * layers.busy, "ms");
    metrics.Add("trace.residual_ms", 1e3 * layers.residual, "ms");
    metrics.Add("trace.residual_pct", 100.0 * layers.residual / layers.busy,
                "%");
    metrics.Add("trace.overhead_pct", overhead_pct, "%");
    metrics.Add("core.windows", static_cast<double>(run.windows.size()),
                "count");
    metrics.Add("core.cost_evaluations",
                static_cast<double>(run.cost_evaluations), "count");
    metrics.Add("graph.oracle_queries",
                static_cast<double>(run.oracle_queries), "count");
    metrics.Add("core.assigned_orders",
                static_cast<double>(run.assigned_orders), "count");
    metrics.Add("core.reshuffled_vehicles",
                static_cast<double>(run.reshuffled_vehicles), "count");
    metrics.Add("core.reinstatements",
                static_cast<double>(run.reinstatements), "count");
    metrics.Add("core.rejected", static_cast<double>(run.rejected), "count");
    metrics.Add("serving.migrations", static_cast<double>(run.migrations),
                "count");
    metrics.Add("wal.records", static_cast<double>(run.wal_records), "count");
    metrics.Add("xdt_mean_min", m.MeanXdtSeconds() / 60.0, "min");
    metrics.Add("failed_pct",
                m.orders_total > 0 ? 100.0 * static_cast<double>(failed) /
                                         static_cast<double>(m.orders_total)
                                   : 0.0,
                "%");
    metrics.Add("overflow_pct",
                run.windows.empty() ? 0.0
                                    : 100.0 * overflown /
                                          static_cast<double>(run.windows.size()),
                "%");
    metrics.Add("bench.pace_slip_ms", Quantile(run.pace_slip_ms, 0.90), "ms");
    metrics.Add("bench.backlog_windows_max",
                static_cast<double>(run.backlog_windows_max), "count");
    metrics.Add("executor.drain_ms",
                1e3 * HistogramSum(snapshot, "executor.drain_seconds"), "ms");
    metrics.Add("executor.sort_ms",
                1e3 * HistogramSum(snapshot, "executor.sort_seconds"), "ms");
    metrics.Add("executor.replay_ms",
                1e3 * HistogramSum(snapshot, "executor.replay_seconds"), "ms");
    metrics.Add("wal.fsync_ms",
                1e3 * HistogramSum(snapshot, "wal.fsync_seconds"), "ms");
    metrics.Add("wal.fsyncs", HistogramCount(snapshot, "wal.fsync_seconds"),
                "count");
    metrics.Add("graph.edge_cache.pair_hit_pct",
                HitPercent(CounterValue(snapshot, "graph.edge_cache.pair_hits"),
                           CounterValue(snapshot,
                                        "graph.edge_cache.pair_misses")),
                "%");
    metrics.Add("graph.edge_cache.memo_hit_pct",
                HitPercent(CounterValue(snapshot, "graph.edge_cache.memo_hits"),
                           CounterValue(snapshot,
                                        "graph.edge_cache.memo_misses")),
                "%");
    const obs::InstrumentValue* imbalance =
        Find(snapshot, "serving.makespan_imbalance");
    metrics.Add("serving.makespan_imbalance",
                imbalance != nullptr ? imbalance->gauge : 0.0, "ratio");
  }
  std::printf(
      "{\"correct\": %s, \"attempted\": %llu, \"failed\": %llu, "
      "\"metrics\": %s}\n",
      correct ? "true" : "false",
      static_cast<unsigned long long>(m.orders_total),
      static_cast<unsigned long long>(failed), metrics.str().c_str());
  std::fflush(stdout);
  return correct ? 0 : 1;
}

}  // namespace
}  // namespace fm::perfbench

int main(int argc, char** argv) { return fm::perfbench::Main(argc, argv); }
